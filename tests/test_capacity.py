import csv
import json
import math
import warnings

import numpy as np
import pytest

from skdlab import capacity
from skdlab.capacity import (
    BitsBreakdown,
    ChannelSpec,
    ConvergenceError,
    DetectionParams,
    HierarchyBitsParams,
    bac_capacity,
    bac_channel,
    bac_exponent,
    bac_optimal_input,
    binary_entropy,
    blahut_arimoto,
    confusion_to_channel,
    counts_from_confusions,
    detection_bits_bound,
    detection_report_row,
    hierarchy_bits_bound,
    label_bits_report,
    mutual_information,
    qsc_capacity,
    qsc_channel,
    write_bits_csv,
    write_bits_json,
    z_channel,
    z_channel_capacity,
)
from skdlab.hierarchy import LabelHierarchy, build_task_preset


class TestBinaryEntropy:
    def test_endpoints_and_peak(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_known_value(self):
        # frozen from -0.9*log2(0.9) - 0.1*log2(0.1)
        assert binary_entropy(0.9) == pytest.approx(0.4689955935892811, abs=1e-15)

    def test_symmetry(self):
        for p in (0.1, 0.25, 0.33, 0.48):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-15)

    def test_range_checked(self):
        with pytest.raises(ValueError):
            binary_entropy(1.01)


class TestChannelSpec:
    def test_rows_must_be_stochastic(self):
        for row in ([0.9, 0.2], [0.5, 0.5 + 2e-9], [0.5, 0.5 - 2e-9]):
            with pytest.raises(ValueError, match="rows must sum to 1"):
                ChannelSpec(np.array([row, [0.5, 0.5]]))
        ChannelSpec(np.array([[0.5, 0.5 + 5e-10], [0.5, 0.5]]))  # within ROW_SUM_TOL

    def test_entries_must_be_finite(self):
        for bad in (np.nan, np.inf, -np.inf, -1e-12):
            with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
                ChannelSpec(np.array([[bad, 1.0], [0.5, 0.5]]))

    def test_rounding_residue_clipped(self):
        ch = ChannelSpec([[1.0 + 5e-16, -5e-16], [0.3, 0.7]])
        np.testing.assert_array_equal(ch.transition, [[1.0, 0.0], [0.3, 0.7]])

    def test_qsc_rows(self):
        ch = qsc_channel(4, 0.7)
        np.testing.assert_allclose(ch.transition.diagonal(), 0.7)
        np.testing.assert_allclose(ch.transition.sum(axis=1), 1.0, atol=1e-12)

    def test_z_channel_rows(self):
        np.testing.assert_allclose(
            z_channel(0.5).transition, [[1.0, 0.0], [0.5, 0.5]]
        )

    @pytest.mark.parametrize("bad", [[0.5, 0.5], [[[1.0]]], np.zeros((0, 2)), np.zeros((2, 0))],
                             ids=["1-D", "3-D", "no rows", "no columns"])
    def test_transition_must_be_2d(self, bad):
        with pytest.raises(ValueError, match="transition must be a 2-D matrix"):
            ChannelSpec(bad)

    @pytest.mark.parametrize(
        "build, message",
        [(lambda: qsc_channel(1, 0.5), "alphabet size must be at least 2"),
         (lambda: qsc_channel(3, 1.1), r"p must lie in \[0, 1\]"),
         (lambda: qsc_channel(3, float("nan")), r"p must lie in \[0, 1\]"),
         (lambda: bac_channel(0.0, 0.8), r"accuracies must lie in \(0, 1\]"),
         (lambda: bac_channel(0.9, 1.2), r"accuracies must lie in \(0, 1\]"),
         (lambda: z_channel(-0.1), r"p_flip must lie in \[0, 1\]"),
         (lambda: z_channel(1.5), r"p_flip must lie in \[0, 1\]"),
         (lambda: qsc_channel(2.5, 0.7), "alphabet size must be a whole number"),
         (lambda: qsc_channel(float("nan"), 0.7), "alphabet size must be a whole number")],
        ids=["qsc n", "qsc p", "qsc nan", "bac p_h0", "bac p_h1", "z below", "z above",
             "qsc fractional n", "qsc nan n"],
    )
    def test_builders_check_their_parameters(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_builders_channels_pass_the_public_checks_unchanged(self, n):
        # the builders skip ChannelSpec's check, since their own imply it: the public
        # constructor accepts each channel as it is, unclipped, as the same float matrix
        ps = [0, 0.0, 1 / n, 0.5, 1, 1.0]  # 0 and 1 also as ints; bac_channel refuses 0
        channels = [qsc_channel(n, p) for p in ps]
        channels += [bac_channel(a, b) for a in ps if a for b in ps if b]
        channels += [z_channel(p) for p in ps]
        for ch in channels:
            assert type(ch) is ChannelSpec and ch.transition.dtype == np.float64
            np.testing.assert_array_equal(ChannelSpec(ch.transition).transition, ch.transition)

    @pytest.mark.parametrize("build", [lambda p: qsc_channel(3, p), lambda p: bac_channel(p, p),
                                       z_channel], ids=["qsc", "bac", "z"])
    def test_float32_parameters_give_float64_channels(self, build):
        assert build(np.float32(0.7)).transition.dtype == np.float64


class TestMutualInformation:
    def test_identity_channel_uniform_input(self):
        ch = ChannelSpec(np.eye(4))
        assert mutual_information([0.25] * 4, ch) == pytest.approx(2.0, abs=1e-12)

    def test_nan_input_rejected(self):
        with pytest.raises(ValueError, match="must be a probability vector"):
            mutual_information([float("nan"), float("nan")], bac_channel(0.9, 0.8))

    @pytest.mark.parametrize("dist", [[1.0], [0.25] * 3, [[0.5, 0.5]]], ids=["short", "long", "2-D"])
    def test_input_length_checked(self, dist):
        with pytest.raises(ValueError, match="input distribution length does not match channel"):
            mutual_information(dist, bac_channel(0.9, 0.8))

    def test_useless_channel(self):
        ch = ChannelSpec(np.array([[0.3, 0.7], [0.3, 0.7]]))
        assert mutual_information([0.4, 0.6], ch) == pytest.approx(0.0, abs=1e-12)

    def test_against_double_sum_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            P = rng.dirichlet(np.ones(4), size=3)
            d = rng.dirichlet(np.ones(3))
            out = d @ P
            direct = sum(
                d[i] * P[i, j] * math.log2(P[i, j] / out[j])
                for i in range(3)
                for j in range(4)
                if P[i, j] > 0
            )
            assert mutual_information(d, ChannelSpec(P)) == pytest.approx(direct, abs=1e-12)

    def test_bounded_by_entropies(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            P = rng.dirichlet(np.ones(5), size=4)
            d = rng.dirichlet(np.ones(4))
            mi = mutual_information(d, ChannelSpec(P))
            h_input = -np.sum(d * np.log2(d))
            assert -1e-12 <= mi <= min(h_input, math.log2(5)) + 1e-12


# A 3x2 channel with two nearly equal rows (0 and 2).  The plain fixed-point
# loop closes its bracket only sublinearly here: the reference's gap is still
# about 4e-6 after 100 000 iterations.
SLOW_CHANNEL = [
    [0.47986079086829925, 0.5201392091317008],
    [0.3387967165374668, 0.6612032834625331],
    [0.47980718601038225, 0.5201928139896177],
]


# class confusions of a teacher just above chance: two nearly equal rows
NEAR_CHANCE_CONFUSIONS = [[[600, 400], [597, 403]], [[900, 100], [897, 103]], [[200, 800], [197, 803]]]


def _vanishing_input_channel():
    """7x13 Dirichlet channel in which input 4 alone reaches output 0, with P = 0.0009.

    By the KKT conditions input 4 keeps mass at the optimum, but very little:
    a Newton step cut where its mass reaches 0 would empty output 0.
    """
    P = np.random.default_rng(5).dirichlet(np.ones(13), size=7)
    P[:, 0] = 0.0
    P[4, 0] = 0.0009
    return P / P.sum(axis=1, keepdims=True)


VANISHING_INPUT_CHANNEL = _vanishing_input_channel()


def _reference_blahut_arimoto(channel, tol=1e-10, max_iters=100_000):
    """Blahut-Arimoto with D_x = sum_y P log2(P / q) masked at P = 0 in every iteration."""
    P = channel.transition
    m = channel.input_size
    r = np.full(m, 1.0 / m)
    for _ in range(max_iters):
        q = r @ P
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(P > 0, P / np.where(q > 0, q, 1.0), 1.0)
            D = np.sum(np.where(P > 0, P * np.log2(ratio), 0.0), axis=1)
        i_lower = float(r @ D)
        i_upper = float(D.max())
        if i_upper - i_lower < tol:
            return max(i_lower, 0.0), r
        r = r * np.exp2(D)
        r = r / r.sum()
    raise ConvergenceError(f"no convergence within {max_iters} iterations (gap > {tol})")


def _bracket(channel, r):
    """(sum r D, max D), with D_x = sum_y P log2(P / q) masked at P = 0, for any input r."""
    P = channel.transition
    q = np.asarray(r) @ P
    with np.errstate(divide="ignore", invalid="ignore"):
        D = np.sum(np.where(P > 0, P * np.log2(np.where(P > 0, P, 1.0) / q), 0.0), axis=1)
    return float(np.dot(r, D)), float(D.max())


def _dirichlet_channels(seed, count, max_size):
    """Dirichlet(1) channels, 2 to max_size rows and columns; every third has a zeroed column."""
    rng = np.random.default_rng(seed)
    channels = []
    for k in range(count):
        m, n = (int(v) for v in rng.integers(2, max_size + 1, size=2))
        P = rng.dirichlet(np.ones(n), size=m)
        if k % 3 == 0:
            P[:, rng.integers(n)] = 0.0
            P = P / P.sum(axis=1, keepdims=True)
        channels.append(P)
    return channels


def _reference_channels():
    """2-6 x 2-6 Dirichlet channels, a third with a zeroed column, and edge cases."""
    channels = _dirichlet_channels(5, 60, 6)
    channels += [np.eye(2), np.eye(5), np.eye(3)[[2, 0, 1]], np.eye(2)[::-1]]
    channels += [z_channel(p).transition for p in (0.0, 0.3, 0.9, 1.0)]
    channels += [np.array([[1.0, 0.0, 0.0], [0.2, 0.8, 0.0]]), SLOW_CHANNEL]
    return channels


class TestBlahutArimoto:
    def test_identity_channel(self):
        cap, dist = blahut_arimoto(ChannelSpec(np.eye(2)))
        assert cap == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(dist.sum(), 1.0, atol=1e-12)

    def test_symmetric_binary_channel(self):
        cap, _ = blahut_arimoto(bac_channel(0.9, 0.9))
        assert cap == pytest.approx(1.0 - binary_entropy(0.9), abs=1e-10)

    def test_capacity_at_returned_input(self):
        # the returned distribution must realize the capacity it reports
        ch = bac_channel(0.9, 0.7)
        cap, dist = blahut_arimoto(ch)
        assert mutual_information(dist, ch) == pytest.approx(cap, abs=1e-8)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan")])
    @pytest.mark.parametrize("n", [2, 4])
    def test_tol_must_be_positive(self, n, tol):
        # NaN fails every comparison, so it must not slip past the check and run
        # all max_iters iterations before raising
        with pytest.raises(ValueError, match="tol must be positive"):
            blahut_arimoto(qsc_channel(n, 0.7), tol=tol)

    def test_iteration_budget_enforced(self):
        ch = ChannelSpec(np.random.default_rng(0).dirichlet(np.ones(5), size=4))
        with pytest.raises(ConvergenceError):
            blahut_arimoto(ch, tol=1e-14, max_iters=1)

    def test_identical_rows_with_a_tol_below_rounding(self):
        # I(r) = 0 for every r, and here every D_x rounds to exactly 0 at the
        # uniform start, so the first bracket certifies even tol = 1e-300
        P = np.tile([0.32659861550674013, 0.25049337513525005, 0.42290800935800976], (7, 1))
        cap, _ = blahut_arimoto(ChannelSpec(P), tol=1e-300, max_iters=3)
        assert cap == 0.0

    @pytest.mark.parametrize("max_iters", [1, 10, 1000])
    def test_matches_reference_loop(self, max_iters):
        # Where the reference certifies within max_iters, so must blahut_arimoto.
        # Both results are then within tol of the capacity, so within 2 tol of
        # each other.
        tol = 1e-10
        certified = 0
        for P in _reference_channels():
            ch = ChannelSpec(P)
            try:
                want, _ = _reference_blahut_arimoto(ch, tol=tol, max_iters=max_iters)
            except ConvergenceError:
                continue
            certified += 1
            cap, r = blahut_arimoto(ch, tol=tol, max_iters=max_iters)
            assert cap == pytest.approx(want, abs=2 * tol)
            assert mutual_information(r, ch) == pytest.approx(cap, abs=tol)
        assert certified > 0

    def test_dirichlet_sweep_is_certified(self):
        # Every channel converges at the default budget, so in particular every
        # one the reference converges on.  The bracket, recomputed here from the
        # returned r alone, puts the result within tol of the capacity; the
        # reference is certified the same way, so the two agree within 2 tol.
        for P in _dirichlet_channels(17, 300, 8):
            ch = ChannelSpec(P)
            cap, r = blahut_arimoto(ch)
            i_lower, i_upper = _bracket(ch, r)
            assert i_upper - i_lower < 1e-10
            assert cap == pytest.approx(i_lower, abs=1e-12)

    def test_slow_channel_converges(self):
        ch = ChannelSpec(SLOW_CHANNEL)
        with pytest.raises(ConvergenceError):
            _reference_blahut_arimoto(ch, max_iters=1000)
        cap, r = blahut_arimoto(ch, max_iters=1000)
        i_lower, i_upper = _bracket(ch, r)
        assert i_upper - i_lower < 1e-10
        assert mutual_information(r, ch) == pytest.approx(cap, abs=1e-10)
        assert r[2] == 0.0  # the near-copy of row 0 leaves the active set

    def test_inputs_leave_with_exactly_zero_mass(self):
        # four nearly equal rows; only the two extreme ones carry mass at the
        # optimum.  A leaving input kept at a rounding residue instead of 0 would
        # cut every later Newton step to nothing (75 steps instead of 5).
        P = [
            [0.8289115041970331, 0.17108849580296687],
            [0.8317999863909363, 0.1682000136090636],
            [0.8254151595694331, 0.17458484043056685],
            [0.8295961554510366, 0.17040384454896337],
        ]
        _, r = blahut_arimoto(ChannelSpec(P), max_iters=10)
        assert r[0] == 0.0 and r[3] == 0.0

    def test_step_that_would_empty_a_column_is_refused(self):
        # only input 1 reaches output 0.  A Newton step that zeroes input 1 would
        # leave q_0 = 0 and log2 q_0 = -inf, which warns; it must fall back instead.
        ch = ChannelSpec([[0.0, 0.9662, 0.0338], [0.2567, 0.5051, 0.2382], [0.0, 0.0197, 0.9803]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cap, r = blahut_arimoto(ch)
        i_lower, i_upper = _bracket(ch, r)
        assert i_upper - i_lower < 1e-10 and r[1] > 0.0

    @staticmethod
    def _record_newton_steps(monkeypatch):
        """Each _newton_step call's (q, returned step)."""
        calls = []
        newton_step = capacity._newton_step

        def recorded(P, q, D, r, i_lower):
            step = newton_step(P, q, D, r, i_lower)
            calls.append((q, step))
            return step

        monkeypatch.setattr(capacity, "_newton_step", recorded)
        return calls

    def test_identical_rows_give_no_newton_direction(self, monkeypatch):
        # rounding leaves every D_x 1.1e-16 and the first bracket a few ulps wide,
        # which tol = 1e-300 rejects; the free rows are identical, so the Newton
        # system has a zero trace and no step, and the Blahut-Arimoto step certifies
        calls = self._record_newton_steps(monkeypatch)
        P = np.tile([0.12835567428051406, 0.8716443257194859], (7, 1))
        cap, _ = blahut_arimoto(ChannelSpec(P), tol=1e-300, max_iters=3)
        assert cap == 0.0
        assert [step for _, step in calls] == [None]

    def test_one_free_input_gives_no_newton_step(self):
        # all mass on input 0 of three equal rows, so every D_x is 0 = I(r) and no
        # zero-mass input is free; the lone free input's system is 0x0, with trace 0
        P = np.tile([0.2, 0.3, 0.5], (3, 1))
        r = np.array([1.0, 0.0, 0.0])
        q = r @ P
        D = np.sum(P * np.log2(P / q), axis=1)
        assert capacity._newton_step(P, q, D, r, float(r @ D)) is None

    def test_newton_system_that_overflows_gives_no_step(self, monkeypatch):
        # input 1 alone reaches output 0, with P = 3e-5, and Blahut-Arimoto steps
        # shrink its mass below the smallest double.  Once 1 / q_0 overflows, the
        # Newton system has no finite solution and gives no step, and the
        # emptied output ends the call
        calls = self._record_newton_steps(monkeypatch)
        P = [
            [0.0, 0.16, 0.03, 0.81],
            [3e-05, 0.31, 0.2, 0.48997],
            [0.0, 0.27, 0.49, 0.24],
            [0.0, 0.24, 0.23, 0.53],
            [0.0, 0.31, 0.41, 0.28],
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ConvergenceError, match="emptied an output column"):
                blahut_arimoto(ChannelSpec(P))
            assert any(step is None and not np.isfinite(1.0 / q).all() for q, step in calls)

    def test_vanishing_input_pauses_newton(self, monkeypatch):
        # nearly every Newton step is cut where input 4 reaches 0 and refused for
        # emptying output 0; without the pause after a refusal every iteration
        # tried one, 1553 in all
        calls = self._record_newton_steps(monkeypatch)
        ch = ChannelSpec(VANISHING_INPUT_CHANNEL)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cap, r = blahut_arimoto(ch)
        assert len(calls) <= 200
        i_lower, i_upper = _bracket(ch, r)
        assert i_upper - i_lower < 1e-10
        assert cap == pytest.approx(i_lower, abs=1e-12)
        assert 0.0 < r[4] < 1e-30

    def test_step_count_on_an_input_alone_on_an_output(self, monkeypatch):
        # input 2 alone reaches output 0.  8 Newton steps, with P as given or as a
        # non-contiguous copy; 50 before the pause.  The count hangs on the last bit
        # of P @ log2(q), so another BLAS may round its way to a step or two more.
        calls = self._record_newton_steps(monkeypatch)
        ch = ChannelSpec([[0, 0.9, 0.1], [0, 0.1, 0.9], [0.05, 0.5, 0.45]])
        cap, r = blahut_arimoto(ch)
        assert len(calls) <= 10
        i_lower, i_upper = _bracket(ch, r)
        assert i_upper - i_lower < 1e-10 and r[2] > 0.0

    def test_input_whose_mass_underflows_raises_convergence_error(self):
        # input 4 alone reaches output 2, with P = 5.4e-6, and Blahut-Arimoto steps
        # shrink its mass below the smallest double.  On the way 1 / q overflows in
        # the Newton system, which used to surface as a ValueError from an empty
        # argmin; its steps now zero input 4 and are refused, or move no mass, and
        # the emptied output ends the call
        P = [
            [0.03, 0.02, 0.0, 0.95],
            [0.32, 0.52, 0.0, 0.15999999999999992],
            [0.24, 0.29, 0.0, 0.47],
            [0.0, 0.29, 0.0, 0.71],
            [0.19, 0.44, 5.401565972499245e-06, 0.3699945984340275],
            [0.01, 0.63, 0.0, 0.36],
            [0.24, 0.37, 0.0, 0.39],
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
            with pytest.raises(ConvergenceError, match="emptied an output column"):
                blahut_arimoto(ChannelSpec(P))

    def test_agrees_with_bac_closed_form(self):
        rng = np.random.default_rng(23)
        for p0, p1 in rng.uniform(0.01, 1.0, size=(300, 2)):
            cap, r = blahut_arimoto(bac_channel(p0, p1))
            assert cap == pytest.approx(bac_capacity(p0, p1), abs=1e-9)
            if cap > 1e-3:  # below it the optimum is too flat to pin r
                assert r[int(p1 < p0)] == pytest.approx(bac_optimal_input(p0, p1), abs=1e-6)
                # a binary-input channel's optimal input puts at least 1/e on each input
                assert math.exp(-1.0) <= r.min() and r.max() <= 1.0 - math.exp(-1.0)

    def test_binary_channels_need_no_linear_solve(self, monkeypatch):
        # a two-input channel is solved by a search on one mass, with no linear system
        def no_solve(*args, **kwargs):
            raise AssertionError("np.linalg.solve called on a binary channel")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        rng = np.random.default_rng(31)
        channels = [bac_channel(p0, p1) for p0, p1 in rng.uniform(0.01, 1.0, size=(100, 2))]
        channels += [confusion_to_channel(c) for c in NEAR_CHANCE_CONFUSIONS]
        for ch in channels:
            cap, r = blahut_arimoto(ch)
            i_lower, i_upper = _bracket(ch, r)
            assert i_upper - i_lower < 1e-10
            assert cap == pytest.approx(i_lower, abs=1e-12)

    def test_two_input_channels_need_no_numpy_newton_step(self, monkeypatch):
        # a 2 x n channel runs on Python floats, with its own search on one mass
        def no_newton(*args, **kwargs):
            raise AssertionError("_newton_step called on a two-input channel")

        monkeypatch.setattr(capacity, "_newton_step", no_newton)
        rng = np.random.default_rng(41)
        channels = [P[:2] for P in _dirichlet_channels(43, 150, 6)]  # a third with a zeroed column
        channels += [z_channel(p).transition for p in (0.0, 0.3, 1.0)]
        channels += [np.tile(rng.dirichlet(np.ones(n)), (2, 1)) for n in (2, 3, 5)]  # identical rows
        channels += [confusion_to_channel(c).transition for c in NEAR_CHANCE_CONFUSIONS]
        channels += [[[0.0009, 0.9991], [0.0, 1.0]]]
        tol, compared = 1e-10, 0
        for P in channels:
            ch = ChannelSpec(P)
            cap, r = blahut_arimoto(ch, tol=tol)
            i_lower, i_upper = _bracket(ch, r)
            assert i_upper - i_lower < tol
            assert cap == pytest.approx(i_lower, abs=1e-12)
            try:
                want, _ = _reference_blahut_arimoto(ch, tol=tol, max_iters=5000)
            except ConvergenceError:
                continue
            compared += 1
            assert cap == pytest.approx(want, abs=2 * tol)
        assert compared > 100
        with pytest.raises(ConvergenceError, match="no convergence within 1 iterations"):
            blahut_arimoto(bac_channel(0.9, 0.7), max_iters=1)

    @pytest.mark.parametrize("order", [[0, 1], [1, 0]])
    def test_two_input_vertex_that_certifies_is_returned(self, order):
        # with a tol below rounding, the Newton point lies beyond the simplex on rows
        # that differ by 5e-17; the vertex it points to, with a mass of exactly 0,
        # is where the bracket certifies
        P = np.array([[1e-17, 1.0], [6e-17, 1.0 - 6e-17]])[order]
        cap, r = blahut_arimoto(ChannelSpec(P), tol=1e-18, max_iters=2)
        assert sorted(r.tolist()) == [0.0, 1.0] and cap == 0.0

    @pytest.mark.parametrize("order", [[0, 1], [1, 0]])
    def test_two_input_vertex_with_an_empty_column_is_not_tried(self, order):
        # as above, but the vertex the Newton point aims at has no mass on output 2,
        # whose log2 q would fail; the search goes on inside instead
        P = np.array([[1e-17, 1.0, 0.0], [6e-17, 1.0 - 6e-17, 1e-20]])[order]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="no convergence within 50 iterations"):
                blahut_arimoto(ChannelSpec(P), tol=1e-18, max_iters=50)

    def test_two_input_point_that_certifies_is_returned(self):
        # near the optimum the Newton step's rise in I is below one ulp, and its
        # point is returned because its own bracket certifies
        P = [[0.5882068026622195, 0.4117931973377805], [0.9998136202227313, 0.00018637977726865262]]
        cap, r = blahut_arimoto(ChannelSpec(P), max_iters=5)
        i_lower, i_upper = _bracket(ChannelSpec(P), r)
        assert i_upper - i_lower < 1e-10
        assert cap == pytest.approx(i_lower, abs=1e-12)

    def test_two_input_newton_step_needs_curvature(self):
        # rows 1 subnormal ulp apart: each curvature term underflows to 0, so no Newton
        # step is taken and no vertex is tried, while rounding keeps the bracket open
        # at tol = 5e-324
        P = [[10 * 5e-324, 1.0], [11 * 5e-324, 1.0]]
        with pytest.raises(ConvergenceError, match="no convergence within 3 iterations"):
            blahut_arimoto(ChannelSpec(P), tol=5e-324, max_iters=3)

    @pytest.mark.parametrize(
        "rows",
        [[[5e-324, 0.7, 0.3], [0.0, 0.2, 0.8]],
         [[5e-324, 0.7, 0.3], [0.0, 0.2, 0.8], [0.0, 0.5, 0.5]]],
        ids=["2-inputs", "3-inputs"],
    )
    def test_column_that_underflows_at_the_uniform_start_is_dropped(self, rows):
        # half (or a third) of 5e-324 rounds to 0, so column 0 has no mass at the
        # uniform start; dropped, it takes under 1e-320 bits with it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cap, r = blahut_arimoto(ChannelSpec(rows))
        rest = ChannelSpec(np.array(rows)[:, 1:])
        i_lower, i_upper = _bracket(rest, r)
        assert i_upper - i_lower < 1e-10
        assert cap == pytest.approx(i_lower, abs=1e-12)
        assert cap == pytest.approx(blahut_arimoto(rest)[0], abs=2e-10)  # both within tol of C

    def test_binary_channels_certify_within_twenty_steps(self):
        # a deterministic grid of accuracies in (0.5, 1), down to 1e-6 above chance
        grid = sorted({*np.linspace(0.5, 1.0, 33)[1:-1], 0.5 + 1e-6, 0.5 + 1e-3, 0.999, 1.0 - 1e-6})
        for p0 in grid:
            for p1 in grid:
                blahut_arimoto(bac_channel(p0, p1), max_iters=20)

    # float.hex of (capacity, optimal input), pinned bit for bit: a sum taken in another
    # order or from another start shows here.  Each case ends on its own path
    TWO_INPUT_BITS = {
        "interior point certifies": (
            [[0.9, 0.1], [0.3, 0.7]], {},
            "0x1.2fcabbac11894p-2", ("0x1.0e6640370a8f0p-1", "0x1.e3337f91eae20p-2"),
        ),
        # three terms per sum, so their order shows; each row's negative entropy, a sum()
        # of three terms, is the same with and without Python 3.12's compensated sum()
        "three columns": (
            [[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]], {},
            "0x1.54e03e705cd4dp-2", ("0x1.f517ebca93c84p-2", "0x1.05740a1ab61bep-1"),
        ),
        # each curvature term underflows to 0, so the second point is the midpoint of
        # [0.5, 1 - 1/e], where the bracket certifies
        "midpoint on zero curvature": (
            [[9e-323, 1.0], [1.04e-322, 1.0]], {"tol": 1e-323},
            "0x0.0p+0", ("0x1.bc5ab1b16779cp-2", "0x1.21d2a7274c432p-1"),
        ),
        "vertex certifies": (
            [[1e-17, 1.0], [6e-17, 1.0 - 6e-17]], {"tol": 1e-18, "max_iters": 2},
            "0x0.0p+0", ("0x1.0000000000000p+0", "0x0.0p+0"),
        ),
        "all-zero column dropped": (
            [[0.0, 0.7, 0.3], [0.0, 0.2, 0.8]], {},
            "0x1.87a7dc6e769f4p-3", ("0x1.f5beaf611475cp-2", "0x1.0520a84f75c52p-1"),
        ),
    }

    @pytest.mark.parametrize("case", list(TWO_INPUT_BITS))
    def test_two_input_bits(self, case):
        P, kwargs, cap_hex, r_hex = self.TWO_INPUT_BITS[case]
        cap, r = blahut_arimoto(ChannelSpec(P), **kwargs)
        assert (cap.hex(), tuple(v.hex() for v in r.tolist())) == (cap_hex, r_hex)

    def test_zero_curvature_takes_the_midpoint(self):
        P, kwargs, _, _ = self.TWO_INPUT_BITS["midpoint on zero curvature"]
        _, r = blahut_arimoto(ChannelSpec(P), **kwargs)
        assert r[1] == 0.5 * (0.5 + (1.0 - math.exp(-1.0)))

    @pytest.mark.parametrize("n", [2, 3])
    def test_permutation_channel_carries_log2_n_bits(self, n):
        P = np.eye(n)[np.roll(np.arange(n), 1)]
        assert blahut_arimoto(ChannelSpec(P))[0] == pytest.approx(math.log2(n), abs=1e-12)


def _relation_channels(alpha, count, seed=31):
    """Dirichlet(alpha) channels with 2 to 8 rows and columns."""
    rng = np.random.default_rng(seed)
    return [
        rng.dirichlet(np.full(n, alpha), size=m)
        for m, n in rng.integers(2, 9, size=(count, 2)).tolist()
    ]


def _sole_input_channels(count, seed=37):
    """3-6 x 3-6 Dirichlet(1) channels in which one output is reached by one input
    alone, with P from 1e-6 to 1e-1: the input whose optimal mass can underflow."""
    rng = np.random.default_rng(seed)
    channels = []
    for m, n in rng.integers(3, 7, size=(count, 2)).tolist():
        P = rng.dirichlet(np.ones(n), size=m)
        y = rng.integers(n)
        P[:, y] = 0.0
        P[rng.integers(m), y] = 10.0 ** rng.uniform(-6, -1)
        channels.append(P / P.sum(axis=1, keepdims=True))
    return channels


class TestCapacityRelations:
    """Relations every capacity obeys, each within 2 tol, checked with no reference solver.

    A relation that fails is a solver defect, not a tolerance to widen.
    """

    TOL = 1e-10

    @classmethod
    def capacity(cls, P, **kwargs):
        return blahut_arimoto(ChannelSpec(P), tol=cls.TOL, **kwargs)[0]

    @pytest.mark.parametrize("alpha", [0.2, 1.0, 3.0])
    def test_relations_hold(self, alpha):
        rng = np.random.default_rng(int(alpha * 10))
        slack = 2 * self.TOL
        for P in _relation_channels(alpha, 67):
            m, n = P.shape
            cap = self.capacity(P)
            # relabelling inputs or outputs
            permuted = P[rng.permutation(m)][:, rng.permutation(n)]
            assert self.capacity(permuted) == pytest.approx(cap, abs=slack)
            # a second copy of an input adds no way to signal
            duplicated = np.vstack([P, P[rng.integers(m)]])
            assert self.capacity(duplicated) == pytest.approx(cap, abs=slack)
            # an output split into two proportional outputs tells nothing more
            j, w = rng.integers(n), rng.uniform(0.1, 0.9)
            split = np.hstack([P, (1.0 - w) * P[:, [j]]])
            split[:, j] *= w
            assert self.capacity(split) == pytest.approx(cap, abs=slack)
            # processing the output can only lose information
            garbling = rng.dirichlet(np.ones(rng.integers(2, 9)), size=n)
            assert self.capacity(P @ garbling) <= cap + slack
            assert cap <= math.log2(min(m, n)) + slack

    def test_sole_input_permutation_fails_alike(self):
        # the permuted channel must raise ConvergenceError exactly when the original
        # does; the small budget keeps the channels that fail cheap
        rng = np.random.default_rng(41)
        outcomes = []
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for P in _sole_input_channels(40):
                m, n = P.shape
                permuted = P[rng.permutation(m)][:, rng.permutation(n)]
                caps = []
                for channel in (P, permuted):
                    try:
                        caps.append(self.capacity(channel, max_iters=300))
                    except ConvergenceError:
                        caps.append(None)
                assert (caps[0] is None) == (caps[1] is None)
                if caps[0] is not None:
                    assert caps[1] == pytest.approx(caps[0], abs=2 * self.TOL)
                outcomes.append(caps[0] is None)
        assert any(outcomes) and not all(outcomes)


class TestQscCapacity:
    def test_tagged_values(self):
        assert qsc_capacity(2, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert qsc_capacity(4, 0.25) == pytest.approx(0.0, abs=1e-15)
        got = qsc_capacity(4, 0.7)
        assert got == pytest.approx(0.6432203505529605, abs=1e-15)  # frozen oracle
        assert got == pytest.approx(0.643221, abs=1e-6)

    def test_against_blahut_arimoto_grid(self):
        for n in (2, 3, 5, 8):
            for p in (1.0 / n + 0.05, 0.6, 0.9, 0.99):
                if p >= 1.0:
                    continue
                oracle, _ = blahut_arimoto(qsc_channel(n, p))
                assert qsc_capacity(n, p) == pytest.approx(oracle, abs=1e-6)

    def test_strictly_increasing_above_chance(self):
        ps = np.linspace(0.26, 1.0, 12)
        caps = [qsc_capacity(4, p) for p in ps]
        assert all(a < b for a, b in zip(caps, caps[1:]))
        assert qsc_capacity(4, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_below_chance_flagged(self):
        with pytest.warns(RuntimeWarning):
            value = qsc_capacity(4, 0.1)
        # still evaluated: uniform-input mutual information, not a capacity
        assert math.isfinite(value)

    def test_exactly_zero_at_chance(self):
        # log2(n) + (1/n)log2(1/n) + ... rounds a few ulps below 0 for n = 3, 6, 13, 19
        for n in range(2, 21):
            assert qsc_capacity(n, 1.0 / n) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            qsc_capacity(1, 0.5)
        with pytest.raises(ValueError):
            qsc_capacity(4, 1.2)


class TestBacOptimalInput:
    def test_symmetric_case(self):
        assert bac_optimal_input(0.9, 0.9) == pytest.approx(0.5, abs=1e-15)
        assert bac_exponent(0.9, 0.9) == pytest.approx(0.0, abs=1e-15)

    def test_known_value(self):
        assert bac_optimal_input(0.9, 0.8) == pytest.approx(
            0.48244453886413935, abs=1e-12  # frozen oracle
        )

    def test_local_maximizer(self):
        # perturbing alpha* must not increase the information
        ch = bac_channel(0.9, 0.8)
        a = bac_optimal_input(0.9, 0.8)
        best = mutual_information([1 - a, a], ch)
        for delta in (-1e-2, -1e-3, 1e-3, 1e-2):
            other = min(max(a + delta, 0.0), 1.0)
            assert mutual_information([1 - other, other], ch) <= best + 1e-9

    def test_orientation_when_first_input_is_weaker(self):
        # alpha* is the mass on the lower-accuracy input regardless of
        # argument order; the iterative oracle's distribution pins this down
        a = bac_optimal_input(0.8, 0.9)
        assert a == bac_optimal_input(0.9, 0.8)
        _, dist = blahut_arimoto(bac_channel(0.8, 0.9))
        assert dist[0] == pytest.approx(a, abs=1e-5)  # input 0 is the weaker one
        got = mutual_information([a, 1 - a], bac_channel(0.8, 0.9))
        assert got == pytest.approx(bac_capacity(0.8, 0.9), abs=1e-12)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            bac_optimal_input(0.6, 0.4)


class TestBacCapacity:
    def test_symmetric_reduction_exact(self):
        # K = 0 collapses the closed form to 1 - H_b(p), bit for bit
        for p in (0.6, 0.75, 0.9, 0.99):
            assert bac_capacity(p, p) == 1.0 - binary_entropy(p)

    def test_known_value_via_oracle(self):
        got = bac_capacity(0.9, 0.8)
        assert got == pytest.approx(0.3977543465685295, abs=1e-13)  # frozen oracle
        oracle, _ = blahut_arimoto(bac_channel(0.9, 0.8))
        assert got == pytest.approx(oracle, abs=1e-9)

    def test_swap_invariance(self):
        assert bac_capacity(0.9, 0.8) == bac_capacity(0.8, 0.9)

    def test_singular_returns_zero_with_warning(self):
        with pytest.warns(RuntimeWarning):
            assert bac_capacity(0.7, 0.3) == 0.0

    def test_probability_domain(self):
        with pytest.raises(ValueError):
            bac_capacity(0.0, 0.5)
        with pytest.raises(ValueError):
            bac_capacity(0.5, 1.1)

    def test_random_sweep_against_blahut_arimoto(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            p0, p1 = rng.uniform(0.5001, 0.999, size=2)
            oracle, _ = blahut_arimoto(bac_channel(p0, p1))
            assert bac_capacity(p0, p1) == pytest.approx(oracle, abs=1e-6)


class TestZChannelCapacity:
    def test_boundaries(self):
        assert z_channel_capacity(0.0) == 1.0
        assert z_channel_capacity(1.0) == 0.0

    @pytest.mark.parametrize("bad", [-1e-12, 1.0 + 1e-12, float("nan")])
    def test_p_flip_range_checked(self, bad):
        with pytest.raises(ValueError, match=r"p_flip must lie in \[0, 1\]"):
            z_channel_capacity(bad)

    def test_half_flip(self):
        got = z_channel_capacity(0.5)
        assert got == pytest.approx(math.log2(1.25), abs=1e-15)
        assert got == pytest.approx(0.321928, abs=1e-6)

    def test_against_blahut_arimoto(self):
        # at 0.999 and 1 - 1e-6 the optimal mass on the flipping input lies 4.9e-5
        # and 2.6e-8 above 1/e, the end of the two-input search interval
        for p in (0.1, 0.3, 0.5, 0.8, 0.95, 0.999, 1.0 - 1e-6):
            oracle, _ = blahut_arimoto(z_channel(p))
            assert z_channel_capacity(p) == pytest.approx(oracle, abs=1e-8)


class TestBitsBreakdown:
    def test_total_is_exact_float_sum(self):
        b = BitsBreakdown(0.8793, 0.4226)
        assert b.total_bits == 0.8793 + 0.4226  # bitwise, not approx
        assert f"{b.total_bits:.6f}" == "1.301900"

    def test_nan_rejected(self):
        for bits in ((float("nan"), 0.0), (0.0, float("nan"))):
            with pytest.raises(ValueError, match="bit counts must be nonnegative"):
                BitsBreakdown(*bits)


class TestHierarchyBound:
    def test_worked_example(self):
        # 2 classes at P=0.9; class 0 split in two at P=0.85 with 300+300
        # samples; class 1 unsplit with 400
        h = LabelHierarchy((2, 1))
        params = HierarchyBitsParams(h, 0.9, (0.85, 1.0), ((300, 300), (400,)))
        got = hierarchy_bits_bound(params)
        assert got.class_bits == pytest.approx(0.5310044064107189, abs=1e-15)
        assert got.subclass_bits == pytest.approx(0.23409581717015973, abs=1e-15)
        assert got.total_bits == pytest.approx(0.7651002235808786, abs=1e-15)
        # dual route: weighted closed forms assembled inline
        manual = qsc_capacity(2, 0.9) * 0 + (600 / 1000) * qsc_capacity(2, 0.85)
        assert got.subclass_bits == pytest.approx(manual, abs=1e-15)
        assert got.class_bits == pytest.approx(qsc_capacity(2, 0.9), abs=1e-15)

    def test_degenerate_hierarchy_has_no_subclass_bits(self):
        h = LabelHierarchy((1, 1))
        got = hierarchy_bits_bound(HierarchyBitsParams(h, 0.9, (1.0, 1.0), ((5,), (5,))))
        assert got.subclass_bits == 0.0
        assert got.total_bits == got.class_bits

    def test_zero_capacity_point(self):
        h = LabelHierarchy((2, 2))
        got = hierarchy_bits_bound(
            HierarchyBitsParams(h, 0.5, (0.5, 0.5), ((4, 4), (4, 4)))
        )
        assert got.total_bits == pytest.approx(0.0, abs=1e-12)

    def test_chance_level_teacher(self):
        h = LabelHierarchy((3, 3))
        got = hierarchy_bits_bound(
            HierarchyBitsParams(h, 0.9, (1 / 3, 1 / 3), ((4, 4, 4), (4, 4, 4)))
        )
        assert got.subclass_bits == 0.0
        assert got.total_bits == got.class_bits

    def test_zero_sample_count_rejected(self):
        h = LabelHierarchy((2, 1))
        with pytest.raises(ValueError):
            HierarchyBitsParams(h, 0.9, (0.85, 1.0), ((0, 0), (0,)))

    @pytest.mark.parametrize("p_ci", [(0.85,), (0.85, 1.0, 1.0)], ids=["short", "long"])
    def test_p_ci_length_checked(self, p_ci):
        with pytest.raises(ValueError, match="p_ci needs one entry per class"):
            HierarchyBitsParams(LabelHierarchy((2, 1)), 0.9, p_ci, ((300, 300), (400,)))


class TestDetectionBound:
    def test_worked_example(self):
        params = DetectionParams(0.9, 0.9, 2, 0.85, 2162, 990)
        got = detection_bits_bound(params)
        # frozen oracle values, cross-checked against blahut_arimoto
        assert got.class_bits == pytest.approx(0.5310044064107189, abs=1e-15)
        assert got.subclass_bits == pytest.approx(0.12254381292219656, abs=1e-15)
        assert got.total_bits == pytest.approx(0.6535482193329154, abs=1e-15)
        # dual route inline
        manual = bac_capacity(0.9, 0.9) + (990 / 3152) * qsc_capacity(2, 0.85)
        assert got.total_bits == pytest.approx(manual, abs=1e-15)

    def test_no_alternative_samples(self):
        got = detection_bits_bound(DetectionParams(0.9, 0.9, 2, 0.85, 100, 0))
        assert got.subclass_bits == 0.0

    def test_single_subclass_alternative(self):
        got = detection_bits_bound(DetectionParams(0.9, 0.9, 1, 1.0, 50, 50))
        assert got.subclass_bits == 0.0

    def test_zero_counts_rejected(self):
        with pytest.raises(ValueError):
            DetectionParams(0.9, 0.9, 2, 0.85, 0, 0)

    @pytest.mark.parametrize("n_s", [0, -2])
    def test_n_s_checked(self, n_s):
        with pytest.raises(ValueError, match="n_s must be at least 1"):
            DetectionParams(0.9, 0.9, n_s, 0.85, 2162, 990)

    @pytest.mark.parametrize("p_s", [None, 0.0, 1.5, float("nan")])
    def test_p_s_checked_when_the_alternative_is_split(self, p_s):
        with pytest.raises(ValueError, match=r"^p_s must lie in \(0, 1\]$"):
            DetectionParams(0.9, 0.8, 2, p_s, 100, 50)

    @pytest.mark.parametrize("n_s", [2.0, np.int64(2)], ids=["float", "int64"])
    def test_whole_n_s_stored_as_int(self, n_s):
        params = DetectionParams(0.9, 0.9, n_s, 0.85, 2162, 990)
        assert params.n_s == 2 and type(params.n_s) is int
        ints = DetectionParams(0.9, 0.9, 2, 0.85, 2162, 990)
        assert detection_bits_bound(params) == detection_bits_bound(ints)


class TestSampleCounts:
    """The one count rule the two bounds and label_bits_report share: whole,
    nonnegative counts with a positive total; NaN, infinities and fractions fail."""

    BAD = [float("nan"), float("inf"), -float("inf"), 300.9, -1]
    IDS = ["nan", "inf", "-inf", "fraction", "negative"]
    MESSAGE = "counts must be whole nonnegative numbers"

    @pytest.mark.parametrize("bad", BAD, ids=IDS)
    def test_hierarchy_params(self, bad):
        with pytest.raises(ValueError, match=self.MESSAGE):
            HierarchyBitsParams(LabelHierarchy((2, 1)), 0.9, (0.85, 1.0), ((300, bad), (400,)))

    @pytest.mark.parametrize("bad", BAD, ids=IDS)
    @pytest.mark.parametrize("which", ["n_h0", "n_h1"])
    def test_detection_params(self, which, bad):
        counts = {"n_h0": 2162, "n_h1": 990, which: bad}
        with pytest.raises(ValueError, match=self.MESSAGE):
            DetectionParams(0.9, 0.9, 2, 0.85, **counts)

    @pytest.mark.parametrize("bad", BAD, ids=IDS)
    @pytest.mark.parametrize("task", ["SL22", "SL21"], ids=["hierarchy", "detection"])
    def test_label_bits_report(self, task, bad):
        h = build_task_preset(task)  # class 0 is split on both routes
        subs = [[[40, 10], [10, 40]] if n > 1 else None for n in h.subclasses_per_class]
        counts = ((50, bad),) + tuple((50,) * n for n in h.subclasses_per_class[1:])
        with pytest.raises(ValueError, match=self.MESSAGE):
            label_bits_report([[90, 10], [20, 80]], subs, h, counts)

    @pytest.mark.parametrize("which", ["n_h0", "n_h1"])
    def test_detection_params_name_the_count(self, which):
        counts = {"n_h0": 2162, "n_h1": 990, which: 2162.5}
        with pytest.raises(ValueError) as info:
            DetectionParams(0.9, 0.9, 2, 0.85, **counts)
        assert str(info.value) == f"{which}: {self.MESSAGE}, got 2162.5"

    def test_detection_params_name_the_first_bad_count_or_none(self):
        with pytest.raises(ValueError, match=f"^n_h0: {self.MESSAGE}, got -1$"):
            DetectionParams(0.9, 0.9, 2, 0.85, -1, 0.5)
        with pytest.raises(ValueError, match="^total sample count is zero$"):
            DetectionParams(0.9, 0.9, 2, 0.85, 0, 0.0)

    def test_whole_floats_accepted(self):
        params = DetectionParams(0.9, 0.9, 2, 0.85, 2162.0, np.int64(990))
        assert (params.n_h0, params.n_h1) == (2162, 990)  # stored as sample_counts' ints
        assert type(params.n_h0) is int and type(params.n_h1) is int
        ints = DetectionParams(0.9, 0.9, 2, 0.85, 2162, 990)
        assert detection_bits_bound(params) == detection_bits_bound(ints)
        h = LabelHierarchy((2, 1))
        counts = HierarchyBitsParams(h, 0.9, (0.85, 1.0), ((300.0, np.float64(300)), (400,))).counts
        assert counts == ((300, 300), (400,))
        assert all(type(n) is int for row in counts for n in row)


class TestSolvesPerReport:
    """label_bits_report solves one channel per confusion, through the module's
    blahut_arimoto binding: perfbench's traced sweep counts those calls."""

    @pytest.mark.parametrize("task, solves", [("SL21", 2), ("SL22", 3)])
    def test_one_solve_per_confusion(self, monkeypatch, task, solves):
        channels = []
        real = capacity.blahut_arimoto

        def counted(channel, *args, **kwargs):
            channels.append(channel)
            return real(channel, *args, **kwargs)

        monkeypatch.setattr(capacity, "blahut_arimoto", counted)
        h = build_task_preset(task)
        subs = [[[40, 10], [10, 40]] if n > 1 else None for n in h.subclasses_per_class]
        counts = tuple((50,) * n for n in h.subclasses_per_class)
        label_bits_report([[90, 10], [20, 80]], subs, h, counts)
        assert len(channels) == solves


class TestFittedAccuracy:
    """The accuracies label_bits_report fits from confusion counts: trace / total."""

    def test_hand_value(self):
        h = build_task_preset("SL22")  # two split classes: the hierarchy route fits p_c
        subs = [[[45, 5], [5, 45]]] * 2
        row = label_bits_report([[90, 10], [20, 80]], subs, h, ((50, 50), (50, 50)))
        assert row.fitted["p_c"] == pytest.approx(0.85, abs=1e-15)

    def test_identity(self):
        h = LabelHierarchy((1, 1, 1))
        row = label_bits_report(np.eye(3) * 7, [None] * 3, h, ((7,),) * 3)
        assert row.fitted["p_c"] == 1.0

    def test_uniform_gives_chance(self):
        h = LabelHierarchy((1, 1, 1, 1))
        row = label_bits_report(np.ones((4, 4)), [None] * 4, h, ((4,),) * 4)
        assert row.fitted["p_c"] == pytest.approx(0.25, abs=1e-15)
        assert row.breakdown.class_bits == pytest.approx(0.0, abs=1e-12)

    def test_channel_is_the_row_normalized_confusion(self):
        got = confusion_to_channel([[9, 1], [2, 8]]).transition
        np.testing.assert_allclose(got, [[0.9, 0.1], [0.2, 0.8]], atol=1e-15)

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="every true label needs at least one sample"):
            confusion_to_channel([[0, 0], [1, 1]])

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="confusion counts must be nonnegative"):
            confusion_to_channel([[-10, 110], [20, 80]])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_count_rejected(self, bad):
        with pytest.raises(ValueError, match="confusion counts must be finite"):
            confusion_to_channel([[bad, 10], [20, 80]])

    def test_overflowing_row_rejected(self):
        # each count is finite but the first row sums to inf; numpy's overflow warning
        # would be an error here, so the check is made without one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="confusion counts must sum to a finite number"):
                confusion_to_channel([[1e308, 1e308], [1, 1]])

    @pytest.mark.parametrize(
        "bad, message",
        [([[float("nan"), -1], [20, 80]], "confusion counts must be finite"),
         ([[-float("inf"), 10], [20, 80]], "confusion counts must be finite"),
         ([[float("inf"), 10], [20, 80]], "confusion counts must be finite"),
         ([[1e308, 1e308], [-1, 80]], "confusion counts must be nonnegative"),
         ([[0, 0], [float("nan"), 80]], "confusion counts must be finite"),
         ([[0, 0], [1e308, 1e308]], "confusion counts must sum to a finite number in every row"),
         ([[0, 0], [-0.0, 80]], "every true label needs at least one sample")],
        ids=["nan and negative", "-inf", "+inf", "overflow and negative", "zero row and nan",
             "zero row and overflow", "zero row and -0"],
    )
    def test_first_message_of_a_mixed_bad_confusion(self, bad, message):
        # a confusion that fails the two-reduction test is checked in the order of the
        # messages; each gets its first, unwarned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                confusion_to_channel(bad)
        assert str(info.value) == message

    def test_cells_near_the_overflow_bound(self):
        # cells at and past half of DBL_MAX / columns take the cell-by-cell checks; rows
        # that still sum to a finite number build the same channel
        half = np.finfo(float).max / 2
        for c in ([[half / 2, half / 2], [1, 1]], [[half, half], [1, 3]],
                  [[half / 3, half / 3, half / 3], [0, 1, 0]]):
            np.testing.assert_array_equal(confusion_to_channel(c).transition,
                                          np.divide(c, np.sum(c, axis=1, keepdims=True)))

    @pytest.mark.parametrize("bad", [[9, 1], [[[9, 1], [2, 8]]], np.zeros((0, 2))],
                             ids=["1-D", "3-D", "no rows"])
    def test_confusion_must_be_2d(self, bad):
        with pytest.raises(ValueError, match="confusion counts must be a 2-D matrix"):
            confusion_to_channel(bad)

    def test_channel_passes_the_public_checks_unchanged(self):
        # confusion_to_channel builds its channel without ChannelSpec's checks, since its
        # own imply them: the public constructor accepts each one as it is, unclipped
        rng = np.random.default_rng(5)
        confusions = [rng.integers(0, 1000, size=(n, n)) + np.eye(n, dtype=int) for n in (2, 3, 7)]
        confusions += [[[1e300, 1e-300, 5e-324], [0.0, 1.0, 1e307]],
                       [[8e307, 8e307], [1e-320, 0.0]],
                       [[1, 1, 1], [1, 2, 3]],
                       [[0.1, 0.2, 0.7], [1 / 3, 1 / 3, 1 / 3]]]
        for c in confusions:
            ch = confusion_to_channel(c)
            assert type(ch) is ChannelSpec and ch.transition.dtype == np.float64
            np.testing.assert_array_equal(ChannelSpec(ch.transition).transition, ch.transition)


class TestLabelBitsReport:
    def test_detection_route_matches_closed_forms(self):
        h = build_task_preset("SL12")  # class 1 carries the two subclasses
        class_conf = [[90, 10], [20, 80]]
        sub_conf = [[40, 10], [10, 40]]
        row = label_bits_report(class_conf, [None, sub_conf], h, ((100,), (50, 50)), task="SL12")
        expected = detection_bits_bound(DetectionParams(0.9, 0.8, 2, 0.8, 100, 100))
        assert row.breakdown.total_bits == pytest.approx(expected.total_bits, abs=1e-12)
        assert row.has_subclass_column
        assert row.fitted["p_h0"] == pytest.approx(0.9)
        assert row.fitted["p_h1"] == pytest.approx(0.8)
        assert "class_capacity" in row.empirical

    @pytest.mark.parametrize("task", ["SL21", "SL12"])
    def test_detection_route_is_the_builders_row(self, task):
        h = build_task_preset(task)
        alt = h.split_classes[0]
        class_conf = np.array([[90, 10], [30, 70]])
        sub_conf = [[40, 10], [15, 35]]
        subs = [sub_conf if c == alt else None for c in range(2)]
        counts = ((50, 50), (100,)) if alt == 0 else ((100,), (50, 50))
        row = label_bits_report(class_conf, subs, h, counts, task=task)
        diag = confusion_to_channel(class_conf).transition.diagonal()
        params = DetectionParams(
            float(diag[1 - alt]), float(diag[alt]), 2, np.trace(sub_conf) / np.sum(sub_conf), 100, 100
        )
        empirical = {
            "class_capacity": blahut_arimoto(confusion_to_channel(class_conf))[0],
            "subclass_capacity": {alt: blahut_arimoto(confusion_to_channel(sub_conf))[0]},
        }
        per_subclass = [list(c) for c in counts]
        expected = detection_report_row(
            params, task, empirical, {"per_class": [100, 100], "per_subclass": per_subclass}
        )
        assert row == expected

    def test_counts_from_float_confusions(self):
        class_conf = np.array([[90.0, 10.0], [20.0, 80.0]])  # as read from a CSV
        sub_conf = np.array([[40.0, 10.0], [12.0, 38.0]])
        counts = counts_from_confusions(class_conf, [None, sub_conf])
        assert counts == ((100,), (50, 50))
        assert all(type(n) is int for row in counts for n in row)

    def test_counts_from_rate_confusions_rejected(self):
        # rates, not counts: every row sums to 0.5, which int() used to truncate to 0
        class_conf = np.array([[0.45, 0.05], [0.1, 0.4]])
        sub_conf = np.array([[0.2, 0.05], [0.05, 0.2]])
        with pytest.raises(ValueError, match="confusion row sum must be a whole number"):
            counts_from_confusions(class_conf, [sub_conf, None])

    def test_counts_from_an_overflowing_row_rejected_unwarned(self):
        # the first class row sums to inf; numpy's overflow warning would fail this test
        with pytest.raises(ValueError, match="confusion row sum must be a whole number, got .*inf"):
            counts_from_confusions([[1e308, 1e308], [1, 1]], [None, None])

    def test_class_level_route_has_no_subclass_column(self):
        h = build_task_preset("ClassLevel")
        row = label_bits_report([[45, 5], [5, 45]], [None, None], h, ((50,), (50,)), task="ClassLevel")
        assert not row.has_subclass_column
        assert row.breakdown.subclass_bits == 0.0
        assert row.breakdown.class_bits == pytest.approx(bac_capacity(0.9, 0.9), abs=1e-12)

    def test_two_split_classes_use_hierarchy_route(self):
        h = build_task_preset("SL22")
        class_conf = [[90, 10], [20, 80]]
        subs = [[[40, 10], [10, 40]], [[35, 15], [15, 35]]]
        counts = ((50, 50), (50, 50))
        row = label_bits_report(class_conf, subs, h, counts, task="SL22")
        p_c = np.trace(class_conf) / np.sum(class_conf)
        expected = hierarchy_bits_bound(
            HierarchyBitsParams(h, p_c, (0.8, 0.7), counts)
        )
        assert row.breakdown.total_bits == pytest.approx(expected.total_bits, abs=1e-12)
        assert row.fitted["p_c"] == pytest.approx(p_c)

    @pytest.mark.parametrize("class_conf", NEAR_CHANCE_CONFUSIONS)
    def test_near_chance_teacher(self, class_conf):
        # two nearly equal rows: the fixed-point iteration alone raised ConvergenceError here
        h = build_task_preset("ClassLevel")
        counts = tuple((sum(row),) for row in class_conf)
        row = label_bits_report(class_conf, [None, None], h, counts)
        diag = confusion_to_channel(class_conf).transition.diagonal()
        assert row.empirical["class_capacity"] == pytest.approx(bac_capacity(*diag), abs=1e-9)

    @pytest.mark.parametrize(
        "task, counts, sub_conf, expect",
        [
            ("SL22", ((50, 50), (50, 50)), [[0, 0], [10, 40]], "every true label needs at least one sample"),
            ("SL22", ((0, 0), (0, 0)), [[40, 10], [10, 40]], "total sample count is zero"),
            ("SL21", ((0, 0), (0,)), [[40, 10], [10, 40]], "total sample count is zero"),
            ("SL22", ((0, 0), (50, 50)), [[40, 10], [10, 40]], "finite"),
            ("SL21", ((0, 0), (200,)), [[40, 10], [10, 40]], "no alternative"),
            ("SL21", ((50, 50), (0,)), [[40, 10], [10, 40]], "alternative only"),
        ],
    )
    def test_zero_sample_counts(self, task, counts, sub_conf, expect):
        h = build_task_preset(task)
        subs = [sub_conf if n > 1 else None for n in h.subclasses_per_class]

        def report():
            return label_bits_report([[90, 10], [20, 80]], subs, h, counts)

        if expect.startswith(("every", "total")):
            with pytest.raises(ValueError, match=expect):
                report()
            return
        b = report().breakdown
        if expect == "finite":
            assert all(math.isfinite(v) and v >= 0.0 for v in (b.class_bits, b.subclass_bits))
        elif expect == "no alternative":  # SL21 splits class 0, the alternative
            assert b.subclass_bits == 0.0
        else:  # the alternative carries every sample, so its weight is 1
            assert b.subclass_bits == qsc_capacity(2, np.trace(sub_conf) / np.sum(sub_conf))

    DETECTION_FITS = ["p_h0", "p_h1", "n_s", "p_s"]

    @pytest.mark.parametrize(
        "spc, fitted, sub_caps",
        [
            ((1, 1), DETECTION_FITS, None),
            ((2, 1), DETECTION_FITS, [0]),
            ((1, 2), DETECTION_FITS, [1]),
            ((2, 2), ["p_c", "p_ci"], [0, 1]),
            ((1, 1, 1), ["p_c", "p_ci"], []),
        ],
        ids=["ClassLevel", "SL21", "SL12", "SL22", "1-1-1"],
    )
    def test_each_route_emits_its_keys(self, spc, fitted, sub_caps):
        # the detection route omits subclass_capacity with no split class; the hierarchy route always has it
        h = LabelHierarchy(spc)
        class_conf = 80 * np.eye(h.num_classes) + 10
        subs = [70 * np.eye(n) + 10 if n > 1 else None for n in spc]
        row = label_bits_report(class_conf, subs, h, [(50,) * n for n in spc])
        assert list(row.fitted) == fitted
        if sub_caps is None:
            assert list(row.empirical) == ["class_capacity"]
        else:
            assert list(row.empirical) == ["class_capacity", "subclass_capacity"]
            assert list(row.empirical["subclass_capacity"]) == sub_caps

    BAD_CONFUSIONS = {  # class confusion, class 0's subclass confusion, message on both routes
        "negative class count": (
            [[-10, 110], [20, 80]], [[40, 10], [10, 40]], "confusion counts must be nonnegative"
        ),
        "all-zero class row": (
            [[0, 0], [20, 80]], [[40, 10], [10, 40]], "every true label needs at least one sample"
        ),
        # rejected as a count, before row-normalizing makes it a -1e-18 that ChannelSpec
        # would clip to 0
        "tiny negative class cell": (
            [[-1e-16, 100], [20, 80]], [[40, 10], [10, 40]], "confusion counts must be nonnegative"
        ),
        "wrong subclass shape": (
            [[90, 10], [20, 80]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]], "class 0 subclass confusion must be 2x2"
        ),
        "negative subclass count": (
            [[90, 10], [20, 80]], [[-10, 60], [10, 40]], "confusion counts must be nonnegative"
        ),
        "all-zero subclass row": (
            [[90, 10], [20, 80]], [[0, 0], [10, 40]], "every true label needs at least one sample"
        ),
        "NaN class count": (
            [[float("nan"), 10], [20, 80]], [[40, 10], [10, 40]], "confusion counts must be finite"
        ),
        "infinite subclass count": (
            [[90, 10], [20, 80]], [[float("inf"), 10], [10, 40]], "confusion counts must be finite"
        ),
        "overflowing class row": (
            [[1e308, 1e308], [20, 80]], [[40, 10], [10, 40]],
            "confusion counts must sum to a finite number in every row",
        ),
    }

    @pytest.mark.parametrize("case", list(BAD_CONFUSIONS))
    @pytest.mark.parametrize("task", ["SL22", "SL21"], ids=["hierarchy", "detection"])
    def test_bad_confusion_message(self, task, case):
        class_conf, sub_conf, expect = self.BAD_CONFUSIONS[case]
        h = build_task_preset(task)  # class 0 is split on both routes, class 1 only on SL22
        subs = [sub_conf, [[45, 5], [5, 45]] if task == "SL22" else None]
        counts = tuple((50,) * n for n in h.subclasses_per_class)
        with pytest.raises(ValueError) as info:
            label_bits_report(class_conf, subs, h, counts)
        assert str(info.value) == expect

    def test_shape_mismatch_rejected(self):
        h = build_task_preset("SL12")
        with pytest.raises(ValueError):
            label_bits_report([[90, 10]], [None, [[1, 0], [0, 1]]], h, ((1,), (1, 1)))
        # one class row of counts too many, or too few, on either route
        for task in ("SL21", "SL22"):
            h = build_task_preset(task)
            subs = [[[45, 5], [5, 45]] if n > 1 else None for n in h.subclasses_per_class]
            counts = tuple((50,) * n for n in h.subclasses_per_class)
            for bad in (counts + ((7, 7),), counts[:-1]):
                with pytest.raises(ValueError, match="counts shape does not match the hierarchy"):
                    label_bits_report([[90, 10], [20, 80]], subs, h, bad)

    @pytest.mark.parametrize("task", ["SL22", "SL21"], ids=["hierarchy", "detection"])
    def test_one_subclass_confusion_per_class(self, task):
        h = build_task_preset(task)
        counts = tuple((50,) * n for n in h.subclasses_per_class)
        for subs in ([[[40, 10], [10, 40]]], [[[40, 10], [10, 40]], None, None]):
            with pytest.raises(ValueError, match=r"need one subclass confusion \(or None\) per class"):
                label_bits_report([[90, 10], [20, 80]], subs, h, counts)

    EDGE_CONFUSIONS = {
        "perfect": [[60, 0], [0, 60]],
        "chance": [[30, 30], [30, 30]],
        "wrong": [[0, 60], [60, 0]],
    }
    # the ValueError an always-wrong class or subclass confusion raises, per bound
    EDGE_REJECTS = {
        "SL22": ("p_c must lie", "subclass accuracy for class 0 must lie"),
        "SL21": ("hypothesis accuracies must lie", "p_s must lie"),
    }

    @pytest.mark.parametrize("sub_acc", ["perfect", "chance", "wrong"])
    @pytest.mark.parametrize("class_acc", ["perfect", "chance", "wrong"])
    @pytest.mark.parametrize("task", ["SL22", "SL21"])
    def test_edge_accuracies(self, task, class_acc, sub_acc):
        h = build_task_preset(task)
        counts = {"SL22": ((50, 50), (100, 100)), "SL21": ((50, 50), (200,))}[task]
        subs = [self.EDGE_CONFUSIONS[sub_acc] if n > 1 else None for n in h.subclasses_per_class]

        def report():
            return label_bits_report(self.EDGE_CONFUSIONS[class_acc], subs, h, counts)

        class_reject, sub_reject = self.EDGE_REJECTS[task]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if "wrong" in (class_acc, sub_acc):
                with pytest.raises(ValueError, match=class_reject if class_acc == "wrong" else sub_reject):
                    report()
                return
            if task == "SL21" and class_acc == "chance":
                with pytest.warns(RuntimeWarning, match=r"p_h0 \+ p_h1 = 1"):
                    row = report()
            else:
                row = report()
        total = sum(map(sum, counts))
        max_sub_bits = sum(sum(c) / total * math.log2(len(c)) for c in counts if len(c) > 1)
        b = row.breakdown
        assert b.class_bits == pytest.approx(1.0 if class_acc == "perfect" else 0.0, abs=1e-12)
        assert b.subclass_bits == pytest.approx(max_sub_bits if sub_acc == "perfect" else 0.0, abs=1e-12)
        empirical = [row.empirical["class_capacity"], *row.empirical["subclass_capacity"].values()]
        levels = [class_acc] + [sub_acc] * (len(empirical) - 1)
        for cap, level in zip(empirical, levels):
            assert cap == pytest.approx(1.0 if level == "perfect" else 0.0, abs=1e-12)


class TestBitsWriters:
    def _rows(self):
        h = build_task_preset("ClassLevel")
        no_sub = label_bits_report([[45, 5], [5, 45]], [None, None], h, ((50,), (50,)), task="ClassLevel")
        h2 = build_task_preset("SL12")
        with_sub = label_bits_report(
            [[90, 10], [20, 80]], [None, [[40, 10], [10, 40]]], h2, ((100,), (50, 50)), task="SL12"
        )
        return [no_sub, with_sub]

    def test_csv_blank_cell_for_missing_subclass(self, tmp_path):
        p = tmp_path / "bits.csv"
        write_bits_csv(self._rows(), p)
        with p.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["task", "class_bits", "subclass_bits", "total_bits"]
        assert rows[1][0] == "ClassLevel" and rows[1][2] == ""
        assert rows[2][0] == "SL12" and rows[2][2] != ""
        # six decimal places everywhere
        assert all("." in cell and len(cell.split(".")[1]) == 6 for cell in rows[1][1::2])

    def test_json_carries_fits_and_null_subclass(self, tmp_path):
        p = tmp_path / "bits.json"
        write_bits_json(self._rows(), p)
        payload = json.loads(p.read_text())
        assert payload[0]["subclass_bits"] is None
        assert payload[1]["subclass_bits"] is not None
        assert "fitted" in payload[1] and "empirical" in payload[1]
        assert payload[1]["total_bits"] == payload[1]["class_bits"] + payload[1]["subclass_bits"]
