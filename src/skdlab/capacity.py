"""Channel-capacity machinery for counting transferable label bits.

A trained model's label predictions are viewed as a discrete memoryless
channel from true labels to predicted labels.  The capacity of that channel,
in bits per sample, bounds how much label information the model can convey.
Everything in this module works in bits (log base 2) and uses the standard
0 * log 0 = 0 convention.

Three closed-form channel families cover the cases of interest:

* Q-ary symmetric: n inputs, correct with probability p, errors uniform
  over the other n - 1 symbols.  Capacity
  log2(n) + p log2(p) + (1 - p) log2((1 - p) / (n - 1)).
* Binary asymmetric: two inputs with per-input accuracies p_h0, p_h1.
  With K = (H_b(p_h1) - H_b(p_h0)) / (p_h0 + p_h1 - 1), the optimal mass on
  the second input is alpha* = (1 / (2^K + 1) - (1 - p_h0)) / (p_h0 + p_h1 - 1)
  and the capacity is log2(1 + 2^K) - p_h0 * K - H_b(p_h0).
* Z-channel: one input noiseless, the other flipping with probability p.
  Capacity log2(1 + (1 - p) * p^(p / (1 - p))).

blahut_arimoto computes the capacity of any explicit channel matrix.  It is
implemented independently of all the closed forms and serves as the
numerical oracle they are checked against.  It maximizes the mutual
information I(r) over input distributions r from a uniform start:

* The result is certified, not trusted: for every r the capacity C lies in
  [I(r), max_x D_x], where D_x is the relative entropy from row x to the
  output marginal, and the solver stops only when that bracket is
  narrower than tol.
* A two-input channel, such as the binary class and subclass confusions
  the label-bit budgets are built from, is solved by a bracketed Newton
  search on one mass, on Python floats.  Its optimal input puts at least
  1/e on each input (Majani and Rumsey, "Two results on binary-input
  discrete memoryless channels", ISIT 1991), so the search stays inside
  [1/e, 1 - 1/e], where no output empties and no step leaves the simplex.
* With three or more inputs, numpy runs the loop.  Each iteration tries a
  Newton step on I over the simplex, restricted to the active inputs.  It
  keeps the step if it raises I, and returns at once if the step's own
  bracket already certifies, which near the optimum is often the case
  while rounding hides the rise in I.  Otherwise it takes the classic
  Blahut-Arimoto step, which never lowers I.  Newton converges in a few
  steps where the classic step alone crawls, for example where two rows
  nearly coincide.
* An input whose mass reaches 0 leaves the active set.  It comes back when
  its D_x exceeds the current I, because by the KKT conditions an input
  with no mass at the optimum has D_x <= C.
* An input that alone reaches some output keeps mass at the optimum, since
  its D_x grows without bound as that mass vanishes, but the mass can be
  tiny.  A Newton step cut where such an input reaches 0 would empty the
  output and is refused, and the next steps are often cut the same way, so
  after such a refusal the solver takes NEWTON_PAUSE Blahut-Arimoto steps
  before it tries Newton again.  An input with no mass and D_x above I ends
  the pause early, because only a Newton step can give it mass back.

Two bounds combine these capacities into label bits per training sample:

* hierarchy_bits_bound: class-level Q-ary capacity plus a sample-weighted
  average of per-class subclass Q-ary capacities.
* detection_bits_bound: binary-detection form; class-level binary-asymmetric
  capacity plus the alternative hypothesis's relative frequency times its
  subclass Q-ary capacity.
"""
from __future__ import annotations

import csv
import json
import sys
import warnings
from dataclasses import dataclass
from math import exp, log, log2
from pathlib import Path

import numpy as np

from .hierarchy import LabelHierarchy, whole_number

ROW_SUM_TOL = 1e-9
LN2 = log(2.0)
# a binary-input channel's optimal input puts at least 1/e on each input
EXP_M1 = exp(-1.0)
# Blahut-Arimoto steps taken after a Newton step is refused for emptying an
# output; the 7x13 channel of the tests then takes 93 Newton steps, not 1553
NEWTON_PAUSE = 16
# a confusion whose cells all lie below this over its column count sums each row to
# under half of DBL_MAX, so no rounding in the row sums reaches inf
_HALF_DBL_MAX = sys.float_info.max / 2
_DETECTION_HIERARCHY = LabelHierarchy((1, 1))  # h0 and h1, whose rule checks n_h0 and n_h1


class ConvergenceError(RuntimeError):
    """Iterative capacity computation failed to reach tolerance."""


def binary_entropy(x: float) -> float:
    """H_b(x) = -x log2 x - (1-x) log2 (1-x), in bits."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("binary_entropy argument must lie in [0, 1]")
    h = 0.0
    if x > 0.0:
        h -= x * np.log2(x)
    if x < 1.0:
        h -= (1.0 - x) * np.log2(1.0 - x)
    return float(h)


@dataclass(frozen=True, eq=False)
class ChannelSpec:
    """Discrete memoryless channel: rows = true labels, columns = predictions.

    ChannelSpec(transition) copies the matrix as floats, checks that it is 2-D with
    entries in [0, 1] and rows that sum to 1 within ROW_SUM_TOL, and clips rounding
    residue within 1e-15 of the range.  qsc_channel, bac_channel, z_channel and
    confusion_to_channel build their channels with _trusted instead, without that
    second check: each builds a fresh float matrix whose own parameter or count checks
    already imply it, with no entry to clip.
    """

    transition: np.ndarray

    def __post_init__(self):
        t = np.array(self.transition, dtype=float)  # a private copy: the caller's array may change
        if t.ndim != 2 or t.shape[0] < 1 or t.shape[1] < 1:
            raise ValueError("transition must be a 2-D matrix")
        lo, hi = np.minimum.reduce(t, axis=None), np.maximum.reduce(t, axis=None)
        if not (lo >= -1e-15 and hi <= 1.0 + 1e-15):  # NaN fails both
            raise ValueError("transition entries must lie in [0, 1]")
        rows = np.add.reduce(t, axis=1)
        if not (np.maximum.reduce(rows) - 1.0 <= ROW_SUM_TOL
                and 1.0 - np.minimum.reduce(rows) <= ROW_SUM_TOL):
            raise ValueError("transition rows must sum to 1")
        if lo < 0.0 or hi > 1.0:  # rounding residue within 1e-15 of the range
            t = np.clip(t, 0.0, 1.0)
        object.__setattr__(self, "transition", t)

    @classmethod
    def _trusted(cls, transition: np.ndarray) -> ChannelSpec:
        """A channel on transition as it is, for a builder whose checks imply __post_init__'s."""
        spec = object.__new__(cls)
        object.__setattr__(spec, "transition", transition)
        return spec

    @property
    def input_size(self) -> int:
        return self.transition.shape[0]


def qsc_channel(n: int, p: float) -> ChannelSpec:
    """Q-ary symmetric channel matrix."""
    n = whole_number(n, "alphabet size")
    if n < 2:
        raise ValueError("alphabet size must be at least 2")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    t = np.full((n, n), (1.0 - p) / (n - 1), dtype=float)
    t.flat[:: n + 1] = p  # the diagonal
    return ChannelSpec._trusted(t)


def bac_channel(p_h0: float, p_h1: float) -> ChannelSpec:
    """Binary asymmetric channel with per-input accuracies."""
    _bac_canonical(p_h0, p_h1)  # checks both accuracies
    return ChannelSpec._trusted(np.array([[p_h0, 1.0 - p_h0], [1.0 - p_h1, p_h1]], dtype=float))


def z_channel(p_flip: float) -> ChannelSpec:
    """First input noiseless; second flips to the first with p_flip."""
    if not 0.0 <= p_flip <= 1.0:
        raise ValueError("p_flip must lie in [0, 1]")
    return ChannelSpec._trusted(np.array([[1.0, 0.0], [p_flip, 1.0 - p_flip]], dtype=float))


def mutual_information(input_dist, channel: ChannelSpec) -> float:
    """I(Y; Yhat) in bits for a given input distribution."""
    r = np.asarray(input_dist, dtype=float)
    if r.shape != (channel.input_size,):
        raise ValueError("input distribution length does not match channel")
    if not (np.all(r >= -1e-15) and abs(r.sum() - 1.0) <= ROW_SUM_TOL):  # NaN fails both
        raise ValueError("input distribution must be a probability vector")
    P = channel.transition
    q = r @ P
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.where(P > 0, np.log2(np.where(P > 0, P, 1.0) / np.where(q > 0, q, 1.0)), 0.0)
    per_input = np.sum(np.where(P > 0, P * log_ratio, 0.0), axis=1)
    return float(max(r @ per_input, 0.0))


def blahut_arimoto(
    channel: ChannelSpec, tol: float = 1e-10, max_iters: int = 100_000
) -> tuple[float, np.ndarray]:
    """Capacity and a capacity-achieving input distribution.

    Ascent on I(r) from a uniform input.  Each iteration brackets the
    capacity between I(r) = sum(r * D) and max(D), where D_x is the relative
    entropy between row x and the output marginal q = r P, and stops when
    the bracket is tighter than tol.  The bracket holds for every input
    distribution, so it certifies the result however r was reached.

    D_x is computed as sum_y P log2 P - sum_y P log2 q; the first sum, the
    row's negative entropy (0 log 0 = 0), is computed once per call.  A
    column with no mass at the uniform start is dropped first: it is zero in
    every row, or its mass underflows to 0 and it carries under 1e-320 bits.
    One local helper then evaluates (q, D, I, max D) at a point, or returns
    None where an output has no mass and log2 q would be -inf.  It runs at
    the uniform start, at each Newton point and after each Blahut-Arimoto
    step, and the values of the point kept are carried to the next
    iteration.

    Each iteration first tries a Newton step (see _newton_step).  Its point
    is returned at once if its own bracket is tighter than tol, whether or
    not I rose: near the optimum the rise is often below one ulp of I.
    Otherwise it is kept if it raises I.  A Newton point that empties an
    output is refused, and the next NEWTON_PAUSE iterations skip Newton
    unless an input with no mass has D_x above I(r) (see the module
    docstring).  An iteration that keeps no Newton point takes the
    Blahut-Arimoto step r <- r * 2^D / sum(r * 2^D), which never lowers I
    and keeps zeros at zero; one that empties an output (an input's mass
    underflowed) raises ConvergenceError.

    A two-input channel, such as a binary confusion, takes none of these
    steps: _blahut_arimoto_two_inputs searches its one free mass inside
    [1/e, 1 - 1/e] on Python floats, with the same column drop, bracket,
    stop rule and ConvergenceError.
    """
    if not tol > 0:  # NaN fails too
        raise ValueError("tol must be positive")
    if channel.input_size == 2:
        return _blahut_arimoto_two_inputs(channel.transition, tol, max_iters)
    P = channel.transition
    m = channel.input_size
    r = np.full(m, 1.0 / m)
    q = r @ P
    if not np.logical_and.reduce(q):
        P = P[:, q > 0]
    neg_entropy = np.add.reduce(P * np.log2(P, out=np.zeros_like(P), where=P > 0), axis=1)

    def at(r):
        """(q, D, I, max D) at input r, or None if q has an empty column."""
        q = r @ P
        if not np.logical_and.reduce(q):  # an emptied column would give some D_x = +inf
            return None
        D = neg_entropy - P @ np.log2(q)
        return q, D, float(r @ D), float(np.maximum.reduce(D))

    q, D, i_lower, i_upper = at(r)
    pause = 0  # iterations left that skip the Newton step
    for _ in range(max_iters):
        if i_upper - i_lower < tol:
            return max(i_lower, 0.0), r
        if pause and not (D[r == 0.0] > i_lower).any():
            pause -= 1
        else:
            r_new = _newton_step(P, q, D, r, i_lower)
            if r_new is not None:
                new = at(r_new)
                if new is None:  # refused: the step emptied an output
                    pause = NEWTON_PAUSE
                elif new[3] - new[2] < tol:  # certified, even where rounding hides the rise in I
                    return max(new[2], 0.0), r_new
                elif new[2] > i_lower:
                    r, (q, D, i_lower, i_upper) = r_new, new
                    continue
        r = r * np.exp2(D)
        r = r / r.sum()
        new = at(r)
        if new is None:  # an input's mass underflowed
            raise ConvergenceError("a Blahut-Arimoto step emptied an output column")
        q, D, i_lower, i_upper = new
    raise ConvergenceError(f"no convergence within {max_iters} iterations (gap > {tol})")


def _blahut_arimoto_two_inputs(P, tol, max_iters) -> tuple[float, np.ndarray]:
    """blahut_arimoto for a 2 x n channel: a safeguarded Newton search on one mass.

    With r = (1 - x, x), I(x) is concave with slope D_1 - D_0 and second
    derivative -sum_y (P_0y - P_1y)^2 / (q_y ln 2).  One pass over the
    columns gives D_0, D_1, I and that curvature at a point.  The optimal x
    lies in [1/e, 1 - 1/e] (Majani and Rumsey; see the module docstring),
    the search's first interval [lo, hi].  An iteration that does not
    certify moves lo up to x where the slope is positive, else hi down to
    x, and takes the Newton point if it lies strictly inside (lo, hi), else
    the midpoint, as it does when the curvature underflows to 0.  Inside
    [1/e, 1 - 1/e] every column kept at the uniform start has q > 0, so no
    output empties and no step leaves the simplex.

    A Newton point at or beyond 0 or 1 needs rows that agree to rounding,
    where I is flat; the vertex it points to is returned if its own bracket
    certifies and no output has mass 0 there (its curvature may be inf).
    """
    # a column with no mass at the uniform start (0.5, 0.5) is dropped
    cols = [(a, b) for a, b in zip(*P.tolist()) if 0.5 * a + 0.5 * b > 0.0]
    neg_entropy_0 = sum(a * log2(a) for a, _ in cols if a > 0.0)
    neg_entropy_1 = sum(b * log2(b) for _, b in cols if b > 0.0)

    def at(x):
        """(D_0, D_1, I, curvature) at input (1 - x, x), or None if q has an empty column."""
        s0 = s1 = curvature = 0  # sum()'s start, so each sum keeps its terms, order and bits
        for a, b in cols:
            q = a + x * (b - a)
            if not q:
                return None
            lq = log2(q)
            # |a - b| / q <= e inside [1/e, 1 - 1/e], so no term overflows; all can underflow
            s0, s1, curvature = s0 + a * lq, s1 + b * lq, curvature + (a - b) / q * (a - b)
        d0, d1 = neg_entropy_0 - s0, neg_entropy_1 - s1
        return d0, d1, (1.0 - x) * d0 + x * d1, curvature

    lo, hi, x = EXP_M1, 1.0 - EXP_M1, 0.5
    for _ in range(max_iters):
        d0, d1, i_lower, curvature = at(x)
        if max(d0, d1) - i_lower < tol:
            return max(i_lower, 0.0), np.array([1.0 - x, x])
        if d1 > d0:  # I rises with x
            lo = x
        else:
            hi = x
        # x is now lo or hi, so a curvature of 0 takes the midpoint below
        newton = x + (d1 - d0) * LN2 / curvature if curvature else x
        if not 0.0 < newton < 1.0:
            vertex = float(newton >= 1.0)
            new = at(vertex)
            if new is not None and max(new[0], new[1]) - new[2] < tol:
                return max(new[2], 0.0), np.array([1.0 - vertex, vertex])
        x = newton if lo < newton < hi else 0.5 * (lo + hi)
    raise ConvergenceError(f"no convergence within {max_iters} iterations (gap > {tol})")


def _newton_step(P, q, D, r, i_lower) -> np.ndarray | None:
    """Newton step on I(r) over the simplex, restricted to the active inputs.

    The gradient of I is D_x - 1/ln 2 and its Hessian is
    -(1/ln 2) sum_y P_xy P_x'y / q_y.  The free inputs are those with mass,
    plus the zero-mass inputs with D_x above the lower bound I(r): moving
    mass onto such an input raises I.  Their rows of P, D and r are
    gathered, and the step is scattered back with 0 on every other input.

    The step keeps sum(r) = 1 by moving mass between each free input and the
    last one, whose direction e_x - e_last has curvature
    sum_y (P_x - P_last)_y^2 / (q_y ln 2); the constant in the gradient
    cancels.  Where rows are linearly dependent I is linear along some
    directions and this curvature vanishes; a ridge of 1e-12 of the trace
    makes such a step very long, and the step is then cut where the first
    mass reaches 0, which is the best point on that line.  The system is
    solved by LU, also when two inputs are free and it is 1x1.

    If the full step leaves the simplex, a zero-mass input it would push
    below 0 is dropped from the free set and the step is solved again;
    otherwise the step is cut where the first mass reaches 0, and that input
    is set to exactly 0, leaving the active set.  Returns None when the free
    rows are identical, so no direction changes I, and when an output's mass
    is so small that 1 / q overflows.  A lone free input is the first case:
    its system is 0x0, with trace 0.
    """
    free = np.flatnonzero((r > 0) | (D > i_lower))
    while True:  # each pass that continues drops an input; one left ends at the trace check
        A, g, r_free = P[free], D[free], r[free]
        B = A[:-1] - A[-1]
        H = (B / q) @ B.T
        ridge = 1e-12 * H.trace()
        if ridge == 0.0:  # identical free rows, or one: no direction changes I
            return None
        H.flat[:: len(H) + 1] += ridge
        head = np.linalg.solve(H, (g[:-1] - g[-1]) * np.log(2.0))
        if not np.isfinite(head).all():  # 1 / q overflowed on an output with almost no mass
            return None
        d = np.concatenate((head, -head.sum(keepdims=True)))
        step = r_free + d
        if step.min() >= 0.0:
            break
        shrink = d < 0
        stuck = shrink & (r_free == 0)
        if stuck.any():
            free = free[~stuck]
            continue
        ratios = r_free[shrink] / -d[shrink]
        j = ratios.argmin()
        step = r_free + ratios[j] * d
        step[np.flatnonzero(shrink)[j]] = 0.0
        break
    r_new = np.zeros(len(r))
    r_new[free] = np.maximum(step, 0.0)
    return r_new / r_new.sum()


def qsc_capacity(n: int, p: float) -> float:
    """Closed-form Q-ary symmetric capacity.

    For p below 1/n the expression is still the mutual information at a
    uniform input but no longer the channel capacity; such calls are
    evaluated with a warning.
    """
    n = whole_number(n, "alphabet size")
    if n < 2:
        raise ValueError("alphabet size must be at least 2")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p < 1.0 / n:
        warnings.warn(
            f"qsc_capacity: p={p} is below chance 1/{n}; value is the uniform-input "
            "mutual information, not the capacity",
            RuntimeWarning,
            stacklevel=2,
        )
    value = np.log2(n)
    if p > 0.0:
        value += p * np.log2(p)
    if p < 1.0:
        value += (1.0 - p) * np.log2((1.0 - p) / (n - 1))
    # exactly 0 at chance; rounding there can leave a few ulps below it
    return float(max(value, 0.0))


def _bac_canonical(p_h0: float, p_h1: float) -> tuple[float, float]:
    for v in (p_h0, p_h1):
        if not 0.0 < v <= 1.0:
            raise ValueError("accuracies must lie in (0, 1]")
    # canonical order: p_h1 <= p_h0 (capacity is invariant to relabeling)
    return (p_h0, p_h1) if p_h0 >= p_h1 else (p_h1, p_h0)


def bac_exponent(p_h0: float, p_h1: float) -> float:
    """K = (H_b(p_h1) - H_b(p_h0)) / (p_h0 + p_h1 - 1) after canonicalization."""
    p0, p1 = _bac_canonical(p_h0, p_h1)
    denom = p0 + p1 - 1.0
    if denom == 0.0:
        raise ValueError("singular channel: p_h0 + p_h1 = 1 has zero capacity")
    return (binary_entropy(p1) - binary_entropy(p0)) / denom


def bac_optimal_input(p_h0: float, p_h1: float) -> float:
    """Optimal mass alpha* on the lower-accuracy (alternative) input.

    Raises on the singular line p_h0 + p_h1 = 1, where the output is
    independent of the input and every distribution is trivially optimal.
    """
    k = bac_exponent(p_h0, p_h1)
    p0, p1 = _bac_canonical(p_h0, p_h1)
    return float((1.0 / (np.exp2(k) + 1.0) - (1.0 - p0)) / (p0 + p1 - 1.0))


def bac_capacity(p_h0: float, p_h1: float) -> float:
    """Closed-form binary asymmetric capacity; 0 on the singular line."""
    p0, p1 = _bac_canonical(p_h0, p_h1)
    if p0 + p1 == 1.0:
        warnings.warn(
            "bac_capacity: p_h0 + p_h1 = 1 makes the output independent of the "
            "input; capacity is 0",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    k = bac_exponent(p0, p1)
    value = np.log2(1.0 + np.exp2(k)) - p0 * k - binary_entropy(p0)
    return float(max(value, 0.0))


def z_channel_capacity(p_flip: float) -> float:
    """Closed-form Z-channel capacity."""
    if not 0.0 <= p_flip <= 1.0:
        raise ValueError("p_flip must lie in [0, 1]")
    if p_flip == 1.0:
        return 0.0
    p = p_flip
    return float(np.log2(1.0 + (1.0 - p) * p ** (p / (1.0 - p))))


# ---------------------------------------------------------------------------
# Label-bit bounds.


@dataclass(frozen=True)
class BitsBreakdown:
    """Class bits + subclass bits per sample; total is their exact float sum."""

    class_bits: float
    subclass_bits: float

    def __post_init__(self):
        if not (self.class_bits >= 0 and self.subclass_bits >= 0):  # NaN fails both
            raise ValueError("bit counts must be nonnegative")

    @property
    def total_bits(self) -> float:
        return self.class_bits + self.subclass_bits


@dataclass(frozen=True)
class HierarchyBitsParams:
    """Inputs for the hierarchy-wide bound.

    p_c: class-level accuracy; p_ci: per-class subclass accuracy (one entry
    per class; entries for single-subclass classes are ignored); counts:
    per-subclass training sample counts by class, valid as LabelHierarchy.sample_counts says.
    """

    hierarchy: LabelHierarchy
    p_c: float
    p_ci: tuple[float, ...]
    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        h = self.hierarchy
        if not 0.0 < self.p_c <= 1.0:
            raise ValueError("p_c must lie in (0, 1]")
        p_ci = tuple(float(p) for p in self.p_ci)
        if len(p_ci) != h.num_classes:
            raise ValueError("p_ci needs one entry per class")
        counts = h.sample_counts(self.counts)
        for c in h.split_classes:
            if not 0.0 < p_ci[c] <= 1.0:
                raise ValueError(f"subclass accuracy for class {c} must lie in (0, 1]")
        object.__setattr__(self, "p_ci", p_ci)
        object.__setattr__(self, "counts", counts)


def hierarchy_bits_bound(params: HierarchyBitsParams) -> BitsBreakdown:
    """Class Q-ary capacity plus sample-weighted per-class subclass capacities."""
    h = params.hierarchy
    class_bits = qsc_capacity(h.num_classes, params.p_c)
    total = sum(n for row in params.counts for n in row)
    subclass_bits = 0.0
    for c in h.split_classes:  # a lone subclass carries no extra label information
        weight = sum(params.counts[c]) / total
        subclass_bits += weight * qsc_capacity(h.subclasses_per_class[c], params.p_ci[c])
    return BitsBreakdown(class_bits, subclass_bits)


@dataclass(frozen=True)
class DetectionParams:
    """Inputs for the binary-detection bound.

    The null hypothesis h0 is the unsplit class; the alternative h1 carries n_s
    subclasses (stored as an int: see whole_number) with subclass accuracy p_s.  The
    sample counts n_h0/n_h1 are stored as the ints LabelHierarchy.sample_counts returns.
    """

    p_h0: float
    p_h1: float
    n_s: int
    p_s: float
    n_h0: int
    n_h1: int

    def __post_init__(self):
        for v in (self.p_h0, self.p_h1):
            if not 0.0 < v <= 1.0:
                raise ValueError("hypothesis accuracies must lie in (0, 1]")
        object.__setattr__(self, "n_s", whole_number(self.n_s, "n_s"))
        if self.n_s < 1:
            raise ValueError("n_s must be at least 1")
        if self.n_s > 1 and (self.p_s is None or not 0.0 < self.p_s <= 1.0):
            raise ValueError("p_s must lie in (0, 1]")
        try:
            (n_h0,), (n_h1,) = _DETECTION_HIERARCHY.sample_counts(((self.n_h0,), (self.n_h1,)))
        except ValueError as exc:  # name the count the rule refuses; a zero total names neither
            for name, n in (("n_h0", self.n_h0), ("n_h1", self.n_h1)):
                try:
                    _DETECTION_HIERARCHY.sample_counts(((n,), (1,)))
                except ValueError:
                    raise ValueError(f"{name}: {exc}, got {n!r}") from exc
            raise
        object.__setattr__(self, "n_h0", n_h0)
        object.__setattr__(self, "n_h1", n_h1)


def detection_bits_bound(params: DetectionParams) -> BitsBreakdown:
    """Binary-asymmetric class capacity plus weighted subclass capacity."""
    class_bits = bac_capacity(params.p_h0, params.p_h1)
    if params.n_s == 1:
        subclass_bits = 0.0
    else:
        weight = params.n_h1 / (params.n_h0 + params.n_h1)
        subclass_bits = weight * qsc_capacity(params.n_s, params.p_s)
    return BitsBreakdown(class_bits, subclass_bits)


# ---------------------------------------------------------------------------
# Fitting accuracies from empirical confusion matrices and assembling the
# label-bits report.


def confusion_to_channel(confusion_counts) -> ChannelSpec:
    """Row-normalize an empirical confusion matrix into a channel.

    The counts must form a 2-D matrix, finite and nonnegative, with a finite
    sum and at least one sample per true label.  A minimum of at least 0 and a
    maximum below _HALF_DBL_MAX / columns prove the cells finite and
    nonnegative and the row sums finite in two reductions; a matrix that fails
    that test takes _check_confusion_cells, so each bad input gets the same
    first message whichever way it is checked.
    """
    c = np.asarray(confusion_counts, dtype=float)
    if c.ndim != 2 or not c.size:
        raise ValueError("confusion counts must be a 2-D matrix")
    if not (np.minimum.reduce(c, axis=None) >= 0.0  # NaN fails both
            and np.maximum.reduce(c, axis=None) < _HALF_DBL_MAX / c.shape[1]):
        _check_confusion_cells(c)
    rows = np.add.reduce(c, axis=1, keepdims=True)
    if not np.logical_and.reduce(rows, axis=None):
        raise ValueError("every true label needs at least one sample")
    return ChannelSpec._trusted(c / rows)  # the checks above imply ChannelSpec's own


def _check_confusion_cells(c: np.ndarray) -> None:
    """Refuse a non-finite or negative cell, then a row whose sum overflows, in that order."""
    if not np.logical_and.reduce(np.isfinite(c), axis=None):
        raise ValueError("confusion counts must be finite")
    if np.logical_or.reduce(c < 0, axis=None):
        raise ValueError("confusion counts must be nonnegative")
    with np.errstate(over="ignore"):  # a row that sums to inf is refused here, unwarned
        rows = np.add.reduce(c, axis=1)
    if not np.logical_and.reduce(np.isfinite(rows), axis=None):
        raise ValueError("confusion counts must sum to a finite number in every row")


def _accuracy(c: np.ndarray) -> float:
    """A square confusion's accuracy for the symmetric closed forms: trace / total."""
    return float(c.trace() / np.add.reduce(c, axis=None))


@dataclass(frozen=True)
class BitsReportRow:
    """One task's label-bit accounting.

    subclass_bits is None when the task has no subclass structure (class
    labels only); fitted accuracies and empirical capacities ride along for
    the JSON report.
    """

    task: str
    breakdown: BitsBreakdown
    has_subclass_column: bool
    fitted: dict
    empirical: dict
    counts: dict


def detection_report_row(
    params: DetectionParams, task: str, empirical: dict | None = None, counts: dict | None = None
) -> BitsReportRow:
    """The detection bound's row for params.

    Without confusions behind params, empirical is empty and counts are
    params' own n_h0 and n_h1.
    """
    fitted = {"p_h0": params.p_h0, "p_h1": params.p_h1, "n_s": params.n_s, "p_s": params.p_s}
    if counts is None:
        counts = {"n_h0": params.n_h0, "n_h1": params.n_h1}
    breakdown = detection_bits_bound(params)
    return BitsReportRow(task, breakdown, params.n_s > 1, fitted, empirical or {}, counts)


def counts_from_confusions(class_confusion, per_class_subclass_confusions) -> tuple:
    """Per-subclass sample counts by class: the row sums of each class's subclass
    confusion, or of its class-confusion row if it has none (a lone subclass)."""
    class_conf = np.asarray(class_confusion)
    with np.errstate(over="ignore"):  # a row that sums to inf is refused below, unwarned
        sums = [np.sum(class_conf[[c]] if conf is None else conf, axis=1)
                for c, conf in enumerate(per_class_subclass_confusions)]
    return tuple(tuple(whole_number(n, "confusion row sum") for n in row) for row in sums)


def label_bits_report(
    class_confusion,
    per_class_subclass_confusions,
    hierarchy: LabelHierarchy,
    counts,
    task: str = "task",
) -> BitsReportRow:
    """Fit accuracies from training confusions and bound the label bits.

    Two-class hierarchies with at most one subclass-split class use the
    binary-detection bound (per-hypothesis accuracies straight from the
    class confusion's diagonal); everything else uses the hierarchy-wide
    bound with a single fitted class accuracy.  The empirical dict carries
    the Blahut-Arimoto capacity of each raw normalized confusion so the
    symmetric-model fitting error stays visible.  The detection route's row
    comes from detection_report_row, which ``skdlab bits`` also calls for
    its parameter route.
    """
    class_conf = np.asarray(class_confusion, dtype=float)
    if class_conf.shape != (hierarchy.num_classes, hierarchy.num_classes):
        raise ValueError("class confusion shape does not match the hierarchy")
    sub_confs = list(per_class_subclass_confusions)
    if len(sub_confs) != hierarchy.num_classes:
        raise ValueError("need one subclass confusion (or None) per class")
    counts = hierarchy.sample_counts(counts)
    split = hierarchy.split_classes
    for c in split:
        n_c = hierarchy.subclasses_per_class[c]
        sub_confs[c] = np.asarray(sub_confs[c], dtype=float)
        if sub_confs[c].shape != (n_c, n_c):
            raise ValueError(f"class {c} subclass confusion must be {n_c}x{n_c}")

    detection = hierarchy.num_classes == 2 and len(split) <= 1
    class_channel = confusion_to_channel(class_conf)
    empirical = {"class_capacity": blahut_arimoto(class_channel)[0]}
    p_c = None if detection else _accuracy(class_conf)
    acc, sub_caps = {}, {}
    for c in split:
        sub_caps[c] = blahut_arimoto(confusion_to_channel(sub_confs[c]))[0]
        acc[c] = _accuracy(sub_confs[c])
    if sub_caps or not detection:
        empirical["subclass_capacity"] = sub_caps

    row_counts = {"per_class": [sum(r) for r in counts], "per_subclass": [list(r) for r in counts]}
    if detection:
        alt = split[0] if split else 0
        diag = class_channel.transition.diagonal()
        params = DetectionParams(
            p_h0=float(diag[1 - alt]),
            p_h1=float(diag[alt]),
            n_s=hierarchy.subclasses_per_class[alt],
            p_s=acc.get(alt, 1.0),
            n_h0=sum(counts[1 - alt]),
            n_h1=sum(counts[alt]),
        )
        return detection_report_row(params, task, empirical, row_counts)
    p_ci = [acc.get(c, 1.0) for c in range(hierarchy.num_classes)]
    breakdown = hierarchy_bits_bound(HierarchyBitsParams(hierarchy, p_c, tuple(p_ci), counts))
    fitted = {"p_c": p_c, "p_ci": p_ci}
    return BitsReportRow(task, breakdown, bool(split), fitted, empirical, row_counts)


def write_bits_csv(rows: list[BitsReportRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task", "class_bits", "subclass_bits", "total_bits"])
        for row in rows:
            sub = f"{row.breakdown.subclass_bits:.6f}" if row.has_subclass_column else ""
            writer.writerow(
                [
                    row.task,
                    f"{row.breakdown.class_bits:.6f}",
                    sub,
                    f"{row.breakdown.total_bits:.6f}",
                ]
            )


def write_bits_json(rows: list[BitsReportRow], path) -> None:
    payload = []
    for row in rows:
        entry = {
            "task": row.task,
            "class_bits": row.breakdown.class_bits,
            "subclass_bits": row.breakdown.subclass_bits if row.has_subclass_column else None,
            "total_bits": row.breakdown.total_bits,
            "fitted": row.fitted,
            "empirical": row.empirical,
            "counts": row.counts,
        }
        payload.append(entry)
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
