import re

import numpy as np
import pytest

from skdlab.capacity import DetectionParams, qsc_capacity
from skdlab.data import SyntheticSpec
from skdlab.experiment import ExperimentConfig
from skdlab.hierarchy import TASK_PRESETS, LabelHierarchy, build_task_preset, whole_number
from skdlab.network import init_network
from skdlab.training import TrainConfig


class TestWholeNumber:
    """The one whole-number rule every count, size and width goes through."""

    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0), np.int32(3)])
    def test_whole_values_become_ints(self, value):
        got = whole_number(value, "size")
        assert got == 3 and type(got) is int

    @pytest.mark.parametrize(
        "value", [2.5, float("nan"), float("inf"), -float("inf"), "3", "2.5", True, None, [3]]
    )
    def test_other_values_fail(self, value):
        message = re.escape(f"size must be a whole number, got {value!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            whole_number(value, "size")

    # each seed site returns the seed it stores
    SEEDS = {
        "base_seed": lambda v: ExperimentConfig(base_seed=v).base_seed,
        "train_seed": lambda v: TrainConfig(seed=v).seed,
        "spec_seed": lambda v: SyntheticSpec(build_task_preset("SL22"), (4, 4, 4, 4), 0.3, 2, v).seed,
    }

    SITES = {
        "hierarchy": lambda v: LabelHierarchy((v, 1)),
        "hidden_layers": lambda v: TrainConfig(hidden_layers=(v,)),
        "epochs": lambda v: TrainConfig(epochs=v),
        "batch_size": lambda v: TrainConfig(batch_size=v),
        "init_network": lambda v: init_network((2, v, 2), 0),
        "n_seeds": lambda v: ExperimentConfig(n_seeds=v),
        "qsc_capacity": lambda v: qsc_capacity(v, 0.7),
        "n_s": lambda v: DetectionParams(0.9, 0.9, v, 0.85, 2162, 990),
        **SEEDS,
    }

    @pytest.mark.parametrize("value", [2.5, float("nan")], ids=["fraction", "nan"])
    @pytest.mark.parametrize("site", list(SITES))
    def test_every_site_rejects_what_is_not_whole(self, site, value):
        with pytest.raises(ValueError, match="must be a whole number"):
            self.SITES[site](value)

    @pytest.mark.parametrize("site", list(SEEDS))
    def test_seeds_are_stored_as_non_negative_ints(self, site):
        got = self.SEEDS[site](np.int64(3))
        assert got == 3 and type(got) is int
        with pytest.raises(ValueError, match="^seed must be non-negative$"):
            self.SEEDS[site](-1)


class TestLabelHierarchy:
    def test_offsets_and_totals(self):
        h = LabelHierarchy((2, 3, 1))
        assert h.num_classes == 3
        assert h.total_subclasses == 6
        assert h.offsets == (0, 2, 5, 6)  # fencepost form, one extra entry
        assert h.class_slice(1) == slice(2, 5)

    def test_class_of_subclass_covers_every_index(self):
        h = LabelHierarchy((2, 3, 1))
        assert list(h.class_of) == [0, 0, 1, 1, 1, 2]
        # partition check: each class's slice has exactly its declared width
        for c in range(h.num_classes):
            s = h.class_slice(c)
            assert s.stop - s.start == h.subclasses_per_class[c]

    @pytest.mark.parametrize(
        "spc, class_of, split",
        [
            (TASK_PRESETS["ClassLevel"], (0, 1), ()),
            (TASK_PRESETS["SL21"], (0, 0, 1), (0,)),
            (TASK_PRESETS["SL22"], (0, 0, 1, 1), (0, 1)),
            (TASK_PRESETS["SL12"], (0, 1, 1), (1,)),
            ((2, 1, 3), (0, 0, 1, 2, 2, 2), (0, 2)),
        ],
        ids=["ClassLevel", "SL21", "SL22", "SL12", "2-1-3"],
    )
    def test_class_of_and_split_classes(self, spc, class_of, split):
        h = LabelHierarchy(spc)
        assert h.class_of == class_of
        assert h.split_classes == split
        assert h.split_classes is h.split_classes  # built once, not on every access
        assert repr(h) == f"LabelHierarchy(subclasses_per_class={tuple(spc)!r})"

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_class_slice_out_of_range(self, bad):
        with pytest.raises(IndexError, match=f"class index {bad} out of range"):
            LabelHierarchy((2, 3, 1)).class_slice(bad)

    @pytest.mark.parametrize("bad", [(), (0, 2), (2, -1)])
    def test_invalid_shapes_rejected(self, bad):
        with pytest.raises(ValueError):
            LabelHierarchy(bad)


class TestTaskPresets:
    def test_preset_shapes(self):
        assert TASK_PRESETS == {
            "ClassLevel": (1, 1),
            "SL21": (2, 1),
            "SL22": (2, 2),
            "SL12": (1, 2),
        }

    @pytest.mark.parametrize("name,total", [("ClassLevel", 2), ("SL21", 3), ("SL22", 4), ("SL12", 3)])
    def test_build_task_preset(self, name, total):
        h = build_task_preset(name)
        assert h.num_classes == 2
        assert h.total_subclasses == total

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            build_task_preset("SL99")
