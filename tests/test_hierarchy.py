import pytest

from skdlab.hierarchy import TASK_PRESETS, LabelHierarchy, build_task_preset


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
