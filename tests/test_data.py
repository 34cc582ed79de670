import numpy as np
import pytest

from skdlab.data import (
    Dataset,
    SyntheticSpec,
    auto_centers,
    generate_synthetic,
    load_dataset,
    load_hierarchy,
    save_dataset,
    save_hierarchy,
    separation,
    split_dataset,
)
from skdlab.hierarchy import LabelHierarchy, build_task_preset

SL22 = build_task_preset("SL22")


class TestSeparation:
    def test_endpoints(self):
        # difficulty 0 gives the widest spacing, 1 the narrowest
        assert separation(0.0) == 6.0
        assert separation(1.0) == 1.0
        assert separation(0.5) == 3.5

    def test_vectorized(self):
        np.testing.assert_allclose(separation(np.array([0.2, 0.8])), [5.0, 2.0])


class TestAutoCenters:
    def test_sl22_tiered_layout(self):
        C = auto_centers(SL22, (0.2, 0.8, 0.2, 0.8), 2)
        np.testing.assert_allclose(
            C, [[-2.5, 0.0], [1.0, 8.0], [2.5, 0.0], [-1.0, 8.0]]
        )

    def test_cross_class_gap_realizes_separation(self):
        # nearest other-class center sits exactly separation(difficulty) away
        diffs = (0.2, 0.8, 0.2, 0.8)
        C = auto_centers(SL22, diffs, 2)
        for j in range(4):
            cls = SL22.class_of[j]
            rival = min(
                np.linalg.norm(C[j] - C[k])
                for k in range(4)
                if SL22.class_of[k] != cls
            )
            assert rival == pytest.approx(separation(diffs[j]), abs=1e-12)

    def test_gap_shrinks_monotonically_with_difficulty(self):
        h = build_task_preset("ClassLevel")
        gaps = []
        for d in (0.0, 0.3, 0.6, 0.9):
            C = auto_centers(h, (d, d), 2)
            gaps.append(np.linalg.norm(C[0] - C[1]))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_lone_subclass_offset_below(self):
        h = build_task_preset("SL12")  # class 0 unsplit, class 1 has two tiers
        C = auto_centers(h, (0.2, 0.2, 0.8), 2)
        # tier 0 pairs subclasses 0 and 1 across the classes; class 1's
        # second tier has no cross-class partner and stacks below the axis
        assert C[0][1] == 0 and C[1][1] == 0
        assert C[2][1] < 0

    def test_needs_two_feature_dims_for_tiers(self):
        with pytest.raises(ValueError):
            auto_centers(SL22, (0.2, 0.8, 0.2, 0.8), 1)

    def test_one_difficulty_per_subclass(self):
        with pytest.raises(ValueError, match="difficulty has 2 entries, expected 4"):
            auto_centers(SL22, (0.2, 0.8), 2)


class TestSyntheticSpec:
    def test_difficulty_broadcast(self):
        spec = SyntheticSpec(SL22, (4, 4, 4, 4), 0.3, 2, seed=0)
        np.testing.assert_allclose(spec.difficulty, [0.3] * 4)

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_difficulty_range(self, bad):
        with pytest.raises(ValueError):
            SyntheticSpec(SL22, (4, 4, 4, 4), bad, 2, seed=0)

    def test_counts_length_checked(self):
        with pytest.raises(ValueError):
            SyntheticSpec(SL22, (4, 4), 0.3, 2, seed=0)


class TestGenerateSynthetic:
    def test_counts_and_order(self):
        spec = SyntheticSpec(SL22, (5, 6, 7, 8), 0.5, 2, seed=3)
        ds = generate_synthetic(spec)
        assert len(ds) == 26
        np.testing.assert_array_equal(np.bincount(ds.subclass_labels), [5, 6, 7, 8])
        np.testing.assert_array_equal(np.bincount(ds.class_labels), [11, 15])
        # class-major layout: subclass labels appear in blocks
        np.testing.assert_array_equal(
            ds.subclass_labels, np.repeat([0, 1, 2, 3], [5, 6, 7, 8])
        )

    def test_per_subclass_streams_are_independent(self):
        # enlarging one subclass must not disturb any other subclass's draws
        a = generate_synthetic(SyntheticSpec(SL22, (5, 6, 7, 8), 0.5, 2, seed=3))
        b = generate_synthetic(SyntheticSpec(SL22, (5, 60, 7, 8), 0.5, 2, seed=3))
        for j in (0, 2, 3):
            np.testing.assert_array_equal(
                a.features[a.subclass_labels == j], b.features[b.subclass_labels == j]
            )

    def test_deterministic_per_seed(self):
        spec = SyntheticSpec(SL22, (5, 6, 7, 8), 0.5, 2, seed=3)
        np.testing.assert_array_equal(
            generate_synthetic(spec).features, generate_synthetic(spec).features
        )

    def test_unit_isotropic_clusters(self):
        """Each subclass is an unlabeled-axis unit Gaussian around its center."""
        spec = SyntheticSpec(SL22, (20000, 4, 4, 4), 0.0, 2, seed=9)
        ds = generate_synthetic(spec)
        centers = auto_centers(SL22, spec.difficulty, spec.feature_dim)
        cloud = ds.features[ds.subclass_labels == 0] - centers[0]
        np.testing.assert_allclose(cloud.mean(axis=0), [0, 0], atol=0.03)
        np.testing.assert_allclose(cloud.std(axis=0), [1, 1], atol=0.03)


class TestSplitDataset:
    def test_stratified_counts(self):
        ds = generate_synthetic(SyntheticSpec(SL22, (10, 10, 20, 20), 0.5, 2, seed=1))
        train, test = split_dataset(ds, 0.5, seed=1)
        np.testing.assert_array_equal(np.bincount(train.subclass_labels), [5, 5, 10, 10])
        np.testing.assert_array_equal(np.bincount(test.subclass_labels), [5, 5, 10, 10])

    def test_disjoint_union(self):
        ds = generate_synthetic(SyntheticSpec(SL22, (9, 9, 9, 9), 0.5, 2, seed=2))
        train, test = split_dataset(ds, 0.3, seed=2)
        combined = np.vstack([train.features, test.features])
        assert combined.shape == ds.features.shape
        # every original row appears exactly once across the two halves
        key = lambda X: {tuple(row) for row in X}
        assert key(combined) == key(ds.features)
        assert not (key(train.features) & key(test.features))

    def test_extreme_fraction_keeps_both_sides_nonempty(self):
        ds = generate_synthetic(SyntheticSpec(SL22, (2, 2, 2, 2), 0.5, 2, seed=4))
        for frac in (0.01, 0.99):
            train, test = split_dataset(ds, frac, seed=4)
            assert np.bincount(train.subclass_labels, minlength=4).min() >= 1
            assert np.bincount(test.subclass_labels, minlength=4).min() >= 1

    def test_single_sample_subclass_rejected(self):
        ds = generate_synthetic(SyntheticSpec(SL22, (1, 2, 2, 2), 0.5, 2, seed=4))
        with pytest.raises(ValueError):
            split_dataset(ds, 0.5, seed=4)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2])
    def test_fraction_range(self, bad):
        ds = generate_synthetic(SyntheticSpec(SL22, (4, 4, 4, 4), 0.5, 2, seed=4))
        with pytest.raises(ValueError):
            split_dataset(ds, bad, seed=4)


class TestDatasetValidation:
    def test_class_labels_follow_hierarchy(self):
        ds = Dataset(np.zeros((3, 2)), [0, 3, 2], SL22)  # SL22: subclasses 0, 1 | 2, 3
        np.testing.assert_array_equal(ds.class_labels, [0, 1, 1])

    def test_load_rejects_class_that_does_not_own_subclass(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("f0,f1,subclass,class\n0.0,0.0,0,0\n0.0,0.0,3,0\n")  # subclass 3 is class 1
        with pytest.raises(ValueError, match=r":3: class 0 does not own subclass 3"):
            load_dataset(p, SL22)

    def test_out_of_range_subclass_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((1, 2)), [4], SL22)


class TestRoundTrips:
    def test_hierarchy_json(self, tmp_path):
        p = tmp_path / "h.json"
        save_hierarchy(SL22, p)
        assert load_hierarchy(p) == SL22

    def test_dataset_csv_exact(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(SL22, (3, 3, 3, 3), 0.7, 3, seed=5))
        p = tmp_path / "d.csv"
        save_dataset(ds, p)
        back = load_dataset(p, SL22)
        # repr round-trip: float64 features survive the CSV bit-for-bit
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.subclass_labels, ds.subclass_labels)

    def test_load_reports_offending_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("f0,f1,subclass,class\n0.0,0.0,0,0\n0.0,oops,1,0\n")
        with pytest.raises(ValueError, match=":3:"):
            load_dataset(p, SL22)

    def test_load_rejects_empty(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("f0,f1,subclass,class\n")
        with pytest.raises(ValueError, match="no samples"):
            load_dataset(p, SL22)
