"""Synthetic dataset generation, splitting, and CSV/JSON I/O.

Each subclass is an isotropic unit Gaussian in feature space.  A scalar
difficulty in [0, 1] per subclass controls how close that subclass sits to
the opposing class: separation s = SEP_MAX*(1-difficulty) + SEP_MIN*difficulty
(in units of the cluster standard deviation), so difficulty 0 gives
well-separated clusters and difficulty 1 gives heavily overlapping ones.

Auto-placed centers use a tiered layout for two-class hierarchies.  The
k-th subclass of each class forms tier k.  A tier holding one subclass from
each class is a cross-class pair: both centers sit on the primary feature
axis at +-s/2 around the tier midpoint, with the side occupied by each class
alternating from tier to tier, and each tier lifted by TIER_LIFT on the
secondary axis.  The alternation means class identity cannot be read off a
single linear direction once a hierarchy has two tiers: a model must pick up
the per-tier structure that subclass labels spell out.  Within a pair the
center gap is (s_a + s_b)/2, exactly s when difficulties match, and the lift
is large enough that the nearest other-class center is always the tier
partner, so the documented separation formula is realized exactly.  A tier
with a single subclass (unequal subclass counts) hangs below the origin on
the secondary axis at distance s/2; its nearest other-class center distance
still shrinks monotonically as its difficulty grows.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .hierarchy import LabelHierarchy

SEP_MAX = 6.0
SEP_MIN = 1.0
TIER_LIFT = 8.0


def separation(difficulty):
    """Center separation (in cluster sigma units) for a difficulty in [0, 1]."""
    d = np.asarray(difficulty, dtype=float)
    if np.any(d < 0) or np.any(d > 1):
        raise ValueError("difficulty must lie in [0, 1]")
    return SEP_MAX * (1.0 - d) + SEP_MIN * d


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic dataset, its centers in the tiered auto layout.

    difficulty may be a scalar applied to every subclass or a per-subclass
    sequence.  centers is not a parameter: auto_centers places it when the spec
    is built.
    """

    hierarchy: LabelHierarchy
    samples_per_subclass: tuple[int, ...]
    difficulty: tuple[float, ...]
    feature_dim: int
    seed: int
    centers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        S = self.hierarchy.total_subclasses
        counts = tuple(int(n) for n in self.samples_per_subclass)
        if len(counts) != S:
            raise ValueError(
                f"samples_per_subclass has {len(counts)} entries, the hierarchy needs {S}"
            )
        if any(n < 0 for n in counts):
            raise ValueError("sample counts must be nonnegative")
        if sum(counts) == 0:
            raise ValueError("at least one sample is required")
        object.__setattr__(self, "samples_per_subclass", counts)
        diff = self.difficulty
        if np.ndim(diff) == 0:
            diff = (float(diff),) * S
        else:
            diff = tuple(float(x) for x in diff)
        if len(diff) != S:
            raise ValueError(f"difficulty has {len(diff)} entries, expected {S}")
        if any(not 0.0 <= x <= 1.0 for x in diff):
            raise ValueError("difficulty must lie in [0, 1]")
        object.__setattr__(self, "difficulty", diff)
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be positive")
        # built here, so a layout that cannot be placed fails before any sample is drawn
        object.__setattr__(
            self, "centers", auto_centers(self.hierarchy, diff, self.feature_dim)
        )


def auto_centers(hierarchy: LabelHierarchy, difficulty, feature_dim: int) -> np.ndarray:
    """Tiered center layout for a two-class hierarchy, one difficulty per subclass.

    Tier k pairs the k-th subclass of each class.  Paired centers sit at
    +-s/2 on axis 0 with the class-0 side flipping each tier, lifted by
    TIER_LIFT*k on axis 1.  Lone subclasses (after pairing) sit on axis 1
    at -s/2.
    """
    if hierarchy.num_classes != 2:
        raise ValueError("auto centers support exactly two classes")
    S = hierarchy.total_subclasses
    if np.shape(difficulty) != (S,):
        raise ValueError(f"difficulty has {np.size(difficulty)} entries, expected {S}")
    spc = hierarchy.subclasses_per_class
    n_tiers = max(spc)
    needs_second_axis = n_tiers > 1 or spc[0] != spc[1]
    if needs_second_axis and feature_dim < 2:
        raise ValueError("this hierarchy needs feature_dim >= 2 for auto centers")
    centers = np.zeros((S, feature_dim))
    sep = separation(difficulty)
    for k in range(n_tiers):
        members = [c for c in range(2) if k < spc[c]]
        for c in members:
            j = hierarchy.offsets[c] + k
            if len(members) == 2:
                # cross-class pair: sides alternate per tier
                sign = 1.0 if (c + k) % 2 else -1.0
                centers[j, 0] = sign * sep[j] / 2.0
                if k > 0:
                    centers[j, 1] = TIER_LIFT * k
            else:
                # lone subclasses stack downward below the shared origin
                depth = TIER_LIFT * (k - min(spc))
                centers[j, 1] = -(depth + sep[j] / 2.0)
    return centers


@dataclass
class Dataset:
    """Feature vectors and their subclass labels: Dataset(features, subclass_labels, hierarchy).

    class_labels is not a parameter: the hierarchy fixes each subclass's class, so it is derived.
    """

    features: np.ndarray
    subclass_labels: np.ndarray
    hierarchy: LabelHierarchy
    class_labels: np.ndarray = field(init=False)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.subclass_labels = np.asarray(self.subclass_labels, dtype=int)
        n = len(self.features)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if len(self.subclass_labels) != n:
            raise ValueError("label arrays must match the number of samples")
        S = self.hierarchy.total_subclasses
        if n and (self.subclass_labels.min() < 0 or self.subclass_labels.max() >= S):
            raise ValueError("subclass label out of hierarchy range")
        self.class_labels = np.array(self.hierarchy.class_of, dtype=int)[self.subclass_labels]

    def __len__(self) -> int:
        return len(self.features)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Draw the dataset described by a SyntheticSpec.

    Deterministic for a fixed spec: subclass j's samples come from an
    independent PRNG stream keyed by (seed, j), so results do not depend on
    generation order or on the counts of other subclasses.
    """
    feats, subs = [], []
    for j, n in enumerate(spec.samples_per_subclass):
        if n == 0:
            continue
        rng = np.random.default_rng([spec.seed, j])
        feats.append(rng.standard_normal((n, spec.feature_dim)) + spec.centers[j])
        subs.append(np.full(n, j, dtype=int))
    return Dataset(np.vstack(feats), np.concatenate(subs), spec.hierarchy)


def split_dataset(ds: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified train/test split.

    Each subclass is permuted by its own (seed, subclass) PRNG stream and cut
    at round(fraction * count), clipped so both sides keep at least one
    sample per subclass.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    train_idx, test_idx = [], []
    for j in range(ds.hierarchy.total_subclasses):
        idx = np.flatnonzero(ds.subclass_labels == j)
        if len(idx) == 0:
            continue
        if len(idx) < 2:
            raise ValueError(f"subclass {j} has fewer than 2 samples; cannot split")
        rng = np.random.default_rng([seed, j])
        idx = rng.permutation(idx)
        n_train = int(round(train_fraction * len(idx)))
        n_train = min(max(n_train, 1), len(idx) - 1)
        train_idx.append(idx[:n_train])
        test_idx.append(idx[n_train:])
    return tuple(
        Dataset(ds.features[sel], ds.subclass_labels[sel], ds.hierarchy)
        for sel in (np.concatenate(train_idx), np.concatenate(test_idx))
    )


# ---------------------------------------------------------------------------
# I/O.  Dataset CSV: header f0,...,f{d-1},subclass,class; floats written with
# repr so a save/load round trip is exact.  Hierarchy JSON holds the
# subclasses-per-class list.

def save_hierarchy(hierarchy: LabelHierarchy, path) -> None:
    payload = {"subclasses_per_class": list(hierarchy.subclasses_per_class)}
    Path(path).write_text(json.dumps(payload) + "\n")


def load_hierarchy(path) -> LabelHierarchy:
    try:
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict) or "subclasses_per_class" not in payload:
            raise ValueError("missing subclasses_per_class")
        spc = payload["subclasses_per_class"]
        if not isinstance(spc, list) or not all(type(n) is int for n in spc):
            raise ValueError("subclasses_per_class must be a list of integers")
        return LabelHierarchy(tuple(spc))
    except ValueError as exc:  # invalid JSON included
        raise ValueError(f"{path}: {exc}") from exc


def save_dataset(ds: Dataset, path) -> None:
    d = ds.feature_dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(d)] + ["subclass", "class"])
        for x, sc, cl in zip(ds.features, ds.subclass_labels, ds.class_labels):
            writer.writerow([repr(float(v)) for v in x] + [int(sc), int(cl)])


def load_dataset(path, hierarchy: LabelHierarchy) -> Dataset:
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: no samples") from None
        if len(header) < 3 or header[-2:] != ["subclass", "class"]:
            raise ValueError(f"{path}: malformed header {header!r}")
        d = len(header) - 2
        if [f"f{i}" for i in range(d)] != header[:d]:
            raise ValueError(f"{path}: malformed feature columns in header")
        feats, subs = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 2:
                raise ValueError(f"{path}:{lineno}: expected {d + 2} fields, got {len(row)}")
            try:
                feats.append([float(v) for v in row[:d]])
                subclass, cls = int(row[d]), int(row[d + 1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not all(map(math.isfinite, feats[-1])):
                raise ValueError(f"{path}:{lineno}: non-finite feature")
            if not 0 <= subclass < hierarchy.total_subclasses:
                raise ValueError(f"{path}:{lineno}: subclass index {subclass} out of range")
            if hierarchy.class_of[subclass] != cls:
                raise ValueError(f"{path}:{lineno}: class {cls} does not own subclass {subclass}")
            subs.append(subclass)
    if not feats:
        raise ValueError(f"{path}: no samples")
    return Dataset(np.array(feats), np.array(subs), hierarchy)
