"""Label hierarchies and synthetic datasets.

Walks through the building blocks everything else rests on: a two-level
label hierarchy, the tiered Gaussian-cluster geometry, and the stratified
train/test split. Run from the repository root:

    python3 demos/01_hierarchies_and_data.py
"""
import numpy as np

from skdlab.data import SyntheticSpec, auto_centers, generate_synthetic, separation, split_dataset
from skdlab.hierarchy import TASK_PRESETS, build_task_preset

# Every task preset names a subclass count per class. SL22 is the workhorse:
# two classes, each split into one easy and one hard subclass.
print("task presets:", {name: h for name, h in sorted(TASK_PRESETS.items())})
sl22 = build_task_preset("SL22")
print("SL22 classes:", sl22.num_classes, "subclasses:", sl22.total_subclasses)
print("subclass -> class map:", dict(enumerate(sl22.class_of)))

# Difficulty interpolates cluster separation from 6 sigma (trivial) down to
# 1 sigma (heavily overlapped).
for d in (0.0, 0.2, 0.8, 1.0):
    print(f"difficulty {d:.1f} -> separation {separation(d):.2f} sigma")

# The auto-placed centers pair the k-th subclass of each class across a
# shared axis, then lift each pair onto its own tier. The resulting layout
# is deliberately checkerboard-like: no single line separates the classes,
# so class structure alone is not enough to solve the task.
difficulty = (0.2, 0.8, 0.2, 0.8)
centers = auto_centers(sl22, difficulty, feature_dim=2)
for j, c in enumerate(centers):
    print(f"subclass {j} (class {sl22.class_of[j]}): center {c}")

spec = SyntheticSpec(
    hierarchy=sl22,
    samples_per_subclass=(248, 248, 540, 540),
    difficulty=difficulty,
    feature_dim=2,
    seed=1000,
)
full = generate_synthetic(spec)
print("\ngenerated", len(full), "samples, per subclass:", np.bincount(full.subclass_labels))

# Splits are stratified per subclass, so the imbalance carries over exactly.
train, test = split_dataset(full, train_fraction=0.5, seed=1000)
print("train:", np.bincount(train.subclass_labels), "test:", np.bincount(test.subclass_labels))

# The per-cluster noise is an isotropic unit Gaussian around each center.
for j in range(sl22.total_subclasses):
    pts = train.features[train.subclass_labels == j]
    drift = np.linalg.norm(pts.mean(axis=0) - centers[j])
    print(f"subclass {j}: empirical center within {drift:.3f} of its target")
