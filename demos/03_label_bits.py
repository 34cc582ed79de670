"""Channel capacities and label-bit bounds.

Treats a classifier as a noisy channel from true labels to predicted
labels. Closed-form capacities for three standard channels are checked
against the Blahut-Arimoto iteration, then the same machinery turns a
trained teacher's confusion matrices into a bits-per-sample budget.

    python3 demos/03_label_bits.py
"""
from dataclasses import replace

import numpy as np

from skdlab.capacity import (
    DetectionParams,
    HierarchyBitsParams,
    bac_capacity,
    bac_channel,
    bac_optimal_input,
    blahut_arimoto,
    confusion_to_channel,
    counts_from_confusions,
    detection_bits_bound,
    hierarchy_bits_bound,
    label_bits_report,
    qsc_capacity,
    qsc_channel,
    write_bits_csv,
    z_channel,
    z_channel_capacity,
)
from skdlab.data import generate_synthetic, split_dataset
from skdlab.experiment import ExperimentConfig
from skdlab.hierarchy import build_task_preset
from skdlab.training import evaluate, per_class_subclass_confusions, train_teacher

# --- closed forms vs the iterative oracle --------------------------------
print("channel            closed form   blahut-arimoto")
for name, closed, channel in [
    ("4-ary symmetric p=0.7", qsc_capacity(4, 0.7), qsc_channel(4, 0.7)),
    ("binary asym 0.9/0.8", bac_capacity(0.9, 0.8), bac_channel(0.9, 0.8)),
    ("z-channel p=0.5", z_channel_capacity(0.5), z_channel(0.5)),
]:
    iterated, _ = blahut_arimoto(channel)
    print(f"{name:22s} {closed:.6f}      {iterated:.6f}")

alpha = bac_optimal_input(0.9, 0.8)
print(f"\noptimal mass on the weaker input of the 0.9/0.8 channel: {alpha:.6f}")

# --- worked bounds --------------------------------------------------------
# Split hierarchy: two classes at accuracy 0.9; one class is divided into
# two subclasses resolved at 0.85 and carries 600 of the 1000 samples.
h21 = build_task_preset("SL21")
hier = hierarchy_bits_bound(
    HierarchyBitsParams(h21, 0.9, (0.85, 1.0), ((300, 300), (400,)))
)
print(f"\nsplit-hierarchy bound: class {hier.class_bits:.6f} "
      f"+ subclass {hier.subclass_bits:.6f} = {hier.total_bits:.6f} bits/sample")

# Detection flavor: asymmetric class channel plus a subclass term weighted
# by how much of the data sits in the subdivided class.
det = detection_bits_bound(DetectionParams(0.9, 0.9, 2, 0.85, 2162, 990))
print(f"detection bound:       class {det.class_bits:.6f} "
      f"+ subclass {det.subclass_bits:.6f} = {det.total_bits:.6f} bits/sample")

# --- bounds fitted from an actual model -----------------------------------
# The data and teacher are the SL22 headline experiment's, at its first seed.
SEED = 1000
cfg = ExperimentConfig()
train, test = split_dataset(generate_synthetic(cfg.data_spec(SEED)), cfg.train_fraction, SEED)
teacher = train_teacher(train, cfg=replace(cfg.teacher, seed=SEED)).network

metrics = evaluate(teacher, test, "subclass")
sub_confs = per_class_subclass_confusions(teacher, test)
counts = counts_from_confusions(metrics.class_confusion, sub_confs)
row = label_bits_report(metrics.class_confusion, sub_confs, test.hierarchy, counts, task="SL22")
print(f"\nteacher as a channel (test split):")
print("class confusion, row-normalized:")
print(np.round(confusion_to_channel(metrics.class_confusion).transition, 3))
shown = {k: [round(x, 4) for x in v] if isinstance(v, list) else round(v, 4)
         for k, v in row.fitted.items()}
print(f"fitted parameters: {shown}")
print(f"budget: class {row.breakdown.class_bits:.4f} "
      f"+ subclass {row.breakdown.subclass_bits:.4f} "
      f"= {row.breakdown.total_bits:.4f} bits/sample")

write_bits_csv([row], "demo_bits.csv")
print("wrote demo_bits.csv")
