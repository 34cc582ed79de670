"""Teacher training and the four student variants on one seed.

The teacher is a wider network trained on subclass labels. Students are
narrow networks trained four ways: plain class labels, plain subclass
labels, conventional distillation from a class-level teacher, and subclass
distillation from the subclass teacher. Everything is scored at class
level; the minority class (class 0) F1 is the headline number.

    python3 demos/02_distillation_loop.py
"""
from skdlab.data import generate_synthetic, split_dataset
from skdlab.experiment import VARIANT_TABLE, ExperimentConfig, train_variants
from skdlab.training import evaluate

# The SL22 headline experiment's settings, at its first seed: ExperimentConfig
# holds the subclass counts, difficulties, split, network configs and the
# distillation settings.
SEED = 1000
cfg = ExperimentConfig()
spec = cfg.data_spec(SEED)
hierarchy = spec.hierarchy
train, test = split_dataset(generate_synthetic(spec), cfg.train_fraction, SEED)
print(f"train {len(train)} samples, test {len(test)} samples")

# train_variants trains the six rows of experiment.VARIANT_TABLE. The two
# teachers share one config; only the label level differs, so the subclass
# teacher has four outputs and the class teacher two. The four students share
# one small config; the distill mode decides the output width, the loss, and
# whether a teacher joins in. tau, set per mode, softens both sides of the
# distillation term; lam balances labels against the teacher.
results = train_variants(cfg, SEED, train)
print(f"teacher parameters: {results['teacher_subclass'].network.params.size}")

LABELS = {
    "teacher (subclass)": "teacher_subclass",
    "teacher (class)": "teacher_class",
    "student baseline": "student_baseline",
    "student subclass": "student_subclass",
    "student conventional KD": "student_kd",
    "student subclass KD": "student_skd",
}
level = {name: row_level for name, row_level, _, _ in VARIANT_TABLE}

print(f"\n{'variant':26s} {'params':>7s} {'minority F1':>12s} {'macro F1':>9s}")
for label, name in LABELS.items():
    net = results[name].network
    m = evaluate(net, test, hierarchy, level[name])
    print(f"{label:26s} {net.params.size:7d} {m.binary_f1:12.4f} {m.macro_f1:9.4f}")

# On this seed the subclass-KD student ties the subclass-label student
# (0.6558 / 0.7753), so the subclass teacher adds nothing here, and
# conventional KD at tau=128 ties the baseline the same way (ROADMAP items
# 4-5 follow this up). Single seeds are noisy; the multi-seed comparison in
# demos/04_trend_experiment.py is the one that counts.
print("\nsubclass-KD loss per epoch (first 5):",
      [round(x, 4) for x in results["student_skd"].loss_per_epoch[:5]])
