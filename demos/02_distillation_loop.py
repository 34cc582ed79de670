"""Teacher training and the four student variants on one seed.

The teacher is a wider network trained on subclass labels. Students are
narrow networks trained four ways: plain class labels, plain subclass
labels, conventional distillation from a class-level teacher, and subclass
distillation from the subclass teacher. Everything is scored at class
level; the minority class (class 0) F1 is the headline number.

    python3 demos/02_distillation_loop.py
"""
from dataclasses import replace

from skdlab.data import generate_synthetic, split_dataset
from skdlab.experiment import ExperimentConfig
from skdlab.training import evaluate, train_student, train_teacher

# The SL22 headline experiment's settings, at its first seed: ExperimentConfig
# holds the subclass counts, difficulties, split, network configs and the
# distillation settings.
SEED = 1000
cfg = ExperimentConfig()
spec = cfg.data_spec(SEED)
hierarchy = spec.hierarchy
train, test = split_dataset(generate_synthetic(spec), cfg.train_fraction, SEED)
print(f"train {len(train)} samples, test {len(test)} samples")

# Two teachers share one config; only the label level differs. The subclass
# teacher has four outputs, the class teacher two.
tcfg = replace(cfg.teacher, seed=SEED)
teacher_class = train_teacher(train, hierarchy, tcfg, label_level="class")
teacher_sub = train_teacher(train, hierarchy, tcfg, label_level="subclass")
print(f"teacher parameters: {teacher_sub.network.params.size}")

# Students share one small config; the distill mode decides the output
# width, the loss, and whether a teacher joins in. tau, set per mode,
# softens both sides of the distillation term; lam balances labels against
# the teacher.
scfg = replace(cfg.student, seed=SEED)


def student(mode, teacher=None):
    distill = cfg.distill_config(mode)
    return train_student(train, hierarchy, replace(scfg, distill=distill), teacher=teacher)


runs = {
    "teacher (subclass)": (teacher_sub, "subclass"),
    "teacher (class)": (teacher_class, "class"),
    "student baseline": (student("baseline"), "class"),
    "student subclass": (student("subclass"), "subclass"),
    "student conventional KD": (student("kd", teacher_class.network), "class"),
    "student subclass KD": (student("skd", teacher_sub.network), "subclass"),
}

print(f"\n{'variant':26s} {'params':>7s} {'minority F1':>12s} {'macro F1':>9s}")
for name, (result, level) in runs.items():
    m = evaluate(result.network, test, hierarchy, level)
    print(
        f"{name:26s} {result.network.params.size:7d} "
        f"{m.binary_f1:12.4f} {m.macro_f1:9.4f}"
    )

# On this seed the subclass-KD student lands about one minority-F1 point
# above the baseline, and conventional KD at tau=128 coincides with the
# baseline exactly (the high-temperature gradient is too small to flip any
# test prediction here). Single seeds are noisy; the multi-seed comparison
# in demos/04_trend_experiment.py is the one that counts.
skd = runs["student subclass KD"][0]
print("\nsubclass-KD loss per epoch (first 5):",
      [round(x, 4) for x in skd.loss_per_epoch[:5]])
