"""Multi-seed comparison of all six variants.

Runs a ten-seed version of the headline experiment so it finishes in a
few seconds. Every seed regenerates the dataset, retrains all six
networks, and scores them on the held-out split; the summary reports mean
and sample standard deviation of the minority-class F1.

    python3 demos/04_trend_experiment.py

The full thirty-seed run takes under a minute:

    skdlab experiment -c config.ini -o results/ --jobs 4
"""
from skdlab.experiment import run_experiment, sl22_trend_config, write_experiment_report

# Ten seeds instead of thirty keep this demo under ten seconds. The data
# scale and schedules stay at their defaults: shrinking the dataset starves
# the hard subclasses and the trend drowns in seed noise.
cfg = sl22_trend_config(n_seeds=10, base_seed=1000)

report, timings = run_experiment(cfg, jobs=2)

print(f"{'variant':18s} {'minority F1':>16s} {'macro F1':>16s}")
for name in report["variants"]:
    b = report["summary"][name]["binary_f1"]
    m = report["summary"][name]["macro_f1"]
    print(f"{name:18s} {b['mean']:8.4f} +/- {b['std']:.4f} "
          f"{m['mean']:8.4f} +/- {m['std']:.4f}")

base = report["summary"]["student_baseline"]["binary_f1"]["mean"]
skd = report["summary"]["student_skd"]["binary_f1"]["mean"]
print(f"\nsubclass distillation vs baseline student: "
      f"{(skd - base) * 100:+.2f} minority-F1 points")

# Reports are deterministic byte for byte; only run.log carries wall-clock
# timings. Rerun this script and diff the outputs to check.
paths = write_experiment_report(report, "demo_experiment", timings)
for key, p in paths.items():
    print(f"wrote {p}")
