"""Command-line front end: generate | train | evaluate | experiment | bits | capacity.

Exit codes: 0 on success; 2 for a bad flag or config value, or an input
file that is missing, is not a file, or is malformed (a mismatched
checkpoint included), with the file named on stderr; 1 for runtime failures
(divergence, non-convergence, a failed write).

Configs are INI files with one section per role; every key has a desk-scale
default, so an empty file is a valid config.  README's "Config format" lists
the sections, keys and defaults; a section or key not listed there is
rejected with exit code 2 instead of being ignored.  The raw config text is
echoed into each report for provenance.  All randomness flows from the single
``seed`` key in ``[data]``.  Values are read literally: a ``%`` is an
ordinary character, not an interpolation.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import json
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .capacity import (
    DetectionParams,
    bac_capacity,
    blahut_arimoto,
    confusion_to_channel,
    counts_from_confusions,
    detection_report_row,
    label_bits_report,
    qsc_capacity,
    write_bits_csv,
    write_bits_json,
    z_channel_capacity,
)
from .data import generate_synthetic, load_dataset, load_hierarchy, save_dataset, save_hierarchy, split_dataset
from .experiment import ExperimentConfig, config_fields, run_experiment, write_experiment_report
from .hierarchy import whole_number
from .losses import STUDENT_MODES
from .network import load_checkpoint, save_checkpoint
from .training import evaluate, train_student, train_teacher


# ---------------------------------------------------------------------------
# Config parsing.


def _input_file(path, missing: str) -> Path:
    """path as a Path; a ValueError "<missing>: <path>" unless it names a file."""
    p = Path(path)
    if not p.is_file():
        raise ValueError(f"{missing}: {p}")
    return p


def _load_ini(path) -> tuple[configparser.ConfigParser, str]:
    p = _input_file(path, "config not found")
    text = p.read_text()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        parser.read_string(text, source=str(p))
    except configparser.Error as exc:
        raise ValueError(f"{p}: {exc}") from exc
    return parser, text


# The INI section of each ExperimentConfig field.  A key is named after its
# field, except that [data] seed sets base_seed; a TrainConfig field's section
# has one key per TrainConfig field that config_fields reports.
_SECTION = {
    "task": "data", "samples_per_subclass": "data", "difficulty": "data",
    "feature_dim": "data", "train_fraction": "data", "base_seed": "data",
    "n_seeds": "experiment", "teacher": "teacher", "student": "student",
    "tau_skd": "distill", "tau_kd": "distill", "lam": "distill",
}


def _ini_schema(base: ExperimentConfig) -> dict[str, tuple[Optional[str], dict[str, str]]]:
    """section -> (the TrainConfig field it sets, or None for base's own; key -> field)."""
    schema: dict = {}
    for f in config_fields(base):
        value = getattr(base, f.name)
        if is_dataclass(value):
            schema[_SECTION[f.name]] = (f.name, {g.name: g.name for g in config_fields(value)})
        else:
            key = "seed" if f.name == "base_seed" else f.name
            schema.setdefault(_SECTION[f.name], (None, {}))[1][key] = f.name
    return schema


def number(text: str):
    """text as a number: an integer literal as the exact int, any other numeral as a float."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    raise ValueError("not a number")


def _cast(raw: str, default):
    """raw as a str if default is one, else a number; a tuple as comma- or space-separated items."""
    if isinstance(default, tuple):
        return tuple(_cast(tok, default[0]) for tok in raw.replace(",", " ").split())
    return raw if isinstance(default, str) else number(raw)


def _experiment_config(parser) -> ExperimentConfig:
    """The default config with every key in parser set; an unknown section or key is an error.

    Sections are applied in file order, one ``replace`` each; no config check
    spans two sections.  A value the config dataclasses reject is reported
    with its section and the keys that the check rejects on their own (all
    of the section's keys when only their combination is rejected).
    """
    cfg = ExperimentConfig()
    schema = _ini_schema(cfg)
    if parser.defaults():
        raise ValueError("[DEFAULT]: unknown section")
    for section in parser.sections():
        if section not in schema:
            raise ValueError(f"[{section}]: unknown section (known: {', '.join(schema)})")
        nested, keys = schema[section]
        owner = getattr(cfg, nested) if nested else cfg
        values = {}
        for key, raw in parser.items(section):
            if key not in keys:
                raise ValueError(f"[{section}] {key}: unknown key (known: {', '.join(keys)})")
            try:
                values[key] = _cast(raw, getattr(owner, keys[key]))
            except ValueError as exc:
                raise ValueError(f"[{section}] {key} = {raw!r}: {exc}") from exc

        def with_values(chosen):
            fields = {keys[k]: v for k, v in chosen.items()}
            return replace(cfg, **({nested: replace(owner, **fields)} if nested else fields))

        try:
            cfg = with_values(values)
        except ValueError as exc:
            named = []
            for key in values:
                try:
                    with_values({key: values[key]})
                except ValueError:
                    named.append(key)
            raise ValueError(f"[{section}] {', '.join(named or values)}: {exc}") from exc
    return cfg


def _read_matrix(path, counts: bool = False) -> np.ndarray:
    """The CSV's rows as a float matrix; with counts, every cell must be a whole number."""
    p = _input_file(path, "matrix file not found")
    rows = []
    with p.open(newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                values = [float(cell) for cell in row]
            except ValueError as exc:
                raise ValueError(f"{p}:{lineno}: {exc}") from exc
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{p}:{lineno}: non-finite cell")
            if min(values) < 0:
                raise ValueError(f"{p}:{lineno}: negative cell")
            if not any(values):
                raise ValueError(f"{p}:{lineno}: all-zero row")
            try:
                for v in values if counts else ():
                    whole_number(v, "confusion count")
            except ValueError as exc:
                raise ValueError(f"{p}:{lineno}: confusion counts must be whole numbers") from exc
            with np.errstate(over="ignore"):  # the row sum capacity takes, unwarned
                if np.isinf(np.add.reduce(values)):
                    raise ValueError(
                        f"{p}:{lineno}: confusion counts must sum to a finite number in every row"
                    )
            rows.append(values)
    if not rows:
        raise ValueError(f"{p}: no rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{p}: ragged rows")
    return np.array(rows)


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_generate(args) -> int:
    parser, _ = _load_ini(args.config)
    cfg = _experiment_config(parser)
    full = generate_synthetic(cfg.data_spec(cfg.base_seed))
    train_set, test_set = split_dataset(full, cfg.train_fraction, cfg.base_seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_hierarchy(full.hierarchy, out / "hierarchy.json")
    save_dataset(train_set, out / "train.csv")
    save_dataset(test_set, out / "test.csv")
    print(f"wrote {out / 'hierarchy.json'}")
    print(f"wrote {out / 'train.csv'} ({len(train_set)} samples)")
    print(f"wrote {out / 'test.csv'} ({len(test_set)} samples)")
    return 0


def _load_data_dir(data_dir):
    hier, train, test = (
        _input_file(Path(data_dir, name), "data directory is missing")
        for name in ("hierarchy.json", "train.csv", "test.csv")
    )
    hierarchy = load_hierarchy(hier)
    return load_dataset(train, hierarchy), load_dataset(test, hierarchy)


def _read_model(path, missing: str, data) -> tuple:
    """(network, label level) of the checkpoint at path, checked to fit data.

    The level is the checkpoint's label_level; one saved without it is read at
    subclass level when some class is split and its output width is the
    subclass count, else at class level.  A level other than those two, or a
    network whose input or output width does not fit data, is a ValueError
    naming path.
    """
    p = _input_file(path, missing)
    net, meta = load_checkpoint(p)
    h = data.hierarchy
    level = meta.get("label_level")
    if level is None:
        level = "subclass" if h.split_classes and net.num_outputs == h.total_subclasses else "class"
    elif level not in ("class", "subclass"):
        raise ValueError(f"{p}: label_level must be 'class' or 'subclass', got {level!r}")
    labels = h.total_subclasses if level == "subclass" else h.num_classes
    if (net.layer_dims[0], net.num_outputs) != (data.feature_dim, labels):
        raise ValueError(f"{p}: network width {net.layer_dims[0]} -> {net.num_outputs} does not "
                         f"fit {data.feature_dim} features -> {labels} {level} labels")
    return net, level


def cmd_train(args) -> int:
    parser, cfg_text = _load_ini(args.config)
    cfg = _experiment_config(parser)
    train_set, test_set = _load_data_dir(args.data)
    seed = cfg.base_seed

    if args.role == "teacher":
        if args.mode is not None or args.teacher is not None:
            raise ValueError("--mode and --teacher apply only to --role student")
        level, mode = args.labels or "subclass", None
        result = train_teacher(train_set, cfg=replace(cfg.teacher, seed=seed), label_level=level)
    else:
        if args.labels is not None:
            raise ValueError("--labels applies only to --role teacher")
        if args.mode is None:
            raise ValueError("--role student requires --mode")
        distill = cfg.distill_config(args.mode)
        level = distill.level
        if distill.uses_teacher:
            if args.teacher is None:
                raise ValueError(f"--mode {args.mode} requires --teacher")
            teacher, got = _read_model(args.teacher, "teacher checkpoint not found", train_set)
            if got != level:
                raise ValueError(
                    f"{args.teacher}: teacher level mismatch: --mode {args.mode} needs a "
                    f"{level}-level teacher, checkpoint is {got!r}"
                )
        else:
            teacher = None
            if args.teacher is not None:
                raise ValueError(f"--mode {args.mode} takes no --teacher")
        sc = replace(cfg.student, seed=seed, distill=distill)
        result = train_student(train_set, cfg=sc, teacher=teacher)
        mode = args.mode

    metrics = evaluate(result.network, test_set, level)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt_path = out / "checkpoint.json"
    save_checkpoint(
        result.network,
        ckpt_path,
        extra={"label_level": level, "role": args.role, "mode": mode, "seed": seed},
    )
    report = {
        "config_ini": cfg_text,
        "role": args.role,
        "mode": mode,
        "label_level": level,
        "seed": seed,
        "loss_per_epoch": result.loss_per_epoch,
        "metrics": metrics.to_dict(),
    }
    (out / "metrics.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {ckpt_path}")
    print(f"wrote {out / 'metrics.json'}")
    print(f"binary_f1={metrics.binary_f1:.6f} macro_f1={metrics.macro_f1:.6f}")
    return 0


def cmd_evaluate(args) -> int:
    train_set, test_set = _load_data_dir(args.data)
    dataset = train_set if args.split == "train" else test_set
    net, level = _read_model(args.checkpoint, "checkpoint not found", dataset)
    metrics = evaluate(net, dataset, level)
    print(f"binary_f1={metrics.binary_f1:.6f} macro_f1={metrics.macro_f1:.6f}")
    if args.out:
        payload = {"split": args.split, "label_level": level, "metrics": metrics.to_dict()}
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


def cmd_experiment(args) -> int:
    parser, cfg_text = _load_ini(args.config)
    cfg = _experiment_config(parser)
    report, timings = run_experiment(cfg, jobs=args.jobs)
    report["config_ini"] = cfg_text
    paths = write_experiment_report(report, args.out, timings)
    for name in report["variants"]:
        row = report["summary"][name]["binary_f1"]
        print(f"{name:18s} binary_f1 {row['mean']:.6f} +/- {row['std']:.6f}")
    if report["failures"]:
        print(f"{len(report['failures'])} seed(s) failed; see report.json", file=sys.stderr)
    for key in ("report", "summary", "per_seed", "log"):
        if key in paths:
            print(f"wrote {paths[key]}")
    return 0


def cmd_capacity(args) -> int:
    if args.qsc is not None:
        value = qsc_capacity(*args.qsc)  # N is judged by qsc_capacity's whole-number rule
    elif args.bac is not None:
        value = bac_capacity(args.bac[0], args.bac[1])
    elif args.z is not None:
        value = z_channel_capacity(args.z)
    else:
        channel = confusion_to_channel(_read_matrix(args.matrix))
        value, _ = blahut_arimoto(channel)
    print(f"{value:.6f}")
    return 0


def _print_breakdown(breakdown, has_subclass: bool) -> None:
    print(f"class_bits={breakdown.class_bits:.6f}")
    if has_subclass:
        print(f"subclass_bits={breakdown.subclass_bits:.6f}")
    print(f"total_bits={breakdown.total_bits:.6f}")


def _read_confusion(path, n: int, what: str) -> np.ndarray:
    m = _read_matrix(path, counts=True)
    if m.shape != (n, n):
        raise ValueError(
            f"{path}: {what} must be {n}x{n} for the hierarchy, got {m.shape[0]}x{m.shape[1]}"
        )
    return m


def cmd_bits(args) -> int:
    """Print (and with -o write) one label-bits row; capacity builds it on either route."""
    if args.from_confusion is not None:
        if args.hierarchy is None:
            raise ValueError("--from-confusion requires --hierarchy")
        hierarchy = load_hierarchy(_input_file(args.hierarchy, "hierarchy not found"))
        n = hierarchy.num_classes
        class_conf = _read_confusion(args.from_confusion, n, "class confusion")
        split = hierarchy.split_classes
        given = args.subclass_confusion or []
        if len(given) != len(split):
            raise ValueError(
                f"need {len(split)} --subclass-confusion file(s) "
                f"(one per multi-subclass class, in class order), got {len(given)}"
            )
        sub_confs = [None] * n
        for c, path in zip(split, given):
            sub_confs[c] = _read_confusion(
                path, hierarchy.subclasses_per_class[c], f"class {c} subclass confusion"
            )
            with np.errstate(over="ignore"):  # each row is finite, but their total can read inf
                held = sub_confs[c].sum()
            row_total = class_conf[c].sum()
            if held != row_total:
                raise ValueError(f"{path}: class {c} subclass confusion holds {held:.0f} samples, "
                                 f"its class confusion row {row_total:.0f}")
        counts = counts_from_confusions(class_conf, sub_confs)
        row = label_bits_report(class_conf, sub_confs, hierarchy, counts, task=args.task)
    else:
        values = {f.name: getattr(args, f.name) for f in fields(DetectionParams)}
        if values["n_s"] == 1:  # an unsplit alternative: p_s as label_bits_report records it
            if values["p_s"] is not None:
                raise ValueError("--p-s applies only when --n-s is above 1")
            values["p_s"] = 1.0
        missing = [f"--{name.replace('_', '-')}" for name, value in values.items() if value is None]
        if missing:
            raise ValueError(f"missing {' '.join(missing)} (or use --from-confusion)")
        row = detection_report_row(DetectionParams(**values), args.task)
    _print_breakdown(row.breakdown, row.has_subclass_column)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_bits_csv([row], out / "bits.csv")
        write_bits_json([row], out / "bits.json")
        print(f"wrote {out / 'bits.csv'}")
        print(f"wrote {out / 'bits.json'}")
    return 0


# ---------------------------------------------------------------------------
# Parser wiring.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skdlab",
        description="Subclass-distillation laboratory: synthetic hierarchies, "
        "small dense networks, and label-bit capacity bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write train/test CSVs and hierarchy JSON")
    p.add_argument("-c", "--config", required=True, help="INI config path")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a teacher or student")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--data", required=True, help="directory from `skdlab generate`")
    p.add_argument("--role", required=True, choices=("teacher", "student"))
    p.add_argument("--labels", choices=("class", "subclass"),
                   help="teacher label level (default subclass)")
    p.add_argument("--mode", choices=STUDENT_MODES, help="student training mode")
    p.add_argument("--teacher", help="teacher checkpoint (kd/skd modes)")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="class-level metrics for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("-o", "--out", help="also write metrics JSON here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="multi-seed six-variant comparison")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.add_argument("--jobs", type=number, default=1, help="concurrent seed workers")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("bits", help="label-bit bounds from parameters or confusions")
    p.add_argument("--p-h0", type=float, help="null-hypothesis class accuracy")
    p.add_argument("--p-h1", type=float, help="alternative-hypothesis class accuracy")
    p.add_argument("--n-s", type=number, help="subclass count of the alternative")
    p.add_argument("--p-s", type=float,
                   help="subclass accuracy of the alternative (not with --n-s 1)")
    p.add_argument("--n-h0", type=number, help="null-hypothesis sample count")
    p.add_argument("--n-h1", type=number, help="alternative-hypothesis sample count")
    p.add_argument("--from-confusion", metavar="CLASS_CSV",
                   help="class confusion counts (training set)")
    p.add_argument("--subclass-confusion", metavar="CSV", action="append",
                   help="within-class subclass confusion, once per split class")
    p.add_argument("--hierarchy", help="hierarchy JSON (with --from-confusion)")
    p.add_argument("--task", default="task", help="row label for the report")
    p.add_argument("-o", "--out", help="directory for bits.csv / bits.json")
    p.set_defaults(func=cmd_bits)

    p = sub.add_parser("capacity", help="channel capacity of standard or explicit channels")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--qsc", nargs=2, type=float, metavar=("N", "P"),
                       help="symmetric n-ary channel with diagonal p")
    group.add_argument("--bac", nargs=2, type=float, metavar=("P0", "P1"),
                       help="binary asymmetric channel with per-input accuracies")
    group.add_argument("--z", type=float, metavar="P",
                       help="one noiseless input, the other flips with p")
    group.add_argument("--matrix", metavar="CSV",
                       help="row-stochastic matrix, capacity via Blahut-Arimoto")
    p.set_defaults(func=cmd_capacity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # bad flags, config values or input files
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
