#!/usr/bin/env python3
"""The fixed, seeded corpus that tools/differential.py runs against a tree.

    cd "$(mktemp -d)" && PYTHONPATH=DIR/src python /path/to/tools/corpus.py

Run it in an empty directory: it writes its inputs and every case's output
there, and each path it passes is relative to it, so no message carries the
directory's name.  It prints one JSON record per case, in a fixed order:

* "id": "family/name";
* "value", the case's result as encode gives it, or "raised", the type and
  message of the exception the case raised;
* "warnings": each warning's category and message, recorded with
  simplefilter("always");
* "stdout" and "stderr": what the case printed.

Each case looks up the skdlab names it uses when it runs, so a name that one
tree lacks fails that case only.  A capacity that blahut_arimoto returns is
wrapped in Capacity, and the driver compares it within a tolerance.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import math
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

LARGE = 64  # an array with more entries is recorded as the SHA-256 of its bytes
NAN, INF = math.nan, math.inf
DEMO_TIMEOUT_S = 300


class Capacity:
    """A capacity blahut_arimoto returned: the driver compares it within 2 * tol."""

    def __init__(self, value):
        self.value = value


def type_name(value) -> str:
    """The name of value's type, qualified by its module outside the builtins."""
    t = type(value)
    return t.__qualname__ if t.__module__ == "builtins" else f"{t.__module__}.{t.__qualname__}"


def encode(value):
    """value as JSON that keeps its type.

    None and str stay as they are; every other value is a list tagged by its
    kind.  Numbers keep their type's name, so a float and an np.float64
    differ, and floats are exact (float.hex).  An array keeps its dtype,
    shape and entries, or the SHA-256 of its bytes above LARGE entries; a
    dataclass keeps its type's name and fields.
    """
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, Capacity):
        return ["capacity", encode(value.value)]
    if isinstance(value, (bool, np.bool_)):
        return ["bool", type_name(value), bool(value)]
    if isinstance(value, (int, np.integer)):
        return ["int", type_name(value), str(value)]
    if isinstance(value, (float, np.floating)):
        return ["float", type_name(value), float(value).hex()]
    if isinstance(value, np.ndarray):
        if value.size > LARGE:
            entries = {"sha256": hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()}
        elif value.dtype.kind == "f":
            entries = [x.hex() for x in value.ravel().tolist()]
        elif value.dtype.kind in "biu":
            entries = value.ravel().tolist()
        else:
            raise TypeError(f"no encoding for a {value.dtype} array")
        return ["ndarray", value.dtype.str, list(value.shape), entries]
    if isinstance(value, (list, tuple)):
        return [type_name(value), [encode(v) for v in value]]
    if isinstance(value, dict):
        return ["dict", [[encode(k), encode(v)] for k, v in value.items()]]
    if is_dataclass(value) and not isinstance(value, type):
        values = {f.name: encode(getattr(value, f.name)) for f in fields(value)}
        return ["object", type_name(value), values]
    raise TypeError(f"no encoding for {type_name(value)}")


def run_case(case_id: str, case) -> dict:
    """The record of case(), a function of no arguments (see the module docstring)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            result = case()
        except Exception as exc:  # the case's outcome; the encoder's own errors stop the corpus
            outcome = {"raised": [type(exc).__name__, str(exc)]}
        else:
            outcome = {"value": encode(result)}
    return {
        "id": case_id,
        **outcome,
        "warnings": [[w.category.__name__, str(w.message)] for w in caught],
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }


def api(module: str, name: str):
    """skdlab.<module>.<name>, looked up when a case runs."""
    return getattr(importlib.import_module(f"skdlab.{module}"), name)


def call(module: str, name: str, *args, **kwargs):
    """A case that calls skdlab.<module>.<name>(*args, **kwargs)."""
    return lambda: api(module, name)(*args, **kwargs)


def write(path, text: str) -> str:
    """Write text to path, making its directory; path as a str."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text)
    return str(path)


def with_capacities(tree):
    """tree with each float leaf wrapped in Capacity: a report's "empirical" block."""
    if isinstance(tree, dict):
        return {k: with_capacities(v) for k, v in tree.items()}
    return Capacity(tree) if isinstance(tree, float) else tree


def report_row(row) -> dict:
    """A BitsReportRow's fields, its empirical capacities wrapped."""
    values = {f.name: getattr(row, f.name) for f in fields(row)}
    values["empirical"] = with_capacities(row.empirical)
    return values


def file_record(path: Path):
    """A written file: the SHA-256 of its bytes, or for bits.json its payload with the
    capacities wrapped, and whether its bytes are the payload's indent-2 dump."""
    if path.name != "bits.json":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    text = path.read_text()
    payload = json.loads(text)
    layout = text == json.dumps(payload, indent=2) + "\n"
    for entry in payload:
        entry["empirical"] = with_capacities(entry["empirical"])
    return {"payload": payload, "indent_2": layout}


def written(directory) -> dict:
    """Every file under directory by relative path (run.log, which holds timings, left out);
    none if there is no such directory."""
    root = Path(directory)
    files = sorted(root.rglob("*")) if root.is_dir() else []
    return {p.relative_to(root).as_posix(): file_record(p)
            for p in files if p.is_file() and p.name != "run.log"}


# ---------------------------------------------------------------------------
# 1. Closed forms.

PROBS = (0.0, 5e-324, 0.05, 0.1, 0.125, float(np.nextafter(0.25, 0.0)), 0.25, 1 / 3, 0.5, 0.7,
         0.9, 0.99, 1 - 2**-53, 1.0, NAN, -0.1, 1.1, INF)
ALPHABETS = (2, 3, 4, 8, 2.0, np.int64(3), 2.5, True, 1, 0, "3", None)
ACCURACIES = (0.0, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 1.0, NAN, 1.1)


def label(value) -> str:
    """value as a case name shows it; a numpy scalar by its type, whatever numpy's repr."""
    if isinstance(value, np.generic):
        return f"np.{type(value).__name__}({value.item()!r})"
    return repr(value)


def closed_forms():
    for n in ALPHABETS:
        for p in PROBS:
            yield f"qsc_capacity({label(n)}, {p!r})", call("capacity", "qsc_capacity", n, p)
    for name in ("bac_capacity", "bac_optimal_input"):
        for p0 in ACCURACIES:
            for p1 in ACCURACIES:
                yield f"{name}({p0!r}, {p1!r})", call("capacity", name, p0, p1)
    for name in ("z_channel_capacity", "binary_entropy"):
        for p in PROBS:
            yield f"{name}({p!r})", call("capacity", name, p)


# ---------------------------------------------------------------------------
# 2. Blahut-Arimoto.  Only the capacity is recorded: the optimal input is not unique.


def capacity_of(build, **kwargs):
    """A case that solves the channel build() returns."""
    return lambda: Capacity(api("capacity", "blahut_arimoto")(build(), **kwargs)[0])


def matrix_channel(rows):
    return call("capacity", "ChannelSpec", np.array(rows, dtype=float))


def sparse_rows(rng, m, n):
    """m random rows over n outputs, about half the cells zero, every row with a nonzero cell."""
    keep = rng.random((m, n)) < 0.5
    keep[np.arange(m), rng.integers(0, n, m)] = True
    rows = rng.random((m, n)) * keep
    return rows / rows.sum(axis=1, keepdims=True)


def blahut_arimoto():
    for n in range(2, 9):
        for p in (0.0, 1 / n, 0.3, 0.6, 0.9, 1.0):
            yield f"qsc_channel({n}, {p!r})", capacity_of(call("capacity", "qsc_channel", n, p))
    grid = (0.05, 0.3, 0.5, 0.7, 0.95, 1.0)
    for p0 in grid:
        for p1 in grid:
            channel = call("capacity", "bac_channel", p0, p1)
            yield f"bac_channel({p0!r}, {p1!r})", capacity_of(channel)
    for p in (0.0, 0.1, 0.5, 0.9, 1.0):
        yield f"z_channel({p!r})", capacity_of(call("capacity", "z_channel", p))
    for m in range(2, 9):
        for n in range(2, 9):
            for seed in range(12):
                alpha = (0.2, 1.0, 5.0)[seed % 3]  # near-sparse rows to near-uniform ones
                rows = np.random.default_rng([seed, m, n]).dirichlet(np.full(n, alpha), size=m)
                yield f"dense {m}x{n} alpha {alpha} seed {seed}", capacity_of(matrix_channel(rows))
    for n in (*range(9, 17), 32):
        for seed in range(6):
            rows = np.random.default_rng([seed, 2, n]).dirichlet(np.full(n, 0.5), size=2)
            yield f"dense 2x{n} seed {seed}", capacity_of(matrix_channel(rows))
    for m in range(3, 9):
        for n in range(3, 9):
            for seed in range(4):
                rows = sparse_rows(np.random.default_rng([seed, m, n, 1]), m, n)
                yield f"sparse {m}x{n} seed {seed}", capacity_of(matrix_channel(rows))
    rng = np.random.default_rng(2)
    for k in range(400):  # binary confusions, as label_bits_report solves them, some near chance
        counts = rng.integers(1, 200, (2, 2)) + np.diag(rng.integers(0, 2000 if k % 2 else 5, 2))
        yield (f"binary confusion {counts.tolist()} #{k}",
               capacity_of(call("capacity", "confusion_to_channel", counts)))
    named = {
        "near chance": np.array([[600, 400], [597, 403]]) / 1000,
        "equal rows": [[0.2, 0.3, 0.5]] * 3,
        "identity 8": np.eye(8),
        "empty column": [[0.5, 0.0, 0.5], [0.1, 0.0, 0.9], [0.7, 0.0, 0.3]],
        "subnormal cell": [[1.0, 0.0, 0.0], [0.0, 1.0, 5e-324], [0.0, 0.5, 0.5]],
        "one output": [[1.0], [1.0], [1.0]],
        "one input": [[0.25, 0.75, 0.0]],
    }
    for name, rows in named.items():
        yield name, capacity_of(matrix_channel(rows))
    hard = np.random.default_rng([0, 5, 5]).dirichlet(np.ones(5), size=5)
    for kwargs in ({"tol": 0.0}, {"tol": NAN}, {"tol": -1.0}, {"max_iters": 1}):
        args = ", ".join(f"{k}={v!r}" for k, v in kwargs.items())
        yield f"dense 5x5 seed 0, {args}", capacity_of(matrix_channel(hard), **kwargs)


# ---------------------------------------------------------------------------
# 3. Confusion counts into channels.


def confusions():
    rng = np.random.default_rng(3)
    for m in range(2, 7):
        for n in range(2, 7):
            for k in range(6):
                counts = rng.integers(0, 50, (m, n))
                counts[:, 0] += 1  # a sample in every row
                yield f"counts {m}x{n} #{k}", call("capacity", "confusion_to_channel", counts)
    cases = {
        "rates": [[0.9, 0.1], [0.25, 0.75]],
        "fractional": [[0.5, 1.5], [2.25, 0.75]],
        "python ints": [[2**70, 1], [3, 4]],
        "1x1": [[5]],
        "huge": [[1e300, 1e300], [1, 3]],
        "near chance": [[600, 400], [597, 403]],
        "zero column": [[3, 0], [5, 0]],
        "negative": [[1, -1], [1, 1]],
        "nan": [[NAN, 1], [1, 1]],
        "inf": [[INF, 1], [1, 1]],
        "-inf": [[-INF, 1], [1, 1]],
        "row overflows": [[1e308, 1e308], [1, 1]],
        "zero row": [[0, 0], [1, 1]],
        "1-D": [1, 2],
        "3-D": np.ones((2, 2, 2)),
        "empty": np.zeros((0, 0)),
        "empty row": [[]],
        "no columns": np.zeros((2, 0)),
        "strings": [["a", "b"], ["c", "d"]],
        "None": None,
        "ragged": [[1, 2], [3]],
    }
    for name, counts in cases.items():
        yield name, call("capacity", "confusion_to_channel", counts)


# ---------------------------------------------------------------------------
# 4. Label bits: both routes of label_bits_report, both bounds, the writers.

# preset name -> subclasses per class
PRESETS = {"ClassLevel": (1, 1), "SL21": (2, 1), "SL22": (2, 2), "SL12": (1, 2)}


def random_confusions(rng, spc):
    """A class confusion and one subclass confusion per class (None for a lone subclass)."""
    k = len(spc)
    class_conf = rng.integers(1, 60, (k, k)) + np.diag(rng.integers(20, 200, k))
    subs = [None if n == 1 else rng.integers(0, 30, (n, n)) + np.diag(rng.integers(5, 80, n))
            for n in spc]
    return class_conf, subs


def fitted_report(hierarchy, class_conf, subs, counts=None, task="task"):
    """A case for label_bits_report, with counts from the confusions unless given."""
    def case():
        n = counts
        if n is None:
            n = api("capacity", "counts_from_confusions")(class_conf, subs)
        report = api("capacity", "label_bits_report")
        return report_row(report(class_conf, list(subs), hierarchy(), n, task=task))
    return case


def bound(name, params_name, *args):
    """A case for skdlab.capacity.<name>(<params_name>(*args)), a hierarchy argument built first."""
    def case():
        built = [a() if callable(a) else a for a in args]
        return api("capacity", name)(api("capacity", params_name)(*built))
    return case


def label_bits():
    rng = np.random.default_rng(4)
    for preset, spc in PRESETS.items():
        for seed in range(25):
            class_conf, subs = random_confusions(rng, spc)
            preset_h = call("hierarchy", "build_task_preset", preset)
            yield f"report {preset} #{seed}", fitted_report(preset_h, class_conf, subs, task=preset)
    for spc in ((1, 1, 1), (2, 3), (3, 1), (2, 2, 2), (4,)):
        class_conf, subs = random_confusions(rng, spc)
        hierarchy = call("hierarchy", "LabelHierarchy", spc)
        yield f"report {list(spc)}", fitted_report(hierarchy, class_conf, subs)

    sl22 = call("hierarchy", "build_task_preset", "SL22")
    sl21 = call("hierarchy", "build_task_preset", "SL21")
    class_conf, subs = random_confusions(rng, (2, 2))
    counts = {
        "zero count": ((0, 5), (5, 5)),
        "all zero": ((0, 0), (0, 0)),
        "negative": ((-1, 5), (5, 5)),
        "fractional": ((2.5, 5), (5, 5)),
        "whole float": ((5.0, 5), (5, 5)),
        "nan": ((NAN, 5), (5, 5)),
        "inf": ((INF, 5), (5, 5)),
        "bool": ((True, 5), (5, 5)),
        "row too many": ((5, 5), (5, 5), (5,)),
        "row too few": ((5, 5),),
        "row too long": ((5, 5, 5), (5, 5)),
    }
    for name, n in counts.items():
        yield f"SL22 counts {name}", fitted_report(sl22, class_conf, subs, n)
    sl21_conf, sl21_subs = random_confusions(rng, (2, 1))
    for name, n in {"row too many": ((5, 5), (5,), (5,)), "row too few": ((5, 5),)}.items():
        yield f"SL21 counts {name}", fitted_report(sl21, sl21_conf, sl21_subs, n)
    shapes = {
        "class 3x3": (np.ones((3, 3)), subs),
        "class 1-D": (np.ones(2), subs),
        "class zero row": (np.array([[0, 0], [3, 4]]), subs),
        "subclass 3x3": (class_conf, [np.ones((3, 3)), subs[1]]),
        "one subclass entry": (class_conf, subs[:1]),
        "subclass None": (class_conf, [None, subs[1]]),
    }
    for name, (cc, ss) in shapes.items():
        yield f"SL22 shape {name}", fitted_report(sl22, cc, ss, ((5, 5), (5, 5)))

    for preset, spc in PRESETS.items():
        n = tuple(tuple(100 * (c + 1) + 10 * j for j in range(k)) for c, k in enumerate(spc))
        for p_c in (0.3, 0.5, 0.9, 1.0):
            for p_s in (0.5, 0.85, 1.0):
                yield (f"hierarchy_bits_bound {preset} {p_c!r} {p_s!r}",
                       bound("hierarchy_bits_bound", "HierarchyBitsParams",
                             call("hierarchy", "build_task_preset", preset), p_c, (p_s, p_s), n))
    bad_hierarchy = {"p_c 0": (0.0, (0.85, 1.0)), "p_c nan": (NAN, (0.85, 1.0)),
                     "p_c 1.1": (1.1, (0.85, 1.0)), "p_ci short": (0.9, (0.85,)),
                     "p_ci 0": (0.9, (0.0, 1.0))}
    for name, (p_c, p_ci) in bad_hierarchy.items():
        params = (sl21, p_c, p_ci, ((300, 300), (400,)))
        yield (f"hierarchy_bits_bound SL21 {name}",
               bound("hierarchy_bits_bound", "HierarchyBitsParams", *params))
    for p_h0 in (0.5, 0.8, 0.9, 1.0):
        for p_h1 in (0.5, 0.8, 0.9, 1.0):
            for n_s in (1, 2, 3):
                params = (p_h0, p_h1, n_s, 0.85, 2162, 990)
                yield (f"detection_bits_bound {p_h0!r} {p_h1!r} {n_s} 0.85 2162 990",
                       bound("detection_bits_bound", "DetectionParams", *params))
    params = {
        "README": (0.9, 0.9, 2, 0.85, 2162, 990),
        "whole floats": (0.9, 0.9, 2.0, 0.85, 2162.0, 990.0),
        "n_s 1 p_s None": (0.9, 0.8, 1, None, 100, 50),
        "n_s 2 p_s None": (0.9, 0.8, 2, None, 100, 50),
        "n_s 2.5": (0.9, 0.8, 2.5, 0.85, 100, 50),
        "n_s True": (0.9, 0.8, True, 0.85, 100, 50),
        "n_s 0": (0.9, 0.8, 0, 0.85, 100, 50),
        "p_h0 0": (0.0, 0.8, 2, 0.85, 100, 50),
        "p_h1 nan": (0.9, NAN, 2, 0.85, 100, 50),
        "zero total": (0.9, 0.8, 2, 0.85, 0, 0),
    }
    for bad in (-1, 2.5, NAN, INF, True, "5", None):
        params[f"n_h0 {bad!r}"] = (0.9, 0.8, 2, 0.85, bad, 50)
        params[f"n_h1 {bad!r}"] = (0.9, 0.8, 2, 0.85, 100, bad)
    for name, args in params.items():
        yield f"DetectionParams {name}", call("capacity", "DetectionParams", *args)
        yield (f"detection_report_row {name}",
               lambda args=args: api("capacity", "detection_report_row")(
                   api("capacity", "DetectionParams")(*args), "task"))

    def writers():
        rows = [api("capacity", "label_bits_report")(
                    cc, list(ss), api("hierarchy", "build_task_preset")(preset),
                    api("capacity", "counts_from_confusions")(cc, ss), task=preset)
                for preset, (cc, ss) in zip(PRESETS, writer_confusions)]
        rows.append(api("capacity", "detection_report_row")(
            api("capacity", "DetectionParams")(0.9, 0.9, 2, 0.85, 2162, 990), "README"))
        Path("label_bits").mkdir()
        api("capacity", "write_bits_csv")(rows, "label_bits/bits.csv")
        api("capacity", "write_bits_json")(rows, "label_bits/bits.json")
        return written("label_bits")

    writer_confusions = [random_confusions(rng, spc) for spc in PRESETS.values()]
    yield "write_bits_csv and write_bits_json", writers


# ---------------------------------------------------------------------------
# 5. Config files: each INI's ExperimentConfig.to_dict() as JSON, or the error.

COUNTS = ("3", "2.0", "2.5", "1e1", "0", "-1", "true", "pony", "")
REALS = ("0.01", "1e-3", "2", "0", "-1", "nan", "inf", "pony")
WIDTHS = ("16", "16,8", "0", "8.0", "8.5", "", "pony")
TRAIN_KEYS = {"hidden_layers": WIDTHS, "epochs": COUNTS, "batch_size": COUNTS,
              "learning_rate": REALS, "weight_decay": REALS, "lr_decay": REALS}
KEY_VALUES = {
    "data": {
        "task": ("SL21", "ClassLevel", "SL12", "sl22", "SL%22", ""),
        "samples_per_subclass": ("10,10,20,20", "10 10 20 20", "10,10", "10.0,10,20,20",
                                 "10.5,10,20,20", "1,1,4,4", "0,5,5,5", "pony"),
        "difficulty": ("0.5", "0.1,0.9,0.1,0.9", "0.1,0.9", "nan,0,0,0", "1.5,0,0,0", "-0.1"),
        "feature_dim": COUNTS,
        "train_fraction": ("0.25", "0.75", "0", "1", "nan", "pony"),
        "seed": ("7", "1e3", "2.0", "2.5", "-1", "9007199254740993", "true", "pony"),
    },
    "teacher": TRAIN_KEYS,
    "student": TRAIN_KEYS,
    "distill": {"tau_skd": REALS, "tau_kd": REALS, "lam": REALS + ("0.5", "1")},
    "experiment": {"n_seeds": COUNTS},
}
WHOLE_FILES = {
    "empty file": "",
    "comments only": "# nothing\n; set here\n",
    "defaults written out": (
        "[data]\ntask = SL22  # the preset\nsamples_per_subclass = 248,248,540,540\n"
        "difficulty = 0.2,0.8,0.2,0.8\nfeature_dim = 2\ntrain_fraction = 0.5\nseed = 1000\n"
        "[teacher]\nhidden_layers = 64,32\nepochs = 40\nbatch_size = 32\nlearning_rate = 0.001\n"
        "weight_decay = 0.0005\nlr_decay = 0.91\n[student]\nhidden_layers = 8\nepochs = 30\n"
        "[distill]\ntau_skd = 5.0\ntau_kd = 128.0\nlam = 0.45\n[experiment]\nn_seeds = 30\n"),
    "every key changed": (
        "[data]\ntask = SL21\nsamples_per_subclass = 12,14,30\ndifficulty = 0.3,0.6,0.1\n"
        "feature_dim = 3\ntrain_fraction = 0.6\nseed = 5\n"
        "[teacher]\nhidden_layers = 16,8\nepochs = 3\nbatch_size = 16\nlearning_rate = 0.002\n"
        "weight_decay = 0.0001\nlr_decay = 0.95\n"
        "[student]\nhidden_layers = 4,4\nepochs = 4\nbatch_size = 8\nlearning_rate = 0.003\n"
        "weight_decay = 0\nlr_decay = 1\n"
        "[distill]\ntau_skd = 2\ntau_kd = 64\nlam = 0.3\n[experiment]\nn_seeds = 4\n"),
    "unknown section": "[techer]\nepochs = 3\n",
    "unknown key": "[teacher]\nepoch = 3\n",
    "DEFAULT section": "[DEFAULT]\nepochs = 3\n",
    "no section header": "epochs = 4\n",
    "duplicate section": "[teacher]\nepochs = 3\n[teacher]\nepochs = 4\n",
    "duplicate key": "[teacher]\nepochs = 3\nepochs = 4\n",
    "two bad keys": "[teacher]\nepochs = 2.5\nbatch_size = 0\n",
    "combination rejected": "[data]\ntask = SL21\n",
    "inline comments": "[teacher]\nepochs = 3 # three\nbatch_size = 8 ; eight\n",
    "no value": "[teacher]\nepochs\n",
}


def config_case(path):
    def case():
        parser, _ = api("cli", "_load_ini")(path)
        return json.dumps(api("cli", "_experiment_config")(parser).to_dict(), indent=2)
    return case


def config():
    files = dict(WHOLE_FILES)
    for section, keys in KEY_VALUES.items():
        for key, values in keys.items():
            for value in values:
                files[f"[{section}] {key} = {value}"] = f"[{section}]\n{key} = {value}\n"
    for i, (name, text) in enumerate(files.items()):
        yield name, config_case(write(f"config/{i:03d}.ini", text))


# ---------------------------------------------------------------------------
# 6. The command line, in-process through cli.main.

TINY_INI = ("[data]\nsamples_per_subclass = 20,20,30,30\nseed = 7\n[teacher]\nhidden_layers = 8\n"
            "epochs = 2\n[student]\nhidden_layers = 4\nepochs = 2\n[experiment]\nn_seeds = 2\n")
TINY, DATA = "inputs/tiny.ini", "cli/generate"
TEACHER, CLASS_TEACHER = "cli/teacher/checkpoint.json", "cli/teacher_class/checkpoint.json"
INPUTS = {
    "tiny.ini": TINY_INI,
    "tiny_sl21.ini": TINY_INI.replace(
        "samples_per_subclass = 20,20,30,30",
        "task = SL21\nsamples_per_subclass = 20,20,30\ndifficulty = 0.2,0.8,0.2"),
    "no_header.ini": "epochs = 4\n",
    "unknown_section.ini": "[techer]\nepochs = 3\n",
    "epochs_2.0.ini": TINY_INI.replace("epochs = 2\n[student]", "epochs = 2.0\n[student]"),
    "epochs_2.5.ini": TINY_INI.replace("epochs = 2\n[student]", "epochs = 2.5\n[student]"),
    "epochs_pony.ini": TINY_INI.replace("epochs = 2\n[student]", "epochs = pony\n[student]"),
    "rates.csv": "0.9,0.1\n0.2,0.8\n",
    "counts3.csv": "50,3,2\n4,40,6\n1,2,60\n",
    "nan.csv": "1,nan\n1,1\n",
    "negative.csv": "1,-1\n1,1\n",
    "zero_row.csv": "0,0\n1,1\n",
    "ragged.csv": "1,2\n3\n",
    "not_a_number.csv": "1,x\n1,1\n",
    "overflow.csv": "1e308,1e308\n1,1\n",
    "blank.csv": "\n\n",
    "class.csv": "900,100\n80,720\n",
    "sub0.csv": "500,100\n50,350\n",
    "sub1.csv": "300,60\n40,400\n",
    "sub1_short.csv": "300,60\n40,399\n",
    "sub_fraction.csv": "500.5,99.5\n50,350\n",
    "sub_3x3.csv": "1,0,0\n0,1,0\n0,0,1\n",
    "sl22.json": '{"subclasses_per_class": [2, 2]}\n',
    "sl21.json": '{"subclasses_per_class": [2, 1]}\n',
    "sl11.json": '{"subclasses_per_class": [1, 1]}\n',
    "h_not_json.json": "{bad\n",
    "h_no_key.json": '{"classes": [2, 2]}\n',
    "h_not_list.json": '{"subclasses_per_class": 3}\n',
    "h_fraction.json": '{"subclasses_per_class": [1.5, 2]}\n',
    "h_whole_float.json": '{"subclasses_per_class": [2.0, 2]}\n',
    "h_bool.json": '{"subclasses_per_class": [true, 2]}\n',
}


def edit_payload(change):
    """A checkpoint-text edit that applies change to the parsed payload."""
    def edit(text):
        payload = json.loads(text)
        change(payload)
        return json.dumps(payload)
    return edit


def _nan_weight(p):
    p["weights"][0][0][0] = NAN


def _stacked(p):
    p["weights"] = [[w] for w in p["weights"]]
    p["biases"] = [[b] for b in p["biases"]]


def _whole_float_dims(p):
    p["layer_dims"] = [float(d) for d in p["layer_dims"]]


def _three_features(p):
    p["layer_dims"][0] = 3
    p["weights"][0].append(p["weights"][0][0])


def _one_output_fewer(p):
    p["layer_dims"][-1] -= 1
    p["weights"][-1] = [row[:-1] for row in p["weights"][-1]]
    p["biases"][-1] = p["biases"][-1][:-1]


CHECKPOINT_EDITS = {
    "truncated": lambda text: text[: len(text) // 2],
    "nan_weight": edit_payload(_nan_weight),
    "stacked": edit_payload(_stacked),
    "no_level": edit_payload(lambda p: p.pop("label_level")),
    "level_coarse": edit_payload(lambda p: p.__setitem__("label_level", "coarse")),
    "dims_whole_floats": edit_payload(_whole_float_dims),
    "dims_fraction": edit_payload(lambda p: p["layer_dims"].__setitem__(0, 2.5)),
    "dims_null": edit_payload(lambda p: p["layer_dims"].__setitem__(0, None)),
    "three_features": edit_payload(_three_features),
    "one_output_fewer": edit_payload(_one_output_fewer),
    "format_only": lambda text: '{"format": "skdlab-net-v1"}\n',
    "a_list": lambda text: "[1, 2]\n",
    "not_json": lambda text: "{bad\n",
}


def _edit_row(column, value):
    """A train.csv edit that sets one cell of its first sample row."""
    def edit(text):
        lines = text.splitlines(keepends=True)
        cells = lines[1].rstrip("\n").split(",")
        cells[column] = value(cells[column])
        lines[1] = ",".join(cells) + "\n"
        return "".join(lines)
    return edit


DATA_EDITS = {
    "empty_train": lambda text: "",
    "header_only": lambda text: text.splitlines(keepends=True)[0],
    "nan_feature": _edit_row(0, lambda cell: "nan"),
    "label_whole_float": _edit_row(-2, lambda cell: f"{cell}.0"),
    "label_fraction": _edit_row(-2, lambda cell: "1.5"),
    "label_out_of_range": _edit_row(-2, lambda cell: "9"),
    "class_not_owner": _edit_row(-1, lambda cell: str(1 - int(cell))),
    "short_row": lambda text: text + "0.5,1\n",
}


def derived_checkpoint(name):
    """A setup that writes inputs/<name>.json, the subclass teacher's checkpoint edited."""
    def setup():
        write(f"inputs/{name}.json", CHECKPOINT_EDITS[name](Path(TEACHER).read_text()))
    return setup


def derived_data(name):
    """A setup that copies the generated data to inputs/<name>/ with train.csv edited."""
    def setup():
        shutil.copytree(DATA, f"inputs/{name}")
        train = Path(f"inputs/{name}/train.csv")
        train.write_text(DATA_EDITS[name](train.read_text()))
    return setup


def cli_case(name, argv, setup=None):
    """A case that runs cli.main(argv) (after setup) and records its exit code and
    the files written under cli/<name>, where argv's outputs go."""
    def case():
        if setup:
            setup()
        try:
            code = api("cli", "main")(argv)
        except SystemExit as exc:  # argparse exits through it
            code = exc.code
        return {"exit": code, "files": written(Path("cli", name))}
    return name, case


def cli():
    for name, text in INPUTS.items():
        write(f"inputs/{name}", text)
    Path("inputs/a_directory").mkdir()
    train = ["train", "-c", TINY, "--data", DATA]
    teacher, student = train + ["--role", "teacher"], train + ["--role", "student", "--mode"]
    yield cli_case("generate", ["generate", "-c", TINY, "-o", DATA])
    yield cli_case("generate_sl21",
                   ["generate", "-c", "inputs/tiny_sl21.ini", "-o", "cli/generate_sl21"])
    yield cli_case("teacher", teacher + ["-o", "cli/teacher"])
    yield cli_case("teacher_class", teacher + ["--labels", "class", "-o", "cli/teacher_class"])
    for mode in ("baseline", "subclass"):
        yield cli_case(f"student_{mode}", student + [mode, "-o", f"cli/student_{mode}"])
    yield cli_case("student_kd",
                   student + ["kd", "--teacher", CLASS_TEACHER, "-o", "cli/student_kd"])
    yield cli_case("student_skd", student + ["skd", "--teacher", TEACHER, "-o", "cli/student_skd"])
    flag_errors = {
        "teacher_with_mode": ["--role", "teacher", "--mode", "kd"],
        "student_without_mode": ["--role", "student"],
        "student_with_labels": ["--role", "student", "--mode", "baseline", "--labels", "class"],
        "kd_without_teacher": ["--role", "student", "--mode", "kd"],
        "baseline_with_teacher": ["--role", "student", "--mode", "baseline", "--teacher", TEACHER],
        "kd_with_subclass_teacher": ["--role", "student", "--mode", "kd", "--teacher", TEACHER],
        "skd_with_class_teacher": ["--role", "student", "--mode", "skd",
                                   "--teacher", CLASS_TEACHER],
        "mode_unknown": ["--role", "student", "--mode", "distill"],
    }
    for name, flags in flag_errors.items():
        yield cli_case(f"train_{name}", train + flags + ["-o", f"cli/train_{name}"])
    for name in ("epochs_2.0", "epochs_2.5", "epochs_pony", "no_header", "unknown_section"):
        argv = ["train", "-c", f"inputs/{name}.ini", "--data", DATA, "--role", "teacher"]
        yield cli_case(f"train_config_{name}", argv + ["-o", f"cli/train_config_{name}"])
    for name, path in (("missing", "inputs/missing.ini"), ("directory", "inputs/a_directory")):
        argv = ["generate", "-c", path, "-o", f"cli/generate_config_{name}"]
        yield cli_case(f"generate_config_{name}", argv)

    evaluate = ["evaluate", "--data", DATA, "--checkpoint"]
    yield cli_case("evaluate", evaluate + [TEACHER, "-o", "cli/evaluate/eval.json"],
                   lambda: Path("cli/evaluate").mkdir())
    yield cli_case("evaluate_train_split",
                   evaluate + ["cli/student_skd/checkpoint.json", "--split", "train"])
    yield cli_case("evaluate_class_teacher", evaluate + [CLASS_TEACHER])
    yield cli_case("evaluate_failed_write",
                   evaluate + [TEACHER, "-o", "cli/evaluate_failed_write/no/eval.json"])
    yield cli_case("evaluate_missing_checkpoint", evaluate + ["inputs/missing.json"])
    yield cli_case("evaluate_checkpoint_directory", evaluate + ["inputs/a_directory"])
    yield cli_case("evaluate_missing_both",
                   ["evaluate", "--data", "inputs/no_data", "--checkpoint", "inputs/missing.json"])
    yield cli_case("evaluate_subclass_teacher_on_sl21",
                   ["evaluate", "--data", "cli/generate_sl21", "--checkpoint", TEACHER])
    for name in CHECKPOINT_EDITS:
        argv = evaluate + [f"inputs/{name}.json"]
        yield cli_case(f"evaluate_{name}", argv, derived_checkpoint(name))
    for name in ("no_level", "stacked", "nan_weight", "three_features", "one_output_fewer",
                 "dims_whole_floats"):
        argv = student + ["skd", "--teacher", f"inputs/{name}.json", "-o"]
        yield cli_case(f"student_skd_teacher_{name}", argv + [f"cli/student_skd_teacher_{name}"])
    for name in DATA_EDITS:
        argv = ["evaluate", "--data", f"inputs/{name}", "--split", "train", "--checkpoint", TEACHER]
        yield cli_case(f"evaluate_data_{name}", argv, derived_data(name))
    argv = ["train", "-c", TINY, "--data", "inputs/label_whole_float", "--role", "teacher"]
    yield cli_case("teacher_data_label_whole_float",
                   argv + ["-o", "cli/teacher_data_label_whole_float"])

    for jobs in ("1", "2", "2.0", "2.5", "0", "abc"):
        argv = ["experiment", "-c", TINY, "-o", f"cli/experiment_jobs_{jobs}", "--jobs", jobs]
        yield cli_case(f"experiment_jobs_{jobs}", argv)

    capacity = {
        "qsc_3": ["--qsc", "3", "0.7"],
        "qsc_3.0": ["--qsc", "3.0", "0.7"],
        "qsc_2.5": ["--qsc", "2.5", "0.7"],
        "qsc_1": ["--qsc", "1", "0.5"],
        "qsc_below_chance": ["--qsc", "4", "0.1"],
        "bac": ["--bac", "0.9", "0.8"],
        "bac_singular": ["--bac", "0.5", "0.5"],
        "bac_zero": ["--bac", "0", "0.5"],
        "z": ["--z", "0.5"],
        "z_out_of_range": ["--z", "1.5"],
        "two_channels": ["--z", "0.5", "--bac", "0.9", "0.8"],
        "no_channel": [],
        "matrix_directory": ["--matrix", "inputs/a_directory"],
    }
    for name in ("rates", "counts3", "nan", "negative", "zero_row", "ragged", "not_a_number",
                 "overflow", "blank", "missing"):
        capacity[f"matrix_{name}"] = ["--matrix", f"inputs/{name}.csv"]
    for name, flags in capacity.items():
        yield cli_case(f"capacity_{name}", ["capacity"] + flags)

    def params(p_h1="0.9", n_s="2", p_s=("--p-s", "0.85"), n_h0="2162", n_h1="990"):
        return ["bits", "--p-h0", "0.9", "--p-h1", p_h1, "--n-s", n_s, *p_s,
                "--n-h0", n_h0, "--n-h1", n_h1]

    confusion = ["bits", "--from-confusion", "inputs/class.csv", "--hierarchy"]
    sl22, sl21 = confusion + ["inputs/sl22.json"], confusion + ["inputs/sl21.json"]
    sub0 = ["--subclass-confusion", "inputs/sub0.csv"]
    sub1 = ["--subclass-confusion", "inputs/sub1.csv"]
    bits = {
        "readme": params(),
        "readme_written": params() + ["--task", "SL22", "-o", "cli/bits_readme_written"],
        "whole_floats": params(n_s="2.0", n_h0="2162.0", n_h1="990.0"),
        "n_h0_fraction": params(n_h0="2162.5"),
        "n_h0_negative": params(n_h0="-1"),
        "n_h0_not_a_number": params(n_h0="abc"),
        "n_s_fraction": params(n_s="2.5"),
        "n_s_1": params(p_h1="0.8", n_s="1", p_s=(), n_h0="100", n_h1="50"),
        "n_s_1_with_p_s": params(p_h1="0.8", n_s="1", p_s=("--p-s", "0.9"), n_h0="100", n_h1="50"),
        "missing_flags": ["bits", "--p-h0", "0.9"],
        "sl22": sl22 + sub0 + sub1 + ["--task", "SL22", "-o", "cli/bits_sl22"],
        "sl21": sl21 + sub0 + ["-o", "cli/bits_sl21"],
        "sl22_one_subclass_file": sl22 + sub0,
        "sl22_subclass_total": sl22 + sub0 + ["--subclass-confusion", "inputs/sub1_short.csv"],
        "sl22_fraction": sl22 + ["--subclass-confusion", "inputs/sub_fraction.csv"] + sub1,
        "sl22_subclass_3x3": sl22 + ["--subclass-confusion", "inputs/sub_3x3.csv"] + sub1,
        "sl22_class_3x3": ["bits", "--from-confusion", "inputs/counts3.csv", "--hierarchy",
                           "inputs/sl22.json"] + sub0 + sub1,
        "without_hierarchy": ["bits", "--from-confusion", "inputs/class.csv"] + sub0 + sub1,
        "hierarchy_missing": confusion + ["inputs/missing.json"] + sub0 + sub1,
        "hierarchy_directory": confusion + ["inputs/a_directory"] + sub0 + sub1,
        "class_missing": ["bits", "--from-confusion", "inputs/missing.csv", "--hierarchy",
                          "inputs/sl22.json"] + sub0 + sub1,
        "class_overflow": ["bits", "--from-confusion", "inputs/overflow.csv", "--hierarchy",
                           "inputs/sl11.json"],
    }
    for name in ("not_json", "no_key", "not_list", "fraction", "whole_float", "bool"):
        bits[f"hierarchy_{name}"] = confusion + [f"inputs/h_{name}.json"] + sub0 + sub1
    for name, argv in bits.items():
        yield cli_case(f"bits_{name}", argv)
    yield cli_case("no_command", [])


# ---------------------------------------------------------------------------
# 7. Training: losses, gradients, trained parameters and reports.

SMALL_CONFIGS = {
    "sl22_small": dict(samples_per_subclass=(20, 20, 30, 30), n_seeds=2,
                       teacher=dict(hidden_layers=(8,), epochs=2), student=dict(epochs=2)),
    "sl21_3d": dict(task="SL21", samples_per_subclass=(15, 15, 25), difficulty=(0.5, 0.5, 0.5),
                    feature_dim=3, n_seeds=2, tau_skd=2.0, tau_kd=16.0, lam=0.3,
                    teacher=dict(hidden_layers=(6, 4), epochs=1, batch_size=8),
                    student=dict(hidden_layers=(4,), epochs=2, batch_size=8, lr_decay=1.0)),
}


def small_config(name):
    kw = dict(SMALL_CONFIGS[name])
    kw["teacher"] = api("training", "TrainConfig")(**kw["teacher"])
    kw["student"] = api("training", "student_train_config")(**kw["student"])
    return api("experiment", "ExperimentConfig")(**kw)


def backward_case(dims, seed, tau=None, lam=None, width=True):
    """A case for backward and the spec alone: CE (tau None) or the combined spec."""
    def case():
        rng = np.random.default_rng([seed, 7])
        features = rng.normal(size=(16, dims[0]))
        labels = rng.integers(0, dims[-1], 16)
        if tau is None:
            spec = api("losses", "CrossEntropyOnLabels")(labels, dims[-1] if width else None)
        else:
            teacher_logits = 3 * rng.normal(size=(16, dims[-1]))
            spec = api("losses", "CombinedObjective")(labels, teacher_logits, tau, lam)
        net = api("network", "init_network")(dims, seed)
        loss, grads = api("network", "backward")(net, features, spec)
        logits = api("network", "forward")(net, features)
        spec_loss, logit_grad = spec.loss_and_logit_grad(logits)
        return {"loss": loss, "gradient": grads.flat,
                "spec_loss": spec_loss, "logit_grad": logit_grad}
    return case


def variants_case(name, seed):
    def case():
        cfg = small_config(name)
        data = api("data", "generate_synthetic")(cfg.data_spec(seed))
        train_set, _ = api("data", "split_dataset")(data, cfg.train_fraction, seed)
        results = api("experiment", "train_variants")(cfg, seed, train_set)
        return {v: {"params": r.network.params, "loss_per_epoch": r.loss_per_epoch}
                for v, r in results.items()}
    return case


def single_seed_case(name, seed):
    def case():
        metrics = api("experiment", "run_single_seed")(small_config(name), seed)
        return {v: m.to_dict() for v, m in metrics.items()}
    return case


def experiment_case(name, jobs):
    """A case for the report JSON of run_experiment, as report.json holds it."""
    def case():
        report, _ = api("experiment", "run_experiment")(small_config(name), jobs=jobs)
        return json.dumps(report, indent=2) + "\n"
    return case


def training():
    for dims in ((2, 8, 4), (3, 6, 4, 2)):
        for seed in (0, 1):
            yield f"backward CE {list(dims)} seed {seed}", backward_case(dims, seed)
        yield f"backward CE without width {list(dims)}", backward_case(dims, 2, width=False)
        for tau, lam in ((1.0, 0.0), (5.0, 0.45), (128.0, 0.45), (2.0, 1.0)):
            yield (f"backward combined {list(dims)} tau {tau} lam {lam}",
                   backward_case(dims, 3, tau, lam))
    yield "combined lam 1.5", backward_case((2, 4), 0, 1.0, 1.5)
    for name in SMALL_CONFIGS:
        for seed in (1000, 1001):
            yield f"train_variants {name} seed {seed}", variants_case(name, seed)
            yield f"run_single_seed {name} seed {seed}", single_seed_case(name, seed)
        for jobs in (1, 2):
            yield f"run_experiment {name} jobs {jobs}", experiment_case(name, jobs)


# ---------------------------------------------------------------------------
# 8. The demos, each in its own directory.


def demo_case(path: Path):
    def case():
        work = Path("demos", path.stem)
        work.mkdir(parents=True)
        proc = subprocess.run([sys.executable, str(path)], cwd=work, capture_output=True, text=True,
                              timeout=DEMO_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        if proc.returncode:  # the exception's line: the traceback above it names this tree's paths
            sys.stderr.write("".join(proc.stderr.strip().splitlines()[-1:]))
        return {"exit": proc.returncode, "files": written(work)}
    return case


def demos():
    tree = Path(importlib.util.find_spec("skdlab").origin).parents[2]
    for path in sorted((tree / "demos").glob("*.py")):
        yield path.stem, demo_case(path)


FAMILIES = {
    "closed_forms": closed_forms,
    "blahut_arimoto": blahut_arimoto,
    "confusions": confusions,
    "label_bits": label_bits,
    "config": config,
    "cli": cli,
    "training": training,
    "demos": demos,
}


def main() -> None:
    seen = set()
    for family, cases in FAMILIES.items():
        for name, case in cases():
            case_id = f"{family}/{name}"
            if case_id in seen:
                raise ValueError(f"duplicate case id {case_id!r}")
            seen.add(case_id)
            sys.stdout.write(json.dumps(run_case(case_id, case)) + "\n")


if __name__ == "__main__":
    main()
