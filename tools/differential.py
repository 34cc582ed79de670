#!/usr/bin/env python3
"""Run one fixed, seeded corpus against two trees and print every case whose result differs.

    parent=$(mktemp -d)
    git archive HEAD src demos | tar -x -C "$parent"
    python tools/differential.py --parent "$parent" --change .

Each tree's corpus (tools/corpus.py, the same script for both) runs in its
own child process, with PYTHONPATH=DIR/src, OPENBLAS_NUM_THREADS=1 and
PYTHONDONTWRITEBYTECODE=1, in a fresh temporary directory that is removed
afterwards, so nothing is written into either tree.  This script never
imports skdlab itself.

Records compare exactly: a value keeps its type, and a float every bit.  The
one exception is a capacity that blahut_arimoto returns, which compares within
CAPACITY_TOL.  A case present in one tree only differs too.  Each differing
case prints as "family/name: parent=... change=...", showing its outcome and
every other field that differs; then each family prints "family: N cases, M
differ".

Exit code 0: no case differs; 1: some case differs; 2: a DIR has no
src/skdlab, or a child crashed or timed out (its stderr is printed).
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

CORPUS = Path(__file__).resolve().with_name("corpus.py")
CAPACITY_TOL = 2e-10  # twice blahut_arimoto's default tol, the tol of every corpus solve
TIMEOUT_S = 600


class ChildFailed(Exception):
    def __init__(self, message: str, stderr: str = ""):
        super().__init__(message)
        self.stderr = stderr


def run_corpus(tree: Path) -> list[dict]:
    """The corpus's records for tree, run in a child process in a fresh directory."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory(prefix="skdlab-corpus-") as work:
        # its own session, so a timeout also ends the demos and pool workers it started
        with subprocess.Popen([sys.executable, str(CORPUS)], cwd=work, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              start_new_session=True) as child:
            try:
                out, err = child.communicate(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                out, err = child.communicate()
                raise ChildFailed(f"{tree}: the corpus timed out after {TIMEOUT_S} s", err) \
                    from None
    if child.returncode:
        raise ChildFailed(f"{tree}: the corpus exited with code {child.returncode}", err)
    try:
        return [json.loads(line) for line in out.splitlines()]
    except json.JSONDecodeError as exc:
        raise ChildFailed(f"{tree}: the corpus printed a line that is no record ({exc})", err) \
            from None


def close(a, b) -> bool:
    """a and b are encoded floats of one type within CAPACITY_TOL."""
    return (isinstance(a, list) and isinstance(b, list) and len(a) == len(b) == 3
            and a[:2] == b[:2] and a[0] == "float"
            and abs(float.fromhex(a[2]) - float.fromhex(b[2])) <= CAPACITY_TOL)


def same(a, b) -> bool:
    """Two encoded values (or records) are equal, a tagged capacity within CAPACITY_TOL."""
    if isinstance(a, list) and isinstance(b, list):
        if a[:1] == b[:1] == ["capacity"] and len(a) == len(b) == 2:
            return same(a[1], b[1]) or close(a[1], b[1])
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


def differences(parent: list[dict], change: list[dict]) -> list[tuple]:
    """(id, parent record, change record) for each case that differs, in corpus order;
    a case that one side lacks has None there."""
    old = {r["id"]: r for r in parent}
    new = {r["id"]: r for r in change}
    ids = list(old) + [i for i in new if i not in old]
    return [(i, old.get(i), new.get(i)) for i in ids if not same(old.get(i), new.get(i))]


def readable(enc) -> str:
    """An encoded value written as Python-like text."""
    if not isinstance(enc, list):
        return repr(enc)
    kind, *rest = enc
    if kind in ("bool", "int", "float"):
        name, text = rest
        shown = repr(float.fromhex(text)) if kind == "float" else str(text)
        return shown if name == kind else f"{name}({shown})"
    if kind == "capacity":
        return f"capacity {readable(rest[0])}"
    if kind in ("list", "tuple"):
        items = ", ".join(map(readable, rest[0]))
        return f"[{items}]" if kind == "list" else f"({items})"
    if kind == "dict":
        return "{" + ", ".join(f"{readable(k)}: {readable(v)}" for k, v in rest[0]) + "}"
    if kind == "ndarray":
        dtype, shape, entries = rest
        if isinstance(entries, dict):
            return f"array({dtype}, {tuple(shape)}, sha256 {entries['sha256']})"
        if "f" in dtype:
            entries = [float.fromhex(e) for e in entries]
        return f"array({dtype}, {tuple(shape)}, {entries})"
    name, values = rest  # an "object": a dataclass by its type's name and fields
    return f"{name}(" + ", ".join(f"{k}={readable(v)}" for k, v in values.items()) + ")"


def field_text(key, mine, theirs) -> str:
    """A record's value (key None) as readable text, or another field as key=repr; of two
    multi-line strings, the first line that differs."""
    if isinstance(mine, str) and isinstance(theirs, str) and "\n" in mine + theirs:
        lines, other = mine.splitlines(), theirs.splitlines()
        at = next(i for i in range(max(len(lines), len(other)) + 1)
                  if lines[i:i + 1] != other[i:i + 1])
        return f"{key or 'value'} line {at + 1}: {lines[at] if at < len(lines) else '<end>'!r}"
    return readable(mine) if key is None else f"{key}={mine!r}"


def narrowed(mine, theirs):
    """Of two encoded dicts that differ, mine's entries that theirs lacks or holds otherwise,
    narrowed in turn; any other value as it is."""
    if not (isinstance(mine, list) and isinstance(theirs, list)) or same(mine, theirs) \
            or not mine[:1] == theirs[:1] == ["dict"]:
        return mine
    held = {json.dumps(k): v for k, v in theirs[1]}
    return ["dict", [[k, narrowed(v, held[json.dumps(k)]) if json.dumps(k) in held else v]
                     for k, v in mine[1] if not same(v, held.get(json.dumps(k)))]]


def show(record, other) -> str:
    """record's outcome (the exception it raised, or its value, a dict narrowed to the
    entries that differ from other's), then each other field that differs from other's."""
    if record is None:
        return "<missing>"
    other = other or {}
    if "raised" in record:
        parts = ["raised {}: {!r}".format(*record["raised"])]
    else:
        theirs = other.get("value")
        parts = [field_text(None, narrowed(record["value"], theirs), theirs)]
    parts += [field_text(key, record[key], other.get(key))
              for key in ("warnings", "stdout", "stderr")
              if not same(record[key], other.get(key, record[key]))]
    return "; ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for side in ("--parent", "--change"):
        parser.add_argument(side, required=True, type=Path,
                            help="a tree with src/skdlab and demos/")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    records = {}
    try:
        for side, tree in trees.items():
            if not (tree / "src" / "skdlab").is_dir():
                raise ChildFailed(f"--{side} {tree}: no src/skdlab")
        for side, tree in trees.items():
            records[side] = run_corpus(tree)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.stderr.write(exc.stderr)
        return 2

    found = differences(records["parent"], records["change"])
    for case, old, new in found:
        print(f"{case}: parent={show(old, new)} change={show(new, old)}")
    cases = dict.fromkeys(r["id"] for r in records["parent"] + records["change"])
    total = Counter(case.split("/", 1)[0] for case in cases)
    differ = Counter(case.split("/", 1)[0] for case, _, _ in found)
    for family, n in total.items():
        print(f"{family}: {n} cases, {differ[family]} differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
