"""No test-only code in src/: every top-level def and class in src/skdlab is used by the program.

A name counts as used when it appears as a whole word under src/, demos/ or perfbench/
anywhere but its own definition line.  The exceptions are ROADMAP's "Test-only names that
stay": everything the acceptance gate imports, because the gate is the behaviour to keep,
and the references the tests compare the fused loss and the closed forms against.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = ("src", "demos", "perfbench")
REFERENCES = {"student_objective", "DistillAgainstTeacher", "mutual_information"}


def gate_imports() -> set[str]:
    """The names tests/test_acceptance.py imports from skdlab."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.startswith("skdlab")
        for alias in node.names
    }


def test_every_top_level_name_in_src_is_used_by_the_program():
    lines = {
        (path, number): line
        for folder in PROGRAM
        for path in sorted((ROOT / folder).rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
    }
    kept = gate_imports() | REFERENCES
    unused = []
    for path in sorted((ROOT / "src" / "skdlab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in kept:
                continue
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(line) for at, line in lines.items() if at != (path, node.lineno)):
                unused.append(f"{path.name}:{node.name}")
    assert unused == []

