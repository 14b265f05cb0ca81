#!/usr/bin/env python3
"""Run the tier-1 tests, or reports, under a line tracer and print the statements of src/qrf that never ran.

Usage: python scripts/uncovered.py [PYTEST_ARG ...]
       python scripts/uncovered.py --reports [SOURCE ...]

Needs only the standard library (and pytest): ``sys.settrace`` is started
before qrf is imported, with a local tracer only on frames whose code lies
under src/qrf, and the tests run in this process through ``pytest.main``
(default arguments: the tests directory, so the ``not slow`` selection of
pyproject.toml applies).  With --reports, ``cli.run`` runs each SOURCE (a
builtin name or a config file) in this process instead; the default sources
are the 12 builtins and the benchmark's generated configs
(``run_builtins.bench_configs``, written to a temporary directory), the
reports of ``scripts/run_builtins.py --bench-configs``, and the exit code is 1
when a report has a failed check.  A statement ran when any line of it, outside the
statements nested in it, raised a line event.  Function and class
definitions, imports, docstrings and ``try`` headers are not counted.
Subprocesses that the tests start are not traced.  Exits with pytest's code.
"""

import ast
import sys
import tempfile
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qrf"
PREFIX = str(SRC) + "/"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom, ast.Try)

hits: dict[str, set[int]] = {}  # file -> lines that raised a line event


def _local(frame, event, arg):
    if event == "line":
        hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    path = frame.f_code.co_filename
    if path.startswith(PREFIX):
        hits.setdefault(path, set())
        return _local
    return None


def _docstrings(tree) -> set[int]:
    """Ids of the expression statements that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            value = body[0].value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                out.add(id(body[0]))
    return out


def statements(path: Path) -> list[tuple[int, set[int]]]:
    """(first line, own lines) of every counted statement: its lines minus those of statements nested in it."""
    tree = ast.parse(path.read_text(), str(path))
    docs = _docstrings(tree)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED) or id(node) in docs:
            continue
        own = set(range(node.lineno, node.end_lineno + 1))
        for child in ast.walk(node):
            if child is not node and isinstance(child, ast.stmt):
                own -= set(range(child.lineno, child.end_lineno + 1))
        out.append((node.lineno, own))
    return sorted(out, key=lambda s: s[0])


def run_reports(sources: list[str]) -> int:
    """Run each source's report in process: 1 if any check failed, else 0."""
    sys.path.insert(0, str(ROOT / "scripts"))
    import run_builtins  # these import qrf, so only once the tracer runs
    from qrf import cli
    from qrf.builtins_config import builtin_names

    with tempfile.TemporaryDirectory() as tmp:
        sources = sources or builtin_names() + run_builtins.bench_configs(Path(tmp))
        failed = sum(cli.run(cli.load_config(s))["summary"]["checks_failed"] for s in sources)
    return int(failed > 0)


def main() -> int:
    args = sys.argv[1:]
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        if args[:1] == ["--reports"]:
            code = run_reports(args[1:])
        else:
            code = pytest.main(args or [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    print()
    for path in sorted(SRC.glob("*.py")):
        ran = hits.get(str(path), set())
        stmts = statements(path)
        never = [first for first, own in stmts if not own & ran]
        total, missed = total + len(stmts), missed + len(never)
        print(f"{path.relative_to(ROOT)}: {len(never)} of {len(stmts)} statements never ran"
              + (f": {', '.join(map(str, never))}" if never else ""))
    print(f"total: {missed} of {total} statements never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
