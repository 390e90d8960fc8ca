"""List the statements of ``src/`` that no test executes.

    python tools/untested_lines.py [PYTEST_ARGS ...]

Runs the tier-1 suite (``python -m pytest`` from the repository root, with
``PYTEST_ARGS``, default ``-q``) with a line tracer in every Python process
it starts: the tracer is a ``sitecustomize`` module written to a temporary
directory put first on ``PYTHONPATH``, so the CLI processes the tests start
are traced too (a process started with another ``PYTHONPATH`` is not).
Each process records the lines it runs in ``src/`` and writes them out at
exit.  Then prints each statement under ``src/`` whose lines none of them
ran, as ``path:line: source``, and a count.  Exits 1 when any statement is
listed and 0 when none is, so CI fails on a statement that no test runs.
Pytest's own status is printed but does not decide the exit status: the
tracer slows the suite, some tests threefold or more, enough for a test
with a time budget to fail, while a run that stops early misses
statements and so still exits 1.

It uses the standard library only; the tracer is ``sys.settrace``.  A
statement counts as run when any of its lines ran: a compound statement by
its header (decorators included), a simple one by any line it spans.
Docstrings, ``global`` and ``nonlocal`` run no code and are not listed.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Written as sitecustomize.py; {src} and {out} are filled in.
TRACER = """
import atexit, json, os, sys, threading

_SRC, _OUT = {src!r}, {out!r}
_hits = set()

def _line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line

def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(_SRC) else None

def _save():
    sys.settrace(None)
    path = os.path.join(_OUT, "%d.json" % os.getpid())
    with open(path, "w") as fh:
        json.dump(sorted(_hits), fh)

atexit.register(_save)
threading.settrace(_call)
sys.settrace(_call)
"""


def statements(tree: ast.AST):
    """Each statement that runs code, with the lines that show it ran."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring, or a bare constant
        body = getattr(node, "body", None)
        if body:
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            lines = range(first, max(node.lineno + 1, body[0].lineno))
        else:
            lines = range(node.lineno, node.end_lineno + 1)
        yield node, set(lines)


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as site, tempfile.TemporaryDirectory() as out:
        src = str(SRC) + os.sep
        Path(site, "sitecustomize.py").write_text(TRACER.format(src=src, out=out))
        path = [site, str(SRC), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        status = subprocess.run(
            [sys.executable, "-m", "pytest", *(argv or ["-q"])], cwd=ROOT, env=env
        ).returncode
        hits: dict[str, set[int]] = {}
        for report in Path(out).glob("*.json"):
            for filename, line in json.loads(report.read_text()):
                hits.setdefault(filename, set()).add(line)
    untested = 0
    for module in sorted(SRC.rglob("*.py")):
        source = module.read_text(encoding="utf-8")
        lines, ran = source.splitlines(), hits.get(str(module), set())
        missed = {
            node.lineno
            for node, spans in statements(ast.parse(source))
            if not spans & ran
        }
        for lineno in sorted(missed):
            print(f"{module.relative_to(ROOT)}:{lineno}: {lines[lineno - 1].strip()}")
        untested += len(missed)
    print(f"{untested} statements in {SRC.relative_to(ROOT)}/ that no test runs")
    print(f"pytest exited {status}")
    return int(untested > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
