"""Which statements of the package does no test reach?

Runs the tier-1 suite in this process under a line tracer of the standard
library (``sys.settrace``, and ``threading.settrace`` for threads the tests
start), then lists every executable statement of ``src/liemaxwell/*.py``
that raised no line event, one ``path:line: source`` line each::

    python3 tests/reach.py [PYTEST_ARG ...]

Extra arguments go to pytest after the tier-1 ones (``-q
--continue-on-collection-errors``), e.g. ``--deselect`` of a test.

A statement is executable when one of its own lines (its lines outside the
statements nested in it, decorators included) carries bytecode; so
declarations that never produce a line event, such as ``global``, are
skipped.  It is reached when one of its own lines raised a line event.
Work done in subprocesses and pool workers is not traced: a statement that
only they run counts as unreached.

It exits 1 when pytest fails or when a statement other than those of
``EXPECTED`` is unreached, else 0.  pytest does not collect this file.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "liemaxwell"

#: Statements no test can reach in-process: (file name, source text).
#: ``python -m liemaxwell.cli`` is the only way into its ``__main__`` guard.
EXPECTED = {("cli.py", "sys.exit(main())")}


def _code_lines(code) -> set[int]:
    """Lines that carry bytecode in ``code`` and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _span(node: ast.stmt) -> set[int]:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return set(range(first, node.end_lineno + 1))


def executable(path: Path) -> list[tuple[int, set[int]]]:
    """(first line, own lines) of each executable statement of ``path``."""
    source = path.read_text()
    with_code = _code_lines(compile(source, str(path), "exec"))
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        own = _span(node)
        for inner in ast.walk(node):
            if inner is not node and isinstance(inner, ast.stmt):
                own -= _span(inner)
        if own & with_code:
            out.append((min(own), own))
    return sorted(out, key=lambda item: item[0])


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines of each package file that ran."""
    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        seen = hits.setdefault(filename, set())

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line
        return on_line

    sys.path.insert(0, str(ROOT / "src"))
    import pytest  # imported before tracing: pytest's own code needs no trace

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", str(ROOT / "tests"), *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    import liemaxwell
    if Path(liemaxwell.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"traced {liemaxwell.__file__}, not the package under {PACKAGE}")
    return int(code), hits


def main(argv: list[str]) -> int:
    code, hits = traced_run(argv)
    unexpected = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        lines = path.read_text().splitlines()
        for first, own in executable(path):
            if own & ran:
                continue
            text = lines[first - 1].strip()
            known = (path.name, text) in EXPECTED
            unexpected += not known
            print(f"{path.relative_to(ROOT)}:{first}: {text}" + ("  (expected)" if known else ""))
    print(f"pytest exit code {code}; {unexpected} unexpected unreached statement(s)")
    return 1 if code or unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
