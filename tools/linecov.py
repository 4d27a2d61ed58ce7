"""Line map of the tier-1 suite: the lines of ``src/mpslab`` that no test
runs.

    python tools/linecov.py [pytest arguments]

Runs the tests (``tests/`` by default) in this process under
``sys.settrace``, standard library only, tracing frames of ``src/mpslab``
alone, and prints each unrun line as ``file:line: text``.  A line that runs
only in a subprocess, such as ``cli``'s ``__main__`` guard, counts as unrun.
Exits 1 when a test fails or more than ``BASELINE`` lines are unrun.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mpslab"
# the lines no in-process test can run: cli's __main__ guard, the assertion
# after _raise_first_error's loop, _exact_div's guard, and rank_of_universe's
# two self-checks (see CHANGES.md)
BASELINE = 5


def code_lines(code: CodeType) -> set[int]:
    """Lines of ``code`` and of the code compiled in it, at any depth."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= code_lines(const)
    return lines


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code on ``args``, and the lines run per file of the package."""
    import pytest

    prefix, ran, tracers = str(PACKAGE) + os.sep, {}, {}

    def tracer_for(filename: str):
        if not filename.startswith(prefix):
            return None
        seen = ran.setdefault(filename, set())

        def local(frame, event, arg):
            seen.add(frame.f_lineno)
            return local
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        local = tracers.get(filename, trace)
        if local is trace:
            local = tracers[filename] = tracer_for(filename)
        return local and local(frame, event, arg)

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv: list[str]) -> int:
    code, ran = traced_run(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        seen = ran.get(str(path), set())
        for line in sorted(code_lines(compile(source, str(path), "exec")) - seen):
            unrun.append(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}")
    print("\n".join(unrun))
    print(f"# {len(unrun)} unrun lines (baseline {BASELINE})")
    return 1 if code or len(unrun) > BASELINE else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
