"""Lines of src/groupcut/ that the tests never run, from the stdlib alone.

Runs pytest in this process under ``sys.settrace`` and prints, file by
file, the executable lines of the package that no test reached.  A line
is executable when the compiler gives it bytecode.  Code run in a
subprocess (the CLI tests that start ``python -m``) is not seen.

    python3 tools/linecov.py            # tier-1, about 5 minutes
    python3 tools/linecov.py --show tests/test_verify.py -k lifted

Arguments other than ``--show`` go to pytest; ``--show`` prints each
missed line's source.  The exit code is pytest's.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "groupcut"


def executable_lines(path: Path) -> set[int]:
    """Every line that some code object of the file has bytecode on."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(n for _, _, n in code.co_lines() if n)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def _ranges(numbers) -> str:
    out, run = [], []
    for n in sorted(numbers):
        if run and n != run[-1] + 1:
            out.append(run)
            run = []
        run.append(n)
    if run:
        out.append(run)
    return ", ".join(f"{r[0]}" if len(r) == 1 else f"{r[0]}-{r[-1]}"
                     for r in out)


def main(argv: list[str]) -> int:
    show = "--show" in argv
    args = [a for a in argv if a != "--show"] or [str(ROOT / "tests")]
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {f: set() for f in files}

    def local(frame, event, arg):
        if event in ("line", "call"):
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        if frame.f_code.co_filename in ran:
            return local(frame, event, arg)
        return None

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed_total = 0
    for name, path in files.items():
        lines = executable_lines(path)
        missed = lines - ran[name]
        total += len(lines)
        missed_total += len(missed)
        rel = path.relative_to(ROOT)
        print(f"{rel}: {len(missed)} of {len(lines)} lines never ran")
        if missed:
            print(f"  {_ranges(missed)}")
        if show:
            text = path.read_text().splitlines()
            for n in sorted(missed):
                print(f"  {n:4d}  {text[n - 1].strip()}")
    print(f"total: {missed_total} of {total} executable lines never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
