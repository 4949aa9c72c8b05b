"""List every executable line of ``src/virial_forge/`` that the tier-1 suite never runs.

Run from the repository root:

    PYTHONPATH=src python tests/unrun_lines.py [extra pytest arguments]

The suite runs in this process under a ``sys.settrace`` hook that records
the lines executed in the package's files.  A line is executable when its
compiled code carries an instruction for it.  Each line never run prints as
``path:line: source``; the exit code is 1 if any is listed or the suite
fails, else 0.  Tests that start a fresh interpreter are not traced, so a
line counts only if some test runs it in this process.  The hook slows the
suite about threefold, which is why tier-1 does not collect this file.
"""

import collections
import os
import sys
import threading

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "virial_forge")


def executable_lines(path):
    """Line numbers that carry an instruction in the compiled code of ``path``."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    lines, todo = set(), [compile(source, path, "exec")]
    while todo:
        code = todo.pop()
        # The instruction at offset 0 (RESUME) sits on the header line, a
        # def's own line or a module's line 0, which no "line" event reports;
        # the enclosing code runs a def's line.
        lines.update(line for start, _, line in code.co_lines() if start and line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv):
    ran = collections.defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        import pytest

        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unrun = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        missing = sorted(executable_lines(path) - ran[path])
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        for line in missing:
            print(f"{os.path.relpath(path)}:{line}: {source[line - 1].strip()}")
        unrun += len(missing)
    print(f"{unrun} unrun line(s) under {os.path.relpath(PACKAGE)}")
    return 1 if unrun or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
