"""Run the test suite under a line tracer; fail if a line of src/simdoa goes unrun.

Usage: PYTHONPATH=src python ci/linecov.py [pytest arguments]

No coverage package is needed. ``sys.settrace`` and ``threading.settrace`` record each line
that runs in a frame whose code lies under src/simdoa; the lines a module can run are those
its compiled code objects list. Worker processes and subprocesses are not traced, so a line
that only they run must be allowed below; the functions the process pools run also run
in-process at -j 1 in other tests. The exit code is pytest's if it is not 0, else 1 when a
line outside the allowlist went unrun, else 0.
"""

import os
import sys
import threading

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src", "simdoa")
# Files that only a subprocess runs: `python -m simdoa` runs __main__.py.
UNTRACED = {"__main__.py"}
# Lines, by file and text, that only a subprocess runs: the body of cli.py's __main__ guard.
ALLOWED = {("cli.py", "sys.exit(main())")}


def runnable_lines(path):
    """The line numbers that the code objects compiled from ``path`` list."""
    with open(path) as fh:
        todo, lines = [compile(fh.read(), path, "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run(args):
    """(pytest's exit code, {path: lines run}) of ``args`` run in-process under the tracer."""
    ran, ours = {}, {}  # ours: a code file's real path if it lies under SRC, else None

    def on_line(frame, event, arg):
        if event == "line":
            ran[ours[frame.f_code.co_filename]].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            path = os.path.realpath(name)
            ours[name] = path if os.path.dirname(path) == SRC else None
        if ours[name]:
            ran.setdefault(ours[name], set()).add(frame.f_lineno)  # a def's, or its decorator's
            return on_line
        return None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main(args):
    code, ran = traced_run(args)
    if code:
        return code
    unrun = []
    for name in sorted(os.listdir(SRC)):
        path = os.path.join(SRC, name)
        if not name.endswith(".py") or name in UNTRACED:
            continue
        with open(path) as fh:
            text = fh.read().splitlines()
        for line in sorted(runnable_lines(path) - ran.get(path, set())):
            if (name, text[line - 1].strip()) not in ALLOWED:
                unrun.append(f"src/simdoa/{name}:{line}: {text[line - 1].strip()}")
    print("\n".join(unrun) or "every src/simdoa line ran", file=sys.stderr)
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
