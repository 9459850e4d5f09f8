"""Which lines of ``src/repro/`` does production reach?

    python tools/production_trace.py ENTRY [ENTRY ...]

Each ENTRY is one quoted command line, ``"path/to/script.py args"`` or
``"-m package.module args"``.  Every entry runs in this process (through
``runpy``, under a line tracer restricted to files below ``src/repro/``);
what the entries print goes to stderr, and the report to stdout: total
executable lines (from the compiled modules' ``co_lines()``), the lines no
entry reached, then every function no entry entered, largest first.
Exits 1 if an entry did.
"""

from __future__ import annotations

import contextlib
import runpy
import shlex
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src" / "repro") + "/"
hits: set[tuple[str, int]] = set()       # (file, line) executed
entered: set[tuple[str, int]] = set()    # (file, first line) of code called


def _global_trace(frame, event, arg):
    """Trace only frames whose code lives under ``src/repro/``."""
    filename = frame.f_code.co_filename
    if not filename.startswith(SRC):
        return None
    entered.add((filename, frame.f_code.co_firstlineno))
    return _local_trace


def _local_trace(frame, event, arg):
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local_trace


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def _run(entry: str) -> int:
    argv = shlex.split(entry)
    as_module = argv[0] == "-m"
    sys.argv = argv[1:] if as_module else argv
    try:
        with contextlib.redirect_stdout(sys.stderr):
            if as_module:
                runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
            else:
                runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as stop:
        return stop.code if isinstance(stop.code, int) else int(bool(stop.code))
    return 0


def main(entries: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(_global_trace)
    sys.settrace(_global_trace)
    try:
        failed = [entry for entry in entries if _run(entry)]
    finally:
        sys.settrace(None)
        threading.settrace(None)

    executable: set[tuple[str, int]] = set()
    never_entered = []
    for path in sorted(Path(SRC).rglob("*.py")):
        name = str(path)
        module = compile(path.read_text(encoding="utf-8"), name, "exec")
        for code in _code_objects(module):
            lines = {line for _, _, line in code.co_lines() if line}
            executable.update((name, line) for line in lines)
            if (not code.co_name.startswith("<")
                    and (name, code.co_firstlineno) not in entered):
                span = max(lines) - code.co_firstlineno + 1
                never_entered.append((span, path.relative_to(ROOT),
                                      code.co_firstlineno,
                                      getattr(code, "co_qualname",
                                              code.co_name)))
    print(f"executable lines: {len(executable)}")
    print(f"never reached: {len(executable - hits)}")
    print(f"functions never entered: {len(never_entered)}")
    for span, path, line, name in sorted(never_entered, reverse=True):
        print(f"  {path}:{line} {name} ({span} lines)")
    for entry in failed:
        print(f"FAILED: {entry}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
