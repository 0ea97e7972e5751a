"""Line coverage of the package by a standard-library tracer, as a pytest plugin.

Run the whole suite under it with::

    PYTHONPATH=src python -m pytest -q -p tests.linetrace

It traces only frames whose code lies in ``src/reebforge``, through
``sys.settrace`` and ``threading.settrace``.  A module's executable lines
are those its code objects, nested ones included, list in ``co_lines``.  At
the end it prints every executable line that no test ran, and fails the
session when one is not allowed below.  Code run in a subprocess is not
traced.
"""

import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "reebforge"

# (module file, stripped line text): why no test runs it.
ALLOWED = {
    ("cli.py", "sys.exit(main())"): "the __main__ guard; tests call main() in process",
}

_hits = set()
_prefix = str(PACKAGE) + "/"
# id of a package code object -> its local tracer.  The code objects are
# kept alive, so no id is reused: a module's own code is freed after import.
_tracers = {}
_codes = []


def _tracer_for(code):
    """A local tracer that records the lines of ``code`` until each has run,
    and then stops tracing the frame, so a hot loop is traced once."""
    left = {line for _, _, line in code.co_lines() if line}
    name = code.co_filename

    def local(frame, event, arg):
        line = frame.f_lineno
        if line in left:
            left.discard(line)
            _hits.add((name, line))
        return local if left else None

    return local


def _global(frame, event, arg):
    code = frame.f_code
    if not code.co_filename.startswith(_prefix):
        return None
    local = _tracers.get(id(code))
    if local is None:
        local = _tracers[id(code)] = _tracer_for(code)
        _codes.append(code)
    return local(frame, event, arg)


def executable_lines(path):
    """The line numbers of every code object compiled from ``path``."""
    lines = set()
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # a module starts at 0
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def unrun_lines():
    """(module file, line, text) for each executable line no test ran."""
    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path)):
            if (str(path), line) not in _hits:
                unrun.append((path.name, line, text[line - 1].strip()))
    return unrun


def pytest_configure(config):
    sys.settrace(_global)
    threading.settrace(_global)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


@pytest.hookimpl(trylast=True)
def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    unrun = unrun_lines()
    refused = [u for u in unrun if (u[0], u[2]) not in ALLOWED]
    write = session.config.get_terminal_writer().line
    write("")
    write(f"linetrace: {len(unrun)} executable src/reebforge lines not run, "
          f"{len(unrun) - len(refused)} of them allowed")
    for name, line, text in unrun:
        reason = ALLOWED.get((name, text))
        write(f"  {name}:{line}: {text}" + (f"  (allowed: {reason})" if reason else ""))
    if refused and session.exitstatus == 0:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
