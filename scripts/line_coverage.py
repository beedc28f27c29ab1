#!/usr/bin/env python3
"""Every line of src/energyshare runs under the tier-1 tests, or is allow-listed.

Runs the tier-1 suite (``tests/``) in this process under ``sys.settrace``
and ``threading.settrace``, and follows each Python subprocess the tests
start: a ``usercustomize`` module in a temporary user site traces it too
and writes its lines down at exit. A module's executable lines are those
its code objects list in ``co_lines``. Prints, by module, the count of
lines no test ran and each run of such lines with its place.

Exits 1 when the tests fail, when an unrun block is not in
:data:`ALLOWED_UNRUN`, or when an entry there does not match exactly one
unrun block (the list stays exact). Takes about three times as long as
tier-1 alone.

Usage: python scripts/line_coverage.py
"""

from __future__ import annotations

import atexit
import json
import os
import site
import sys
import sysconfig
import tempfile
import threading
import types
from collections.abc import Callable
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "energyshare"
# where a traced subprocess writes the lines it ran, one JSON file per process
_OUT_ENV = "LINE_COVERAGE_OUT"

# (module, function, the unrun lines' source text stripped and joined by newlines)
# -> why no tier-1 test can run them
ALLOWED_UNRUN = {
    ("transport", "_accept", "except OSError:  # the client gave up before it was accepted\nreturn"):
        "Linux keeps a connection that was reset in the accept queue, so accept() on a "
        "listener select() reported ready returns it and does not fail",
    ("transport", "_read", "return"):
        "the BlockingIOError branch: recv() runs only on a connection select() reported "
        "readable, and on Linux that recv() does not find it empty",
}


def _code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _lines(code: types.CodeType) -> set[int]:
    return {line for _, _, line in code.co_lines() if line}


class _Tracer:
    """A trace function that records which lines of the package's modules run.

    A code object is traced until each of its lines has run once; after
    that its calls cost one lookup.
    """

    def __init__(self) -> None:
        self._files = {str(path) for path in PACKAGE.glob("*.py")}
        # id(code) -> (code, its lines not yet run, the local trace function that
        # strikes them off); the code is kept so that its id stays its own
        self._left: dict[int, tuple[types.CodeType, set[int], Callable]] = {}

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename not in self._files:
            return None
        entry = self._left.get(id(code))
        if entry is None:
            left = _lines(code)

            def local(frame, event, arg):
                if event == "line":
                    left.discard(frame.f_lineno)
                return local

            entry = self._left[id(code)] = (code, left, local)
        return entry[2] if entry[1] else None

    def start(self) -> None:
        threading.settrace(self)
        sys.settrace(self)

    def ran(self) -> dict[str, list[int]]:
        """The lines run, by file."""
        ran: dict[str, set[int]] = {}
        for code, left, _ in self._left.values():
            ran.setdefault(code.co_filename, set()).update(_lines(code) - left)
        return {name: sorted(lines) for name, lines in ran.items()}


def trace_subprocess() -> None:
    """Trace this process and write its lines to the directory the parent named, at exit."""
    tracer = _Tracer()
    out = Path(os.environ[_OUT_ENV]) / f"{os.getpid()}.json"
    atexit.register(lambda: out.write_text(json.dumps(tracer.ran()), encoding="utf-8"))
    tracer.start()


def _follow_subprocesses(work: Path) -> Path:
    """Make Python subprocesses trace themselves through a user site's usercustomize.

    The tests set a subprocess's ``PYTHONPATH`` themselves, so the hook
    comes in through ``PYTHONUSERBASE``, which they pass on.
    """
    base, out = work / "userbase", work / "ran"
    out.mkdir()
    site = Path(sysconfig.get_path("purelib", sysconfig.get_preferred_scheme("user"),
                                   vars={"userbase": str(base)}))
    site.mkdir(parents=True)
    (site / "usercustomize.py").write_text(
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "import line_coverage\n"
        "del sys.path[0]\n"
        "line_coverage.trace_subprocess()\n",
        encoding="utf-8",
    )
    os.environ.update(PYTHONUSERBASE=str(base), **{_OUT_ENV: str(out)})
    return out


def _blocks(executable: list[int], ran: set[int]) -> list[list[int]]:
    """The unrun lines, in runs with no run executable line between them."""
    blocks: list[list[int]] = []
    previous_unrun = False
    for line in executable:
        if line in ran:
            previous_unrun = False
            continue
        if previous_unrun:
            blocks[-1].append(line)
        else:
            blocks.append([line])
        previous_unrun = True
    return blocks


def _report(ran: dict[str, set[int]]) -> int:
    matches = dict.fromkeys(ALLOWED_UNRUN, 0)
    unlisted = 0
    total = unrun_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        codes = list(_code_objects(compile(source, str(path), "exec")))
        executable = sorted(set().union(*map(_lines, codes)))
        blocks = _blocks(executable, ran.get(str(path), set()))
        unrun = sum(map(len, blocks))
        total += len(executable)
        unrun_total += unrun
        print(f"{module}: {unrun} of {len(executable)} lines unrun")
        for block in blocks:
            text = "\n".join(lines[n - 1].strip() for n in block)
            # the innermost code object holding the block's first line names its function
            where = max((c for c in codes if block[0] in _lines(c)), key=lambda c: c.co_firstlineno)
            place = f"  {path.name}:{block[0]}-{block[-1]} in {where.co_name}"
            key = (module, where.co_name, text)
            if key in ALLOWED_UNRUN:
                matches[key] += 1
                print(f"{place} (allowed: {ALLOWED_UNRUN[key]})")
            else:
                unlisted += 1
                print(f"{place} NOT RUN:")
                for n in block:
                    print(f"    {n}: {lines[n - 1].strip()}")
    inexact = {key: count for key, count in matches.items() if count != 1}
    for (module, function, text), count in inexact.items():
        print(f"allow-list entry matching {count} unrun blocks, not 1: {module}.{function}: {text!r}")
    print(f"{unrun_total} of {total} executable lines unrun, {sum(matches.values())} blocks allowed")
    return 1 if unlisted or inexact else 0


def main() -> int:
    import pytest  # here, not above: a traced subprocess imports this module too

    if not site.ENABLE_USER_SITE:
        print("the user site is off (a virtualenv, or python -s): subprocesses cannot be followed")
        return 1
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory(prefix="line-coverage-") as work:
        out = _follow_subprocesses(Path(work))
        tracer = _Tracer()
        tracer.start()
        try:
            code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
        finally:
            sys.settrace(None)
            threading.settrace(None)
        ran = {name: set(lines) for name, lines in tracer.ran().items()}
        for part in out.glob("*.json"):
            for name, lines in json.loads(part.read_text(encoding="utf-8")).items():
                ran.setdefault(name, set()).update(lines)
    if code != 0:
        print(f"the tier-1 tests failed (pytest exit code {code}); coverage not checked")
        return 1
    return _report(ran)


if __name__ == "__main__":
    sys.exit(main())
