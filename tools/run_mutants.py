"""Apply each mutant of tests/mutants.py to a copy of the tree and check that its tests kill it.

A mutant is (file, old text, new text, -k selection).  For each one the
runner copies src/, tests/ and pyproject.toml into a temporary directory,
replaces the one occurrence of the old text in the file, and runs
``python -O -m pytest -x -k <selection>`` there, with the copy's src/ alone
on PYTHONPATH, a 60 s per-mutant timeout and a 3 GB address-space limit.  A
mutant is killed when that run fails or times out.  Before any mutant, the
union of the selections must pass on an unmutated copy.  Exits 1 if an old
text does not occur exactly once, if the unmutated run fails, or if a
mutant survives.

    python3 tools/run_mutants.py
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS  # noqa: E402

MEMORY_LIMIT = 3 * 2**30
TIMEOUT = 60  # seconds per mutant; a run that outlasts it counts as a kill


def limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest)


def run_selection(tree: Path, selection: str, timeout: float) -> int | None:
    """pytest's exit code for the selection under python -O in tree, or None on a timeout."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-O", "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-k", selection, "tests"]
    try:
        done = subprocess.run(
            command, cwd=tree, env=env, timeout=timeout, preexec_fn=limit_memory,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return None
    return done.returncode


def main() -> int:
    stale = []
    for path, old, _, _ in MUTANTS:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            stale.append(f"{path}: the old text occurs {count} times: {old!r}")
    if stale:
        print("\n".join(stale))
        return 1

    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tree = Path(scratch) / "tree"
        copy_tree(tree)
        union = " or ".join(f"({selection})" for *_, selection in MUTANTS)
        code = run_selection(tree, union, TIMEOUT * len(MUTANTS))
        if code != 0:
            print(f"the unmutated selections fail (exit {code}); no mutant run means anything")
            return 1
        survived = 0
        for number, (path, old, new, selection) in enumerate(MUTANTS, 1):
            shutil.rmtree(tree)
            copy_tree(tree)
            target = tree / path
            target.write_text(target.read_text().replace(old, new))
            start = time.perf_counter()
            code = run_selection(tree, selection, TIMEOUT)
            took = time.perf_counter() - start
            if code is None:
                verdict = f"killed (timeout after {TIMEOUT} s)"
            elif code in (1, 2):  # tests failed, or collection broke
                verdict = f"killed (exit {code}, {took:.1f} s)"
            else:  # passed, or pytest could not run the selection (exit 5: no test selected)
                verdict = f"SURVIVED (exit {code}, {took:.1f} s)"
                survived += 1
            print(f"{number:2} {verdict}: {path}: {old.strip()!r} -> {new.strip()!r} [-k {selection}]", flush=True)
    print(f"{len(MUTANTS)} mutants, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
