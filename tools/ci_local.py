"""Run the steps of .github/workflows/ci.yml on this machine, offline.

Each `run:` line of the test job runs in the repository root, in order, with
`src/` on PYTHONPATH.  Lines that `pip install` are skipped (nothing is
fetched), and the `affschub` console script is spelled `python -m
affschub.cli`.  A step passes when every one of its lines exits 0, as under
the runner's `bash -e`; unlike the runner, later lines still run after a
failure, so one run reports every line.  Prints each line's and each step's
exit code, and exits 1 if any step failed.

    python3 tools/ci_local.py
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


def offline(line: str) -> str | None:
    """The line as it runs here, or None if it is an install line to skip."""
    if "pip install" in line:
        return None
    return re.sub(r"^affschub\b", f"{sys.executable} -m affschub.cli", line)


def main() -> int:
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["test"]["steps"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    failed = []
    for step in steps:
        if "run" not in step:
            continue
        name = step.get("name", step["run"])
        codes = []
        for line in filter(None, map(str.strip, step["run"].splitlines())):
            command = offline(line)
            if command is None:
                print(f"  skip    {line}", flush=True)
                continue
            code = subprocess.run(command, shell=True, cwd=ROOT, env=env).returncode
            print(f"  exit {code:<2} {line}", flush=True)
            codes.append(code)
        code = next((c for c in codes if c), 0)
        print(f"step exit {code}: {name}", flush=True)
        if code:
            failed.append(name)
    print(f"{len(failed)} step(s) failed" + "".join(f"\n  {name}" for name in failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
