"""The scripts under scripts/, run as a user runs them."""

import os
import re
import subprocess
import sys
from pathlib import Path

from hankelrev import SWEEPABLE, sweep

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
    )


def test_run_sweeps_matches_sweep():
    done = run_script("run_sweeps.py", "--lo", "-2", "--hi", "2", "--depth", "3")
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert len(lines) == 5
    for cid, line in zip(SWEEPABLE, lines):
        result = sweep(cid, (-2, 2), (-2, 2), depth=3)
        expected = (
            f"{cid:>11}: grid={len(result.grid)} checked={len(result.reports)}"
            f" skipped={len(result.skipped)} counterexamples=0"
        )
        assert re.fullmatch(re.escape(expected) + r" \(\d+\.\d\ds\)", line)


def test_reproduce_tables_runs():
    done = run_script("reproduce_tables.py")
    assert (done.returncode, done.stderr) == (0, "")
    # the whole output, frozen: any change to it must be deliberate
    assert done.stdout == (ROOT / "tests" / "reproduce_tables.txt").read_text()
