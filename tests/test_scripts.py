"""The scripts under scripts/, run as a user runs them."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hankelrev import SWEEPABLE, sweep

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        cwd=cwd,
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


def write_record(directory, workload, seed, sha, trace=0, **metrics):
    directory.mkdir(exist_ok=True)
    record = {
        "context": {"workload": workload, "seed": seed, "trace": trace, "git_sha": sha},
        "metrics": metrics,
    }
    path = directory / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record))


def test_bench_pairs_summarises_each_side(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, old, new in [(3, 0.20, 0.08), (1, 0.22, 0.05), (2, 0.21, 0.06), (4, 0.30, 0.07)]:
        write_record(parent, "deep_verify", seed, "aaa", wall_s=old, setup_s=0.04)
        write_record(change, "deep_verify", seed, "bbb", wall_s=new, setup_s=0.04)
    write_record(parent, "grid_sweep", 9, "aaa", wall_s=0.2, setup_s=0.04)
    write_record(change, "grid_sweep", 9, "bbb", wall_s=0.1, setup_s=0.04)
    # traced records hold per-layer metrics and are not summarised
    write_record(parent, "deep_verify", 5, "aaa", trace=1, **{"hankel.self_s": 1.0})
    done = run_script(
        "bench_pairs.py", "--parent", str(parent), "--change", str(change), "--label", "t",
        cwd=tmp_path,
    )
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "BENCH_t.json\n")
    summary = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert summary["label"] == "t"
    deep = summary["workloads"]["deep_verify"]
    assert deep["seeds"] == [1, 2, 3, 4]
    assert deep["parent"]["git_sha"] == "aaa" and deep["change"]["git_sha"] == "bbb"
    wall = deep["parent"]["metrics"]["wall_s"]
    assert (wall["q1"], wall["median"], wall["q3"]) == pytest.approx((0.2075, 0.215, 0.24))
    wall = deep["change"]["metrics"]["wall_s"]
    assert (wall["q1"], wall["median"], wall["q3"]) == pytest.approx((0.0575, 0.065, 0.0725))
    assert deep["change"]["metrics"]["setup_s"] == pytest.approx(
        {"median": 0.04, "q1": 0.04, "q3": 0.04}
    )
    one = summary["workloads"]["grid_sweep"]["change"]["metrics"]["wall_s"]
    assert one == {"median": 0.1, "q1": 0.1, "q3": 0.1}


def test_bench_pairs_refuses_unpaired_runs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_record(parent, "deep_verify", 1, "aaa", wall_s=0.2)
    write_record(change, "deep_verify", 2, "bbb", wall_s=0.1)
    done = run_script(
        "bench_pairs.py", "--parent", str(parent), "--change", str(change), "--label", "t",
        cwd=tmp_path,
    )
    assert done.returncode == 2
    assert "deep_verify: seeds differ: parent [1], change [2]" in done.stderr
    assert not (tmp_path / "BENCH_t.json").exists()


def test_code_lines_counts_lines_with_a_code_token(tmp_path):
    (tmp_path / "b.py").write_text(
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment line\n"
        "import os  # code with a trailing comment\n"
        "\n"
        "\n"
        "class C:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):\n"
        '        """Method\n'
        '        docstring."""\n'
        '        text = """a string\n'
        '        over two lines"""\n'
        '        "a bare string after the first statement"\n'
        "        return (text,\n"
        "                os.sep)\n"
    )
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    done = run_script("code_lines.py", str(tmp_path))
    assert (done.returncode, done.stderr) == (0, "")
    # b.py: import, class, def, the two-line string, the bare string, the
    # two-line return
    assert done.stdout == "    1  a.py\n    8  b.py\n    9  total\n"


def test_code_lines_defaults_to_the_package():
    done = run_script("code_lines.py")
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    names = sorted(path.name for path in (ROOT / "src" / "hankelrev").glob("*.py"))
    assert [line.split()[1] for line in lines] == names + ["total"]
    counts = [int(line.split()[0]) for line in lines]
    assert sum(counts[:-1]) == counts[-1] > 0
