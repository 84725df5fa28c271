"""Smoke tests for the experiment scripts the README lists.

Each script runs in-process as `__main__` on a small argument list and must
print its header and one line per row without raising; a job the pipeline
rejects gets the CLI's error report and exit code.  The script mode of
tests/test_golden_reports.py runs as a process on a copy of its records.
"""

import json
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from divclass.cli import main

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, lines",
    [
        ("monomial_model_sweep.py", ["--nmax", "4"], 1 + 3),
        ("factor_count_table.py", ["--cmax", "4", "--fields", "Q,F2,Qbar"], 1 + 4),
        (
            "divisor_walkthrough.py",
            [str(ROOT / "jobs" / "z3_x1x2.json"), "--depth", "6"],
            4 + 7,
        ),
    ],
)
def test_script_runs(script, args, lines, monkeypatch, capsys):
    path = ROOT / "scripts" / script
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    runpy.run_path(str(path), run_name="__main__")
    assert len(capsys.readouterr().out.splitlines()) == lines


def test_walkthrough_reports_a_rejected_job_like_the_cli(monkeypatch, capsys):
    job = str(ROOT / "jobs" / "fermat_cubic.json")
    assert main(["classgroup", job]) == 2
    want = capsys.readouterr().out
    assert '"GCD_VIOLATION"' in want
    path = ROOT / "scripts" / "divisor_walkthrough.py"
    monkeypatch.setattr(sys, "argv", [str(path), job])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(path), run_name="__main__")
    assert exc.value.code == 2
    assert capsys.readouterr().out == want


def test_ab_inprocess_same_tree_twice(monkeypatch, capsys):
    # an A/A run on this tree: five operations, no mismatch, one time per
    # tree and operation
    tree = str(ROOT / "src" / "divclass")
    path = ROOT / "scripts" / "ab_inprocess.py"
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    monkeypatch.setattr(
        sys, "argv", [str(path), tree, tree, "--workload", "verify-monomial", "--ops", "5"]
    )
    try:
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(path), run_name="__main__")
    finally:
        for name in set(sys.modules) - before:
            del sys.modules[name]
    assert exc.value.code == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["ops"] == 5 and report["mismatches"] == 0
    keys = ("mean_us", "p50_us", "p90_us", "wins", "faster_frac")
    assert all(len(report[key]) == 2 for key in keys)
    # a tie counts for neither tree
    assert sum(report["wins"]) + report["ties"] == 5
    assert report["faster_frac"] == [wins / 5 for wins in report["wins"]]


def test_ab_inprocess_counts_ties_for_neither_tree(monkeypatch):
    # tree b wins the second op, a the third; the first, timed equal on
    # both, is a tie and no win
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    try:
        summary = runpy.run_path(str(ROOT / "scripts" / "ab_inprocess.py"))["summary"]
    finally:
        for name in set(sys.modules) - before:
            del sys.modules[name]
    report = summary(([1.0, 2.0, 3.0], [1.0, 1.0, 4.0]), [])
    assert report["wins"] == [1, 1] and report["ties"] == 1
    assert report["faster_frac"] == [0.333, 0.333]


def _golden_copy(tmp_path: Path) -> tuple[Path, Path]:
    """The golden-report script and its records, copied with the job files."""
    shutil.copytree(ROOT / "jobs", tmp_path / "jobs")
    (tmp_path / "tests").mkdir()
    for name in ("test_golden_reports.py", "golden_reports.json"):
        shutil.copy(ROOT / "tests" / name, tmp_path / "tests" / name)
    return tmp_path / "tests" / "test_golden_reports.py", tmp_path / "tests" / "golden_reports.json"


def _golden(script: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True
    )


def test_golden_check_names_the_differing_records_and_writes_nothing(tmp_path):
    script, data = _golden_copy(tmp_path)
    clean = _golden(script, "--check")
    assert (clean.returncode, clean.stdout) == (0, ""), clean.stderr
    records = json.loads(data.read_text())
    records[1]["stdout"][0] += " "
    records[-1]["exit"] += 1
    planted = json.dumps(records, indent=1) + "\n"
    data.write_text(planted)
    found = _golden(script, "--check")
    assert found.returncode == 1, found.stderr
    assert found.stdout.split() == [records[1]["name"], records[-1]["name"]]
    assert data.read_text() == planted


def test_golden_rewrite_of_every_record_needs_all(tmp_path):
    script, data = _golden_copy(tmp_path)
    records = json.loads(data.read_text())
    records[0]["stdout"] = ["stale"]
    planted = json.dumps(records, indent=1) + "\n"
    data.write_text(planted)
    bare = _golden(script)
    assert bare.returncode == 2 and "--all" in bare.stderr
    assert data.read_text() == planted
    rewritten = _golden(script, "--all")
    assert rewritten.returncode == 0, rewritten.stderr
    assert data.read_text() == (ROOT / "tests" / "golden_reports.json").read_text()
