"""Golden CLI reports: stdout and exit code pinned byte for byte.

Each record of golden_reports.json names a job (a file under jobs/, a JSON
object, or raw text), the command line to run on it, and the stdout and exit
code that command must produce.  The job is written to job.json in a fresh
directory that becomes the working directory, so messages that quote the
path read the same everywhere.  Timing lines go to stderr and are not
compared.

After an intended change of output, refresh the expected values of the
named records, or of every record with --all, with

    PYTHONPATH=src python tests/test_golden_reports.py NAME ... | --all

and compare without writing (exit 1 and the differing names on stdout when
any record differs) with

    PYTHONPATH=src python tests/test_golden_reports.py --check [NAME ...]
"""

import json
import sys
from pathlib import Path

import pytest

from divclass.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "golden_reports.json"
RECORDS = json.loads(DATA.read_text(encoding="utf-8"))


def _job_text(record) -> str | None:
    if "job_file" in record:
        return (ROOT / record["job_file"]).read_text(encoding="utf-8")
    if "job" in record:
        return json.dumps(record["job"])
    return record.get("job_text")


def _run(record, workdir: Path) -> int:
    text = _job_text(record)
    if text is not None:
        (workdir / "job.json").write_text(text, encoding="utf-8")
    return main(list(record["args"]))


@pytest.mark.parametrize("record", RECORDS, ids=[r["name"] for r in RECORDS])
def test_golden_report(record, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = _run(record, tmp_path)
    assert code == record["exit"]
    assert capsys.readouterr().out == "\n".join(record["stdout"])


def _replay(record) -> tuple[int, list[str]]:
    """Exit code and stdout lines of a record's run, in a fresh directory."""
    import contextlib
    import io
    import os
    import tempfile

    buf = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(buf):
                code = _run(record, Path(tmp))
        finally:
            os.chdir(here)
    return code, buf.getvalue().split("\n")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Check or rewrite the golden CLI reports.")
    parser.add_argument("names", nargs="*", help="records to check or rewrite")
    parser.add_argument("--check", action="store_true", help="compare only, writing nothing")
    parser.add_argument("--all", action="store_true", help="rewrite every record")
    args = parser.parse_args()
    if args.all and (args.check or args.names):
        parser.error("--all takes no record names and no --check")
    if not (args.check or args.names or args.all):
        parser.error("name the records to rewrite, or pass --all or --check")
    names = set(args.names)
    unknown = names - {rec["name"] for rec in RECORDS}
    if unknown:
        sys.exit(f"no such records: {', '.join(sorted(unknown))}")
    chosen = [rec for rec in RECORDS if not names or rec["name"] in names]
    if args.check:
        differ = [rec["name"] for rec in chosen if _replay(rec) != (rec["exit"], rec["stdout"])]
        for name in differ:
            print(name)
        print(f"{len(differ)} of {len(chosen)} records differ", file=sys.stderr)
        sys.exit(1 if differ else 0)
    for rec in chosen:
        rec["exit"], rec["stdout"] = _replay(rec)
    DATA.write_text(json.dumps(RECORDS, indent=1) + "\n", encoding="utf-8")
    print(f"rewrote {len(chosen)} of {len(RECORDS)} records in {DATA}", file=sys.stderr)
