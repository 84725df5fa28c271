"""Golden CLI reports: stdout and exit code pinned byte for byte.

Each record of golden_reports.json names a job (a file under jobs/, a JSON
object, or raw text), the command line to run on it, and the stdout and exit
code that command must produce.  The job is written to job.json in a fresh
directory that becomes the working directory, so messages that quote the
path read the same everywhere.  Timing lines go to stderr and are not
compared.

After an intended change of output, refresh the expected values of the
named records (of every record when no name is given) with

    PYTHONPATH=src python tests/test_golden_reports.py [NAME ...]
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


if __name__ == "__main__":
    import contextlib
    import io
    import os
    import tempfile

    names = set(sys.argv[1:])
    unknown = names - {rec["name"] for rec in RECORDS}
    if unknown:
        sys.exit(f"no such records: {', '.join(sorted(unknown))}")
    chosen = [rec for rec in RECORDS if not names or rec["name"] in names]
    for rec in chosen:
        buf = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            here = os.getcwd()
            os.chdir(tmp)
            try:
                with contextlib.redirect_stdout(buf):
                    rec["exit"] = _run(rec, Path(tmp))
            finally:
                os.chdir(here)
        rec["stdout"] = buf.getvalue().split("\n")
    DATA.write_text(json.dumps(RECORDS, indent=1) + "\n", encoding="utf-8")
    print(f"rewrote {len(chosen)} of {len(RECORDS)} records in {DATA}", file=sys.stderr)
