"""The benchmark tracer still finds every traced function where it expects.

perfbench/tracer.py lists, for each traced function, the divclass modules
that bind it, and refuses to trace when that set changes.  Constructing a
Tracer runs that check without installing any wrapper, so a refactor that
moves a traced function's import fails here.  One traced `verify` call then
checks that the counts the benchmark reads from the graded layers still see
the calls they are read from, and a traced `verify` whose pieces have general
rows checks that tracing leaves the report as it is.
"""

import importlib.util
import json
import sys
from pathlib import Path

from divclass import cli

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _traced():
    """(the tracer module, a Tracer), loaded from the benchmark's file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer
    try:
        spec.loader.exec_module(tracer)
        return tracer, tracer.Tracer()
    finally:
        del sys.modules[spec.name]


def test_tracer_finds_every_binding():
    tracer, traced = _traced()
    assert set(traced.fids) == {t.name for t in tracer.LAYERS}


def test_traced_verify_counts_its_graded_pieces(capsys):
    # a piece built around `Subspace.unit_space` would read 0 rows here
    _, traced = _traced()
    traced.begin(0)
    try:
        code = cli.main(["verify", str(ROOT / "jobs" / "z3_x1x2.json"), "--depth", "20"])
    finally:
        traced.finish()
    assert code == 0
    assert '"status": "pass"' in capsys.readouterr().out
    metrics = traced.metrics(0.0)
    assert metrics["cli.main.calls"] == 1
    assert metrics["sections.divisorial_module_component.dim_sum"] > 0
    assert metrics["hyperring.ideal_graded_component.dim_sum"] > 0
    assert metrics["linalg.Subspace.unit_space.rows"] > 0
    # every module and ideal piece goes through its traced function: with
    # r = 2 factors and the 21 degrees j <= 20, M_t, N_t and the section
    # ring's piece give (2r + 1)(d + 1) module pieces, Z and the H_t give
    # (r + 1)(d + 1) ideal pieces
    r, degrees = 2, 21
    assert metrics["sections.divisorial_module_component.calls"] == (2 * r + 1) * degrees == 105
    assert metrics["hyperring.ideal_graded_component.calls"] == (r + 1) * degrees == 63
    # the wrappers are gone once the operation finished
    assert not hasattr(cli.main, "__wrapped__")


def test_traced_general_row_verify_matches_an_untraced_run(capsys, tmp_path):
    # mixed-conic-n3: the conic's pieces are general rows, inserted through
    # `Subspace.insert`, which the benchmark's traced mode wraps
    job = tmp_path / "mixed_conic_n3.json"
    job.write_text(json.dumps({
        "schema_version": 1,
        "field": "Q",
        "n": 3,
        "variables": ["x1", "x2"],
        "weights": [1, 1],
        "factors": ["x1", "x2", "x1^2 + x2^2"],
        "assume_normal": True,
    }))
    argv = ["verify", str(job), "--depth", "20"]
    assert cli.main(argv) == 0
    untraced = capsys.readouterr().out
    _, traced = _traced()
    traced.begin(0)
    try:
        code = cli.main(argv)
    finally:
        traced.finish()
    assert code == 0
    assert capsys.readouterr().out == untraced
    assert '"status": "pass"' in untraced
    metrics = traced.metrics(0.0)
    assert metrics["linalg.Subspace.insert.calls"] > 0
    assert metrics["linalg.Subspace.insert.general_rows"] > 0
