"""The benchmark tracer still finds every traced function where it expects.

perfbench/tracer.py lists, for each traced function, the divclass modules
that bind it, and refuses to trace when that set changes.  Constructing a
Tracer runs that check without installing any wrapper, so a refactor that
moves a traced function's import fails here.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_finds_every_binding():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer
    try:
        spec.loader.exec_module(tracer)
        traced = tracer.Tracer()
    finally:
        del sys.modules[spec.name]
    assert set(traced.fids) == {t.name for t in tracer.LAYERS}
