"""perfbench's tracer wraps program functions by module attribute; each must still exist."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from text2sql.backend import ScriptedBackend

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install(ScriptedBackend)  # AttributeError on a renamed or removed name
        patched = list(tracer._patched)
        assert patched
        assert all(getattr(owner, attr).__wrapped__ is original
                   for owner, attr, original in patched)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
