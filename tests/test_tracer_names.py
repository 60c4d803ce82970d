"""The benchmark's tracer (``perfbench/tracer.py``) wraps autratio
functions by module and name, so renaming or deleting one of them breaks
``perfbench/run.py --trace 1``; this test catches that here."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_wrapped_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    assert tracer.WRAPPED
    for module, attr, _kind in tracer.WRAPPED:
        obj = importlib.import_module("autratio." + module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module, attr)
