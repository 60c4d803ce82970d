"""The benchmark (``perfbench/``) reaches autratio by name: its tracer
wraps functions by module and name, and its workloads import public names.
Renaming or deleting one of them breaks ``perfbench/run.py``; these tests
catch that here."""

import ast
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


def test_benchmark_imports_resolve():
    # a public name the benchmark imports that goes missing would fail
    # every workload with run_failed; the files are parsed, not run
    names = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "autratio":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (path.name, node.module, alias.name)
                    names.append(alias.name)
    assert "approx_ray" in names and "render_table" in names
