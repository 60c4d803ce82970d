"""The benchmark (``perfbench/``) reaches autratio by name: its tracer
wraps functions by module and name, and its workloads import public names
and read attributes of the results.  Renaming or deleting one of them
breaks ``perfbench/run.py``; these tests catch that here."""

import ast
import importlib
from fractions import Fraction
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("name", ["ray-certify", "search-roundtrip", "table-build", "evaluate"])
def test_tiny_workload_round_answers_and_checks(monkeypatch, name):
    # the workloads also read attributes of results (res.group.two_rank,
    # res.trace.below_eps_witness, res.achieved.interval(), ...) that the
    # name checks above do not see; one tiny round reaches them all
    pytest.importorskip("numpy")  # perfbench/reference.py needs it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    worker = importlib.import_module("worker")
    wl = workloads.build(name, 1, tiny=True)
    (rd,) = worker.Loop(wl).run_rounds(1)
    assert set(rd["kinds"]) == {"ok"}
    assert wl.check(rd["inputs"], rd["outputs"]) == []
    assert wl.digest_lines(rd["inputs"], rd["outputs"])
    assert wl.cli_expect()


def test_certified_ray_results_pass_the_workload_check(monkeypatch):
    # every tiny ray-certify target ends exact, so the round above never
    # reads what check reads from a certified result (achieved.interval());
    # with the exact cap at 1 the same op ends certified
    pytest.importorskip("numpy")
    from autratio import subsum

    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    monkeypatch.setattr(subsum, "EXACT_CAP", 1)
    wl = workloads.build("ray-certify", 1, tiny=True)
    targets = [Fraction(23, 10), Fraction(7, 10)]
    results = [wl.op(a) for a in targets]
    assert [res.exact_ratio for res in results] == [None, None]
    assert wl.check(targets, results) == []
