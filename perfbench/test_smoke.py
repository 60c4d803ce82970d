"""Smoke tests for the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (str(HERE), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import autratio  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import Loop, run_probes, sha256_lines  # noqa: E402


def one_round(name: str, seed: int, tracer=None):
    wl = workloads.build(name, seed, tiny=True)
    if tracer:
        tracer.install(workloads)
    try:
        (rd,) = Loop(wl, tracer).run_rounds(1)
    finally:
        if tracer:
            tracer.uninstall()
    return wl, rd


def digests(name: str, seed: int) -> tuple[str, str]:
    wl, rd = one_round(name, seed)
    assert set(rd["kinds"]) == {"ok"}
    assert wl.check(rd["inputs"], rd["outputs"]) == []
    return (
        sha256_lines(wl.input_lines(rd["inputs"])),
        sha256_lines(wl.digest_lines(rd["inputs"], rd["outputs"])),
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_decides_inputs_and_outputs(name):
    inputs1, outputs1 = digests(name, 1)
    inputs1b, outputs1b = digests(name, 1)
    inputs2, _ = digests(name, 2)
    assert (inputs1, outputs1) == (inputs1b, outputs1b)
    assert inputs1 != inputs2


def test_chunks_stop_at_round_boundaries():
    wl = workloads.build("table-build", 1, tiny=True)  # 3 ops a round
    loop = Loop(wl)
    assert loop.chunk(0.0) == {"rounds": 0, "at_boundary": False}
    assert loop.chunk(float("inf")) == {"rounds": 1, "at_boundary": True}
    (rd,) = loop.rounds
    assert len(rd["latencies"]) == 3 and rd["wall"] >= sum(rd["latencies"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_cli_request_has_an_expected_answer(name):
    wl = workloads.build(name, 4, tiny=True)
    assert wl.cli_argv[-1] == "--json"
    assert wl.cli_expect()


def test_checks_catch_a_wrong_answer():
    wl, rd = one_round("search-roundtrip", 3)
    i = next(i for i, (_, g) in enumerate(rd["inputs"]) if g is not None)
    outputs = list(rd["outputs"])
    outputs[i] = []  # drop the witness the target was made from
    assert wl.check(rd["inputs"], outputs)


def test_probes_fail_at_recursion_depth():
    wl = workloads.build("search-roundtrip", 1, tiny=True)
    outcomes = {p["probe"]: p["outcome"] for p in run_probes(wl)}
    assert len(outcomes) == 2 and "ok" not in outcomes.values()


def test_trace_accounts_for_the_loop_wall_time():
    tracer = Tracer()
    original = autratio.approximate.approx_ray
    wl, rd = one_round("ray-certify", 1, tracer)
    assert autratio.approximate.approx_ray is original
    summary = tracer.summary()
    assert summary["functions"]["approximate.approx_ray"]["calls"] == len(rd["inputs"])
    layers = summary["layer_self_seconds"]
    assert all(v >= 0 for v in layers.values())
    assert sum(layers.values()) <= rd["wall"]
    assert {s.request for s in tracer.spans} == set(range(len(rd["inputs"])))


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "evaluate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_command_prints_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search-roundtrip", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
