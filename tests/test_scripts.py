"""Each experiment script runs end to end on small arguments."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("witness_census.py", ["--max-num", "3", "--max-den", "3", "--max-order", "50"]),
        ("density_sweep.py", ["--lo", "0", "--hi", "2", "--steps", "3", "--eps", "1e-2"]),
    ],
)
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_table_scale_records_each_build(tmp_path):
    from autratio.search import SearchBounds, render_table

    out = tmp_path / "BENCH_table.json"
    out.write_text(json.dumps({"runs": {"parent": [{"max_order": 1}]}}))
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # --src alone names the tree
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "table_scale.py"),
         "--max-order", "30", "500", "--out", str(out), "--src", str(ROOT / "src")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["runs"]["parent"] == [{"max_order": 1}]  # other labels are kept
    runs = data["runs"]["change"]
    assert [r["max_order"] for r in runs] == [30, 500]
    for r in runs:
        table = render_table(SearchBounds(r["max_order"]))
        assert r["rows"] == table.count(b"\n") - 1
        assert r["sha256"] == hashlib.sha256(table).hexdigest()
        assert r["seconds"] > 0 and r["peak_rss_mb"] > 0


def test_ray_latency_measures_each_tree(tmp_path, monkeypatch):
    import importlib.util

    from autratio.approximate import approx_ray, verify_certificate

    monkeypatch.syspath_prepend(str(ROOT / "scripts"))  # its sibling table_scale
    spec = importlib.util.spec_from_file_location("ray_latency", ROOT / "scripts" / "ray_latency.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    lines = []
    for a in script.ray_targets(script.SEED, 12):
        res = approx_ray(a, script.EPS)
        lines.append(script.output_line(a, res, verify_certificate(res)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    r = script.measure(script.SEED, 12, 1)
    assert r["sha256"] == digest and r["ops"] == 12
    assert 0 < r["q1_ms"] <= r["median_ms"] <= r["q3_ms"]

    # two trees, alternating, each run in its own interpreter
    out = tmp_path / "BENCH_ray.json"
    out.write_text(json.dumps({"runs": {"parent": [{"median_ms": 1}]}}))
    monkeypatch.setattr(script, "TARGETS", 12)
    monkeypatch.setattr(script, "REPEAT", 1)
    src = str(ROOT / "src")
    monkeypatch.setattr(sys, "argv", ["ray_latency.py", "--runs", "2", "--label", "a",
                                      "--src", src, "--label", "b", "--src", src,
                                      "--out", str(out)])
    script.main()
    data = json.loads(out.read_text())
    assert data["runs"]["parent"] == [{"median_ms": 1}]  # other labels are kept
    assert data["settings"]["targets"] == 12
    for label in "ab":
        runs = data["runs"][label]
        assert len(runs) == 2
        for r in runs:
            assert r["sha256"] == digest and r["ops"] == 12
            assert 0 < r["q1_ms"] <= r["median_ms"] <= r["q3_ms"]
