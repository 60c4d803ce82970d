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

