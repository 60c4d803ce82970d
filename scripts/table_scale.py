#!/usr/bin/env python3
"""Time and memory of f-table builds, one fresh interpreter per build.

For each order bound N, a new interpreter runs
``build_f_table(SearchBounds(N), path)`` into a temporary file and reports
the build's wall seconds, its peak resident set (``ru_maxrss``, which counts
the interpreter and its imports too), the row count and the table's sha256.
The builds are stored in the --out JSON under --label.  Entries under other
labels are kept, so two source trees measured in one session (--src) sit
side by side in one file.

Example:
    python scripts/table_scale.py --max-order 100000 1000000 --out BENCH_table.json
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

BUILD = """\
import hashlib, json, resource, sys, time
from autratio.search import SearchBounds, build_f_table
n, path = int(sys.argv[1]), sys.argv[2]
start = time.perf_counter()
rows = build_f_table(SearchBounds(n), path)
seconds = time.perf_counter() - start
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
digest = hashlib.sha256()
with open(path, "rb") as fh:
    for chunk in iter(lambda: fh.read(1 << 20), b""):
        digest.update(chunk)
print(json.dumps({"max_order": n, "seconds": round(seconds, 3),
                  "peak_rss_mb": round(peak_kb / 1024, 1), "rows": rows,
                  "sha256": digest.hexdigest()}))
"""


def build(src: Path, max_order: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, "-c", BUILD, str(max_order), os.path.join(tmp, "table.tsv")],
            env=env, capture_output=True, text=True, check=True,
        )
    return json.loads(proc.stdout)


def host() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "python": platform.python_version()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--max-order", type=int, nargs="+", required=True)
    ap.add_argument("--out", default="BENCH_table.json")
    ap.add_argument("--label", default="change")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="source tree to import autratio from")
    args = ap.parse_args()

    runs = []
    for n in args.max_order:
        runs.append(build(args.src, n))
        r = runs[-1]
        print(f"{args.label} N={n}: {r['rows']} rows, {r['seconds']} s, "
              f"{r['peak_rss_mb']} MB, sha256 {r['sha256'][:16]}...", flush=True)
    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data["host"] = host()
    data.setdefault("runs", {})[args.label] = runs
    out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
