#!/usr/bin/env python3
"""Median per-op latency of certified ray approximations, one fresh
interpreter per run.

A run draws TARGETS = 420 targets a with seed SEED = 16, uniform in
[0.1, 5], and on one shared PrimeStream runs ``approx_ray(a, 1/1000)`` and
then ``verify_certificate``, as ``autratio approx`` does.  A first pass
sieves, fills the caches and gives the outputs; then REPEAT = 3 passes
time every op, and an op's latency is the best of its timed passes.  The
run reports the median and quartiles of those latencies over the targets
and the sha256 of the outputs (per target: the two-rank, the odd-prime
ranges, the exact ratio in hex or the certificate's repr, and the second
pass's verdict).  The interpreter is pinned to one CPU where the platform
allows it.

Each --src names a source tree to import autratio from, and the --label
given with it names its runs, as in ``table_scale.py``.  The trees are
measured --runs times, one after another, with the tree that goes first
alternating, so two trees measured in one command are measured back to
back on the same host.  Runs are stored in the --out JSON under their
labels; entries under other labels are kept.

Example:
    python scripts/ray_latency.py --label parent --src ../parent/src \\
        --label change --src src --runs 6 --out BENCH_ray.json
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from table_scale import host

ROOT = Path(__file__).resolve().parents[1]
EPS = Fraction(1, 1000)
SEED = 16
TARGETS = 420
REPEAT = 3  # timed passes; an op's latency is its best


def ray_targets(seed: int, count: int) -> list[Fraction]:
    rng = random.Random(f"ray-latency:{seed}")
    return [Fraction(rng.uniform(0.1, 5.0)) for _ in range(count)]


def output_line(a: Fraction, res, verdict: bool) -> str:
    g = res.group
    if res.exact_ratio is not None:
        cert = f"{res.exact_ratio.numerator:x}/{res.exact_ratio.denominator:x}"
    else:
        cert = repr(res.achieved)
    return f"{a}|{g.two_rank}|{g.odd_prime_ranges}|{cert}|{verdict}"


def measure(seed: int, count: int, repeat: int) -> dict:
    """One run in this interpreter; autratio comes from its sys.path."""
    from autratio.approximate import approx_ray, verify_certificate
    from autratio.primes import PrimeStream

    targets = ray_targets(seed, count)
    stream = PrimeStream()
    start = time.perf_counter()
    lines = []
    for a in targets:
        res = approx_ray(a, EPS, stream=stream)
        lines.append(output_line(a, res, verify_certificate(res, stream=stream)))
    best = [float("inf")] * count
    for _ in range(repeat):
        for k, a in enumerate(targets):
            t0 = time.perf_counter()
            verify_certificate(approx_ray(a, EPS, stream=stream), stream=stream)
            best[k] = min(best[k], time.perf_counter() - t0)
    q1, median, q3 = statistics.quantiles(best, n=4)
    return {
        "median_ms": round(median * 1e3, 4),
        "q1_ms": round(q1 * 1e3, 4),
        "q3_ms": round(q3 * 1e3, 4),
        "ops": count,
        "seconds": round(time.perf_counter() - start, 3),
        "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    }


def run(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, __file__, "--measure", str(SEED), str(TARGETS), str(REPEAT)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main() -> None:
    if sys.argv[1:2] == ["--measure"]:
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        print(json.dumps(measure(*map(int, sys.argv[2:5]))))
        return
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", action="append", help="label of the matching --src (default change)")
    ap.add_argument("--src", type=Path, action="append",
                    help="source tree to import autratio from (default this checkout's src)")
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--out", default="BENCH_ray.json")
    args = ap.parse_args()
    labels, srcs = args.label or ["change"], args.src or [ROOT / "src"]
    if len(labels) != len(srcs) or len(set(labels)) != len(labels):
        ap.error("give each --src its own --label")
    trees = list(zip(labels, srcs))

    runs: dict[str, list] = {label: [] for label in labels}
    for i in range(args.runs):
        for label, src in trees[::-1] if i % 2 else trees:
            r = run(src)
            runs[label].append(r)
            print(f"{label} run {i + 1}: median {r['median_ms']} ms "
                  f"[{r['q1_ms']}-{r['q3_ms']}] over {r['ops']} ops, "
                  f"sha256 {r['sha256'][:16]}...", flush=True)
    for label, rs in runs.items():
        print(f"{label}: median of run medians "
              f"{statistics.median(r['median_ms'] for r in rs)} ms over {len(rs)} run(s)")
    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data["host"] = host()
    data["settings"] = {"targets": TARGETS, "seed": SEED, "repeat": REPEAT, "eps": str(EPS)}
    data.setdefault("runs", {}).update(runs)
    out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
