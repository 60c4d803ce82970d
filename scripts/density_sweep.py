#!/usr/bin/env python3
"""Sweep approximation targets across a range and summarize each run.

Example:
    python scripts/density_sweep.py --lo 0 --hi 5 --steps 26 --eps 1e-3
"""

import argparse
import time
from fractions import Fraction

from autratio import SieveCapacityError, approx_ray, shared_stream, verify_certificate


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lo", type=float, default=0.0)
    ap.add_argument("--hi", type=float, default=5.0)
    ap.add_argument("--steps", type=int, default=26)
    ap.add_argument("--eps", default="1e-3")
    args = ap.parse_args()

    eps = Fraction(args.eps)
    stream = shared_stream()
    print(f"{'a':>10}  {'2rank':>5}  {'odd primes':>10}  {'max p':>10}  "
          f"{'exact':>5}  {'2nd pass':>8}  {'time':>7}")
    for k in range(args.steps):
        a = Fraction(args.lo) + Fraction(args.hi - args.lo) * k / max(args.steps - 1, 1)
        t0 = time.time()
        try:
            res = approx_ray(a, eps, stream=stream)
        except SieveCapacityError as exc:
            print(f"{float(a):10.4f}  capacity exhausted: {exc}")
            continue
        ok = verify_certificate(res, stream=stream)
        scanned = res.trace.selection.scanned
        max_p = stream.nth_prime(scanned + 1) if scanned else 0
        print(
            f"{float(a):10.4f}  {res.group.two_rank:5d}  "
            f"{res.group.index_count:10d}  {max_p:10d}  "
            f"{'yes' if res.exact_ratio is not None else 'no':>5}  "
            f"{'ok' if ok else 'FAIL':>8}  {time.time()-t0:6.2f}s"
        )


if __name__ == "__main__":
    main()
