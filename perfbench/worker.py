"""One workload in one fresh interpreter: set up, signal READY, run the
timed closed loop (one client, one thread) in chunks that run.py asks for,
then check every answer, run the probes, and print one JSON line with
everything measured.

Started by run.py with PYTHONPATH pointing at the checkout's src/:

    python3 perfbench/worker.py --workload NAME --seed N
        [--setup-only] [--trace] [--trace-out FILE]

After READY the worker prints the cold CLI request of its kind (one JSON
line) and reads commands on standard input, one a line:

    chunk S    run ops for about S seconds, then answer with one JSON line;
               a chunk ends at the first op boundary past S seconds, or at
               the end of a round
    calibrate  answer with the host's slowdown now (calib.py)
    finish     stop at the current round boundary and print the result

run.py takes its other samples (cold CLI requests, fresh set-ups) between
chunks, while this process waits, so one process runs at a time; it has
this process measure the host's slowdown just before and after each.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import traceback
from time import perf_counter

import calib
import workloads
from workloads import REFUSALS, FalseVerdict


class Loop:
    """The closed loop over a workload's rounds.

    Only ``op`` is inside an op's latency.  A round's wall time is the sum
    of its ops' loop time, including the loop's own bookkeeping between
    ops, but not input generation and not the time spent between chunks.
    Each op also records the host's slowdown around its chunk (calib.py),
    measured before and after the chunk, outside any op's time.
    """

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.rounds: list[dict] = []
        self.current: dict | None = None
        self.errors_shown = 0
        self.ops = 0

    def _start_round(self) -> None:
        inputs = self.wl.round_inputs(len(self.rounds))
        self.current = {"inputs": inputs, "outputs": [], "kinds": [], "latencies": [],
                        "wall": 0.0, "adjusted_wall": 0.0, "slowdowns": []}

    def _one_op(self, rd: dict) -> None:
        x = rd["inputs"][len(rd["latencies"])]
        span = self.tracer.begin_op(self.ops) if self.tracer else None
        kind, out = "ok", None
        t0 = perf_counter()
        try:
            out = self.wl.op(x)
        except REFUSALS:
            kind = "refused"
        except FalseVerdict:
            kind = "false_verdict"
        except Exception:  # an op that crashes is counted, not fatal
            kind = "error"
            if self.errors_shown < 3:
                self.errors_shown += 1
                traceback.print_exc(limit=4, file=sys.stderr)
        rd["latencies"].append(perf_counter() - t0)
        if self.tracer:
            self.tracer.end_op(span)
        rd["outputs"].append(self.wl.keep(out) if kind == "ok" else None)
        rd["kinds"].append(kind)
        self.ops += 1

    def chunk(self, seconds: float) -> dict:
        """Run ops for about ``seconds``; stop early at the end of a round."""
        if self.current is None:
            self._start_round()
        rd = self.current
        before = calib.slowdown()
        first = len(rd["latencies"])
        t0 = perf_counter()
        while len(rd["latencies"]) < len(rd["inputs"]) and perf_counter() - t0 < seconds:
            self._one_op(rd)
        wall = perf_counter() - t0
        # the host's slowdown around the chunk, for each of its ops
        slowdown = (before + calib.slowdown()) / 2
        rd["slowdowns"] += [slowdown] * (len(rd["latencies"]) - first)
        rd["wall"] += wall
        rd["adjusted_wall"] += wall / slowdown
        if len(rd["latencies"]) == len(rd["inputs"]):
            self.rounds.append(rd)
            self.current = None
        return {"rounds": len(self.rounds), "at_boundary": self.current is None}

    def run_rounds(self, n: int) -> list[dict]:
        """Run ``n`` whole rounds in one go."""
        while len(self.rounds) < n:
            self.chunk(float("inf"))
        return self.rounds


def run_probes(wl) -> list[dict]:
    out = []
    for label, probe in wl.probes():
        t0 = perf_counter()
        try:
            wrong, lines = probe()
            entry = {"probe": label, "outcome": "ok", "wrong": wrong, "lines": lines}
        except RecursionError:
            entry = {"probe": label, "outcome": "RecursionError", "wrong": None, "lines": []}
        except Exception as exc:  # a failing probe is the expected result at the seed
            entry = {"probe": label, "outcome": type(exc).__name__, "wrong": None, "lines": []}
        entry["seconds"] = perf_counter() - t0
        out.append(entry)
    return out


def sha256_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def finish(wl, rounds: list[dict], tracer=None) -> dict:
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wrong: list[str] = []
    counts: dict[str, int] = {}
    for rd in rounds:
        wrong += wl.check(rd["inputs"], rd["outputs"])
        for key, value in wl.counts(rd["inputs"], rd["outputs"], rd["kinds"]).items():
            counts[key] = counts.get(key, 0) + value
    first = rounds[0]
    probes = run_probes(wl)
    wrong += [f"probe {p['probe']}: {p['wrong']}" for p in probes if p["wrong"]]
    result = {
        "workload": wl.name,
        "seed": wl.seed,
        "rounds": [
            {k: rd[k] for k in ("latencies", "slowdowns", "wall", "adjusted_wall", "kinds")}
            for rd in rounds
        ],
        "peak_rss_kb": peak_rss_kb,
        "sieve_limit": wl.stream.limit,
        "wrong": wrong,
        "counts": counts,
        "probes": [{k: p[k] for k in ("probe", "outcome", "seconds")} for p in probes],
        "digest": sha256_lines(
            wl.digest_lines(first["inputs"], first["outputs"])
            + [line for p in probes for line in p["lines"]]
        ),
        "input_digest": sha256_lines(wl.input_lines(first["inputs"])),
        "cli_expect": wl.cli_expect(),
    }
    if tracer:
        result["trace"] = tracer.summary()
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)
    wl = workloads.build(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    print(json.dumps({"argv": wl.cli_argv, "out_file": wl.cli_out_file}), flush=True)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(workloads)
    loop = Loop(wl, tracer)
    try:
        for line in sys.stdin:
            cmd, *rest = line.split()
            if cmd == "finish":
                break
            if cmd == "chunk":
                reply = loop.chunk(float(rest[0]))
            elif cmd == "calibrate":
                reply = {"slowdown": calib.slowdown()}
            else:
                raise SystemExit(f"unknown command {line!r}")
            print(json.dumps(reply), flush=True)
        loop.run_rounds(max(1, len(loop.rounds) + (loop.current is not None)))
    finally:
        if tracer:
            tracer.uninstall()
    result = finish(wl, loop.rounds, tracer)
    if tracer and args.trace_out:
        tracer.write_jsonl(args.trace_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
