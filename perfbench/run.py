"""autratio benchmark: end-to-end metrics per workload, per-layer metrics
from a separate traced run.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout that has src/autratio; the program
is imported from that source tree, nothing is installed.  Each workload runs
in its own fresh interpreter (perfbench/worker.py), one at a time: a closed
loop with one client, one process and one thread.  Workloads and their
inputs are described in workloads.py.

The loop runs in rounds of a fixed number of ops, so a round's percentiles
are the same percentiles however fast the program is.  It runs whole rounds
and stops at the round boundary nearest to S seconds, counting the samples
taken between chunks (at least one round; a ray-certify round is longer
than S).  The loop runs in chunks of about CHUNK_S seconds; between chunks,
while the worker waits, this script takes one sample of the cold CLI or of
a fresh set-up (AuxSamples), so that these samples are spread over the run
like the ops are, and one process runs at a time.

The host's other tenants slow it down by up to 60 % for stretches of half
a minute or more, so every time is also measured against a fixed
calibration loop run just before and after it (calib.py) and reported
divided by the slowdown the loop saw: the time the same work takes on the
idle reference host.  The raw times are printed beside them.  This script
and every process it starts run on one vCPU (the last one it may use), so
the loop measures the processor the timed work runs on.

With --trace 0 the run measures, per workload:

  ops_per_s        ops per second of loop time, median over rounds
  latency_p50_ms   median op latency, median over rounds of each round's
  latency_tail_ms  the highest percentile of a round with at least ten ops
                   beyond it (p95 at 200 ops per round; the mean of the five
                   order statistics centred on it), median over rounds
  setup_s          interpreter start to READY: imports, a fresh PrimeStream
                   and round-0 inputs; median of at least seven fresh
                   interpreters
  peak_rss_mb      peak resident set of the measuring interpreter's loop
  cli_cold_ms      wall time of one cold `python3 -m autratio.cli` request
                   of the workload's kind, median of at least seven

and prints fail_ratio beside them: failed ops (exceptions, exit-2 class
refusals, false verdicts of the program's second pass) plus failed probes,
over ops plus probes.  Probes are fixed boundary inputs run after the loop;
they never enter the timed metrics or the JSON's attempted/failed counts.
Every answer is checked (see workloads.py); a wrong answer makes the run
incorrect.

With --trace 1 the workload runs once untraced and once traced, with no
samples between chunks, and the run reports the per-layer metrics
(tracer.py): calls, times and work per layer, each layer's self time, the
unattributed rest of the traced loop time (these are raw times), the
tracing overhead as traced minus untraced ops_per_s, and the host's median
slowdown.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Span traces are written to
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ray-certify", "search-roundtrip", "table-build", "evaluate")
CHUNK_S = 1.2
MIN_SAMPLES = 7  # of setup_s and of cli_cold_ms
TAIL_SPAN = 5  # order statistics averaged for latency_tail_ms
IMPORT_SAMPLES = 3
DEADLINE_S = 170.0  # the whole invocation; each workload must end within 180 s


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, seconds: float):
        self.seconds = seconds
        self.deadline = perf_counter() + DEADLINE_S
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.out_dir = ROOT / ".perfbench_out"
        self.out_dir.mkdir(exist_ok=True)

    def _remaining(self) -> float:
        left = self.deadline - perf_counter()
        if left <= 0:
            raise BenchError("time limit reached")
        return left

    def _spawn(self, argv: list[str], stdin=None):
        """Start a child; returns (process, wall clock at start, watchdog)."""
        t0 = perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdin=stdin, stdout=subprocess.PIPE, text=True
        )
        watchdog = threading.Timer(self._remaining(), proc.kill)
        watchdog.start()
        return proc, t0, watchdog

    @staticmethod
    def _reap(proc, watchdog) -> None:
        watchdog.cancel()
        proc.kill()
        proc.wait()

    def _worker_argv(self, workload: str, seed: int) -> list[str]:
        return [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]

    def setup_sample(self, workload: str, seed: int) -> dict:
        """Seconds from the start of a fresh worker to its READY line."""
        proc, t0, watchdog = self._spawn(self._worker_argv(workload, seed) + ["--setup-only"])
        try:
            first = proc.stdout.readline()
            seconds = perf_counter() - t0
            proc.communicate()
        finally:
            self._reap(proc, watchdog)
        if first.strip() != "READY" or proc.returncode != 0:
            raise BenchError(f"set-up of {workload} failed (exit {proc.returncode})")
        return {"seconds": seconds}

    def cli(self, request: dict) -> dict:
        """One cold CLI request; returns its time and what it printed."""
        argv = [sys.executable, "-m", "autratio.cli", *request["argv"]]
        out_file = self.out_dir / f"cli-table-{os.getpid()}.tsv"
        if request["out_file"]:
            argv += ["--out", str(out_file)]
        proc, t0, watchdog = self._spawn(argv)
        try:
            stdout, _ = proc.communicate()
            seconds = perf_counter() - t0
        finally:
            self._reap(proc, watchdog)
        sample = {"seconds": seconds, "exit": proc.returncode, "stdout": stdout}
        if request["out_file"]:
            data = out_file.read_bytes() if out_file.exists() else b""
            out_file.unlink(missing_ok=True)
            sample["file_sha256"] = hashlib.sha256(data).hexdigest()
        return sample

    def import_ms(self) -> float:
        code = ("import time; t = time.perf_counter(); import autratio.cli; "
                "print(time.perf_counter() - t)")
        samples = []
        for _ in range(IMPORT_SAMPLES):
            proc, _, watchdog = self._spawn([sys.executable, "-c", code])
            try:
                stdout, _ = proc.communicate()
            finally:
                self._reap(proc, watchdog)
            samples.append(float(stdout) * 1e3)
        return statistics.median(samples)


class Worker:
    """The measuring interpreter, driven chunk by chunk over its stdin."""

    def __init__(self, runner: Runner, workload: str, seed: int, trace_out: Path | None = None):
        argv = runner._worker_argv(workload, seed)
        if trace_out:
            argv += ["--trace", "--trace-out", str(trace_out)]
        self.workload = workload
        self.proc, t0, self.watchdog = runner._spawn(argv, stdin=subprocess.PIPE)
        try:
            first = self.proc.stdout.readline()
            self.setup = {"seconds": perf_counter() - t0}
            if first.strip() != "READY":
                raise BenchError(f"worker for {workload} failed at set-up")
            self.cli = json.loads(self._line())
            self.setup["slowdown"] = self.calibrate()
        except BaseException:
            self.close()
            raise

    def _line(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker for {self.workload} ended early (exit {self.proc.poll()})")
        return line

    def _send(self, command: str) -> None:
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        except OSError as exc:
            raise BenchError(f"worker for {self.workload} is gone: {exc}") from exc

    def chunk(self, seconds: float) -> dict:
        self._send(f"chunk {seconds}")
        return json.loads(self._line())

    def calibrate(self) -> float:
        self._send("calibrate")
        return json.loads(self._line())["slowdown"]

    def finish(self) -> dict:
        self._send("finish")
        self.proc.stdin.close()
        result = json.loads(self._line())
        self.proc.wait()
        if self.proc.returncode != 0:
            raise BenchError(f"worker for {self.workload} failed (exit {self.proc.returncode})")
        return result

    def close(self) -> None:
        Runner._reap(self.proc, self.watchdog)
        for f in (self.proc.stdin, self.proc.stdout):
            if f:
                f.close()


class AuxSamples:
    """Cold CLI requests and fresh set-ups, taken between chunks, three of
    the first to one of the second: only cli_cold_ms has to hold steady from
    run to run, setup_s only its median.  The worker measures the host's
    slowdown just before and after each sample."""

    def __init__(self, runner: Runner, workload: str, seed: int):
        self.runner, self.workload, self.seed = runner, workload, seed
        self.setups: list[dict] = []
        self.cli: list[dict] = []

    def enough(self) -> bool:
        return len(self.cli) >= MIN_SAMPLES and len(self.setups) >= MIN_SAMPLES

    def take(self, worker: "Worker") -> None:
        setup_due = len(self.cli) >= 3 * len(self.setups)
        if len(self.cli) >= MIN_SAMPLES and len(self.setups) < MIN_SAMPLES:
            setup_due = True
        elif len(self.setups) >= MIN_SAMPLES and len(self.cli) < MIN_SAMPLES:
            setup_due = False
        before = worker.calibrate()
        if setup_due:
            sample = self.runner.setup_sample(self.workload, self.seed)
            self.setups.append(sample)
        else:
            sample = self.runner.cli(worker.cli)
            self.cli.append(sample)
        sample["slowdown"] = (before + worker.calibrate()) / 2


def drive(runner: Runner, workload: str, seed: int, *, trace_out=None, aux=None) -> dict:
    """Run one measuring worker for runner.seconds of whole rounds, with one
    ``aux`` sample after each chunk and, at the end, until it has enough."""
    worker = Worker(runner, workload, seed, trace_out)
    try:
        if aux:
            aux.setups.append(worker.setup)
        t0 = perf_counter()
        while True:
            state = worker.chunk(CHUNK_S)
            if aux:
                aux.take(worker)
            elapsed = perf_counter() - t0
            # stop at the round boundary nearest to runner.seconds
            if state["at_boundary"] and elapsed * (1 + 0.5 / state["rounds"]) >= runner.seconds:
                break
            runner._remaining()
        while aux and not aux.enough():
            aux.take(worker)
        result = worker.finish()
    finally:
        worker.close()
    result["cli_request"] = worker.cli
    return result


def tail_index(n: int) -> int:
    """Index into n sorted samples of the highest percentile with at least
    ten samples beyond it (the maximum when there are ten or fewer)."""
    return n - 11 if n > 10 else n - 1


def tail_value(lat: list[float]) -> float:
    """The tail percentile of sorted ``lat``, estimated as the mean of the
    TAIL_SPAN order statistics centred on it: one op's latency carries the
    host's noise during that op, and a ray-certify run has one round."""
    i = tail_index(len(lat))
    lo = max(0, min(i - TAIL_SPAN // 2, len(lat) - TAIL_SPAN))
    return statistics.fmean(lat[lo:lo + TAIL_SPAN])


def adjusted(sample: dict) -> float:
    """A sample's seconds divided by the host's slowdown around it."""
    return sample["seconds"] / sample["slowdown"]


def loop_stats(result: dict) -> dict:
    """Per-round p50, tail and ops per second, median over rounds; times
    adjusted for the host's slowdown (calib.py), raw ones beside them."""
    rounds = result["rounds"]
    per = {k: [] for k in ("p50", "tail", "rate", "raw_p50", "raw_tail", "raw_rate")}
    for rd in rounds:
        n = len(rd["latencies"])
        for prefix, lat, wall in (
            ("", [t / f for t, f in zip(rd["latencies"], rd["slowdowns"])], rd["adjusted_wall"]),
            ("raw_", rd["latencies"], rd["wall"]),
        ):
            lat = sorted(lat)
            per[prefix + "p50"].append(statistics.median(lat))
            per[prefix + "tail"].append(tail_value(lat))
            per[prefix + "rate"].append(n / wall)
    med = {k: statistics.median(v) for k, v in per.items()}
    per_round = len(rounds[0]["latencies"])
    ops = sum(len(rd["latencies"]) for rd in rounds)
    kinds = Counter(k for rd in rounds for k in rd["kinds"])
    return {
        "ops": ops,
        "failed": ops - kinds["ok"],
        "kinds": dict(kinds),
        "rounds": len(rounds),
        "per_round": per_round,
        "tail_pct": 100.0 * (tail_index(per_round) + 1) / per_round,
        "wall_s": sum(rd["wall"] for rd in rounds),
        "slowdown": statistics.median(f for rd in rounds for f in rd["slowdowns"]),
        "ops_per_s": med["rate"],
        "p50_ms": med["p50"] * 1e3,
        "tail_ms": med["tail"] * 1e3,
        "raw_ops_per_s": med["raw_rate"],
        "raw_p50_ms": med["raw_p50"] * 1e3,
        "raw_tail_ms": med["raw_tail"] * 1e3,
    }


def cli_problem(sample: dict, expect: dict) -> str | None:
    try:
        result = json.loads(sample["stdout"])["result"]
    except (ValueError, KeyError, TypeError):
        return f"exit {sample['exit']}, unreadable output {sample['stdout'][:200]!r}"
    for key, value in expect.items():
        if key == "file_sha256":
            if sample.get("file_sha256") != value:
                return "CLI table bytes differ from render_table"
        elif result.get(key) != value:
            return f"{key}: CLI gave {result.get(key)!r}, library gave {value!r}"
    if sample["exit"] != 0:
        return f"exit {sample['exit']}"
    return None


def measure(runner: Runner, workload: str, seed: int) -> dict:
    aux = AuxSamples(runner, workload, seed)
    result = drive(runner, workload, seed, aux=aux)
    setups, cli_samples = aux.setups, aux.cli
    problems = {cli_problem(s, result["cli_expect"]) for s in cli_samples} - {None}
    st = loop_stats(result)
    probes_failed = sum(p["outcome"] != "ok" for p in result["probes"])
    wrong = result["wrong"] + [f"cli: {p}" for p in sorted(problems)]

    def med(samples, f):
        return statistics.median(f(s) for s in samples)

    metrics = {
        "ops_per_s": (st["ops_per_s"], "1/s"),
        "latency_p50_ms": (st["p50_ms"], "ms"),
        "latency_tail_ms": (st["tail_ms"], "ms"),
        "setup_s": (med(setups, adjusted), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        "cli_cold_ms": (med(cli_samples, adjusted) * 1e3, "ms"),
    }
    raw = {
        "ops_per_s": st["raw_ops_per_s"],
        "latency_p50_ms": st["raw_p50_ms"],
        "latency_tail_ms": st["raw_tail_ms"],
        "setup_s": med(setups, lambda s: s["seconds"]),
        "cli_cold_ms": med(cli_samples, lambda s: s["seconds"]) * 1e3,
    }
    notes = {
        "ops_per_s": "median over rounds",
        "latency_tail_ms": f"p{st['tail_pct']:.1f} of {st['per_round']} ops per round",
        "setup_s": f"median of {len(setups)}",
        "cli_cold_ms": f"median of {len(cli_samples)}: autratio {' '.join(result['cli_request']['argv'])}",
    }
    lines = [
        f"workload {workload}  seed {seed}  {st['rounds']} round(s) x {st['per_round']} ops"
        f"  (closed loop, 1 client, 1 process, 1 thread)",
        f"  times adjusted for the host's slowdown (calib.py); median slowdown in the loop"
        f" {st['slowdown']:.3f}, raw value in brackets",
    ]
    for name, (value, unit) in metrics.items():
        line = f"  {name:<16}{value:>12.4f} {unit:<4}"
        if name in raw:
            line += f" [{raw[name]:.4f}]"
        if name in notes:
            line += f"  ({notes[name]})"
        lines.append(line)
        if name == "latency_tail_ms":
            lines.append(
                f"  {'fail_ratio':<16}"
                f"{(st['failed'] + probes_failed) / (st['ops'] + len(result['probes'])):>12.4f}"
                f"       (ops {st['failed']}/{st['ops']} failed {st['kinds']};"
                f" probes {probes_failed}/{len(result['probes'])} failed)"
            )
    lines += [
        f"  wrong_answers   {len(wrong):>12d}",
        f"  output digest   {result['digest']}",
        f"  input digest    {result['input_digest']}",
    ]
    lines += [f"  probe {p['probe']}: {p['outcome']} ({p['seconds']:.3f} s)" for p in result["probes"]]
    lines += [f"  WRONG: {w}" for w in wrong[:20]]
    return {"correct": not wrong, "attempted": st["ops"], "failed": st["failed"],
            "metrics": metrics, "lines": lines}


def traced(runner: Runner, workload: str, seed: int) -> dict:
    plain = drive(runner, workload, seed)
    trace_out = runner.out_dir / f"trace-{workload}-seed{seed}.jsonl"
    result = drive(runner, workload, seed, trace_out=trace_out)
    st_plain, st = loop_stats(plain), loop_stats(result)
    funcs = result["trace"]["functions"]
    layer_self = result["trace"]["layer_self_seconds"]
    counts = result["counts"]

    def f(name, key):
        return funcs.get(name, {}).get(key, 0)

    selected, scanned = counts.get("selected_primes", 0), counts.get("scanned_terms", 0)
    unattributed = st["wall_s"] - sum(layer_self.values())
    m = {
        "primes.extend_calls": (f("primes.extend_to", "calls"), "count"),
        "primes.extend_s": (f("primes.extend_to", "seconds"), "s"),
        "primes.sieve_limit": (result["sieve_limit"], "count"),
        "fixedlog.term_scalar_calls": (f("fixedlog.log_ratio_term_bounds", "calls"), "count"),
        "fixedlog.term_scalar_s": (f("fixedlog.log_ratio_term_bounds", "seconds"), "s"),
        "fixedlog.term_fp60_primes": (f("fixedlog.term_block_fp60", "items"), "count"),
        "fixedlog.term_fp60_s": (f("fixedlog.term_block_fp60", "seconds"), "s"),
        "fixedlog.ln_fraction_calls": (f("fixedlog.ln_fraction_bounds", "calls"), "count"),
        "fixedlog.ln_fraction_s": (f("fixedlog.ln_fraction_bounds", "seconds"), "s"),
        "subsum.greedy_calls": (f("subsum.greedy_select", "calls"), "count"),
        "subsum.exact_phase_s": (f("subsum.greedy_select", "self_seconds"), "s"),
        "subsum.fp_phase_calls": (f("subsum._continue_fixed_point", "calls"), "count"),
        "subsum.fp_phase_s": (f("subsum._continue_fixed_point", "self_seconds"), "s"),
        "subsum.selected_primes": (selected, "count"),
        "subsum.scanned_terms": (scanned, "count"),
        "subsum.select_ratio": (selected / scanned if scanned else 0.0, "ratio"),
        "approximate.approx_s": (f("approximate.approx_ray", "self_seconds"), "s"),
        "approximate.verify_calls": (f("approximate.verify_certificate", "calls"), "count"),
        "approximate.verify_s": (f("approximate.verify_certificate", "seconds"), "s"),
        "approximate.exact_results": (counts.get("exact_results", 0), "count"),
        "approximate.certified_results": (counts.get("certified_results", 0), "count"),
        "approximate.refusals": (counts.get("refusals", 0), "count"),
        "autorder.aut_order_calls": (f("autorder.aut_order", "calls"), "count"),
        "autorder.aut_order_s": (f("autorder.aut_order", "seconds"), "s"),
        "autorder.f_log_bounds_s": (f("autorder._f_log_bounds", "seconds"), "s"),
        "oracle.bruteforce_calls": (f("oracle.aut_order_bruteforce", "calls"), "count"),
        "oracle.bruteforce_s": (f("oracle.aut_order_bruteforce", "seconds"), "s"),
        "oracle.refusals": (f("oracle.aut_order_bruteforce", "errors"), "count"),
        "search.find_exact_calls": (f("search.find_exact", "calls"), "count"),
        "search.find_exact_s": (f("search.find_exact", "seconds"), "s"),
        "search.witnesses": (counts.get("witnesses", 0), "count"),
        "search.enumerate_s": (f("search.enumerate_groups", "seconds"), "s"),
        "search.render_s": (f("search.render_table", "seconds"), "s"),
        "search.table_rows": (counts.get("table_rows", 0), "count"),
        "groups.parse_calls": (f("groups.parse_group", "calls"), "count"),
        "groups.parse_s": (f("groups.parse_group", "seconds"), "s"),
        "groups.factorize_s": (f("groups.factorize", "seconds"), "s"),
        "cli.import_ms": (runner.import_ms(), "ms"),
    }
    for layer, seconds in layer_self.items():
        m[f"{layer}.self_s"] = (seconds, "s")
    m["trace.unattributed_s"] = (unattributed, "s")
    m["trace.wall_s"] = (st["wall_s"], "s")
    m["host.slowdown"] = (st["slowdown"], "ratio")
    m["trace.ops_per_s_untraced"] = (st_plain["ops_per_s"], "1/s")
    m["trace.ops_per_s_traced"] = (st["ops_per_s"], "1/s")
    m["trace.overhead_ops_per_s"] = (st["ops_per_s"] - st_plain["ops_per_s"], "1/s")
    m["trace.overhead_pct"] = (100.0 * (st_plain["ops_per_s"] - st["ops_per_s"]) / st_plain["ops_per_s"], "%")

    wrong = plain["wrong"] + result["wrong"]
    if plain["digest"] != result["digest"]:
        wrong.append("traced run's outputs differ from the untraced run's")
    lines = [f"workload {workload}  seed {seed}  traced: {st['rounds']} round(s) x {st['per_round']} ops,"
             f" spans in .perfbench_out/{trace_out.name}"]
    lines += [f"  {name:<32}{value:>16.6g} {unit}" for name, (value, unit) in m.items()]
    total = sum(layer_self.values()) + unattributed
    lines.append(f"  layer self times + unattributed = {total:.6f} s = traced loop wall {st['wall_s']:.6f} s")
    lines += [f"  WRONG: {w}" for w in wrong[:20]]
    return {"correct": not wrong, "attempted": st["ops"], "failed": st["failed"],
            "metrics": m, "lines": lines}


def emit(outcome: dict) -> None:
    for line in outcome["lines"]:
        print(line)
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome["metrics"].items()},
    }), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=16)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through the finally blocks that reap the children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "autratio" / "__init__.py").is_file():
        print(f"error: no autratio source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one vCPU for the whole run: the calibration loop then measures the
    # processor the ops and the CLI requests run on
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    run = traced if args.trace else measure
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = []
    try:
        for name in names:
            outcomes.append(run(Runner(args.seconds), name, args.seed))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(outcomes) == 1:
        emit(outcomes[0])
    else:
        emit({
            "lines": [line for o in outcomes for line in o["lines"]],
            "correct": all(o["correct"] for o in outcomes),
            "attempted": sum(o["attempted"] for o in outcomes),
            "failed": sum(o["failed"] for o in outcomes),
            "metrics": {f"{n}/{k}": v for n, o in zip(names, outcomes) for k, v in o["metrics"].items()},
        })
    return 0


if __name__ == "__main__":
    sys.exit(main())
