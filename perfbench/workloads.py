"""The benchmark's four workloads.

Each workload makes its inputs from the seed alone, in rounds of a fixed
number of ops, so that the percentiles of a round are the same percentiles
however fast the program is.  Construction is the workload's set-up: it
imports the program, creates a fresh ``PrimeStream`` and generates round 0.
``op`` is one user request and is the only timed code.  ``check`` rebuilds
answers without trusting the program's bookkeeping and returns one message
per wrong answer.  ``digest_lines`` gives the canonical outputs that the
output digest covers.  ``probes`` are fixed boundary inputs that run after
the timed loop and count apart from the ops.  ``cli_argv`` is one cheap,
fixed request of the same kind for the cold command-line timing; its work
is the same for every seed, so cli_cold_ms measures start-up, not input
size.  ``cli_expect`` gives what it must print, computed with the library
after the loop.

Why these workloads:

* ray-certify: certified approximation (subsum, fixedlog, primes,
  approximate and the second-pass verifier).  Most targets finish in the
  exact greedy phase in about a millisecond; about one in eight lies just
  above 1.5, where f(C2^3) = 21 leaves an odd-prime remainder near 1/14,
  selects 10^4 to 5*10^5 primes and runs the 60-bit continuation and the
  scalar verifier for up to several seconds.
* search-roundtrip: the pruned walk of find_exact with its denominator and
  numerator cuts, half on targets that must be found, half on random n/d.
* table-build: the same enumeration without pruning; every group is
  listed, sorted and evaluated, so a walk change that helps find_exact but
  slows enumerate_groups shows here.
* evaluate: parse, the |Aut| formula and the brute-force oracle, with
  high-rank literals (cost O(rank^2)) and bases with a large prime factor
  (trial-division factorization), which no other workload reaches.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

import reference as ref
from autratio import (
    AbelianGroup,
    OracleCaps,
    PrimeStream,
    SearchBounds,
    approx_ray,
    aut_order,
    aut_order_bruteforce,
    enumerate_groups,
    f_exact,
    f_prime_exact,
    find_exact,
    format_group,
    order,
    parse_group,
    verify_certificate,
)
from autratio.errors import OracleCapExceeded, PrecisionRefusal, SieveCapacityError
from autratio.search import render_table

# exit-2 class outcomes of the command-line tool
REFUSALS = (SieveCapacityError, OracleCapExceeded, PrecisionRefusal)


class FalseVerdict(Exception):
    """The program's own second pass rejected its certificate."""


def _rng(name: str, seed: int, r: int) -> random.Random:
    # str seeds hash through sha512, so inputs do not depend on PYTHONHASHSEED
    return random.Random(f"{name}:{seed}:{r}")


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.stream = PrimeStream()
        self._round0 = self._make_round(0)

    def round_inputs(self, r: int) -> list:
        return self._round0 if r == 0 else self._make_round(r)

    def _make_round(self, r: int) -> list:
        raise NotImplementedError

    def op(self, x):
        raise NotImplementedError

    def keep(self, output):
        """What the loop stores of an op's output for the checks."""
        return output

    def check(self, inputs, outputs) -> list[str]:
        raise NotImplementedError

    def digest_lines(self, inputs, outputs) -> list[str]:
        raise NotImplementedError

    def input_lines(self, inputs) -> list[str]:
        return [repr(x) for x in inputs]

    def probes(self) -> list[tuple[str, object]]:
        return []

    cli_argv: list[str] = []
    cli_out_file = False  # the request writes a file named by --out

    def cli_expect(self) -> dict:
        raise NotImplementedError

    def counts(self, inputs, outputs, kinds) -> dict:
        return {}


class RayCertify(Workload):
    """approx_ray(a, 1e-3) then verify_certificate, as `autratio approx` does.

    Targets are a stratified sample of [0.1, 5]: one per stratum of width
    0.035, with a stratum edge at 1.5 where the cost jumps, in seeded order.
    Even strata put their target at a seeded offset u, odd strata at 1 - u
    (antithetic pairs).  Each target is uniform over its stratum, and every
    round holds the deep share the distribution has.  Op cost falls
    smoothly from about 6 s just above 1.5 to about 0.2 s at 2.1, so with
    one offset for all strata the round's total would swing by one deep
    op's cost with u; the pairs cancel that to first order, and a run's
    throughput does not hang on where in their strata the deep targets
    fell.  (0, 0.1) is left to the probes: below about 0.030 the
    seed refuses for sieve capacity, and in (0.030, 0.035) one op selects
    1.5 to 5.7 million primes, sieves to 10^8 and takes 15 to 50 s.
    """

    name = "ray-certify"
    eps = Fraction(1, 1000)

    def __init__(self, seed: int, tiny: bool = False):
        self.lo, self.width, self.strata = (2.2, 0.35, 8) if tiny else (0.1, 0.035, 140)
        self.table = ref.PrimeTable()
        super().__init__(seed)

    def _make_round(self, r):
        rng = _rng(self.name, self.seed, r)
        u = rng.random()
        targets = [
            Fraction(self.lo + (j + (u if j % 2 == 0 else 1 - u)) * self.width)
            for j in range(self.strata)
        ]
        rng.shuffle(targets)
        return targets

    def op(self, a):
        res = approx_ray(a, self.eps, stream=self.stream)
        if not verify_certificate(res, stream=self.stream):
            raise FalseVerdict(f"second pass rejected the certificate for {float(a)}")
        return res

    def check(self, inputs, outputs):
        wrong = []
        for a, res in zip(inputs, outputs):
            if res is None:
                continue
            if res.target != a or res.eps != self.eps:
                wrong.append(f"{float(a)}: result is for target {res.target}, eps {res.eps}")
                continue
            g = res.group
            primes = self.table.nth(ref.ranges_to_indices(g.odd_prime_ranges))
            below = res.trace.below_eps_witness
            if res.exact_ratio is not None:
                f = ref.exact_ratio_of(g.two_rank, primes)
                if f != res.exact_ratio:
                    wrong.append(f"{float(a)}: exact ratio is not f of the returned group")
                elif not ((0 < f < self.eps) if below else abs(f - a) <= self.eps):
                    wrong.append(f"{float(a)}: f = {float(f)} misses the target")
                continue
            lnf = ref.log_ratio_of(g.two_rank, primes)
            lo, hi = res.achieved.interval()
            if not float(lo) - 1e-9 <= lnf <= float(hi) + 1e-9:
                wrong.append(f"{float(a)}: enclosure [{float(lo)}, {float(hi)}] misses ln f = {lnf}")
            f = math.exp(lnf)
            tol = float(self.eps) + 1e-9
            if not ((f < tol) if below else abs(f - float(a)) <= tol):
                wrong.append(f"{float(a)}: f = {f} misses the target")
        return wrong

    def digest_lines(self, inputs, outputs):
        lines = []
        for a, res in zip(inputs, outputs):
            if res is None:
                lines.append(f"{_frac(a)}|failed")
                continue
            # hex: exact ratios run to thousands of digits, past int-to-str limits
            cert = (
                f"{res.exact_ratio.numerator:x}/{res.exact_ratio.denominator:x}"
                if res.exact_ratio is not None
                else f"{res.achieved.log_value!r}+-{res.achieved.abs_error!r}"
            )
            lines.append(f"{_frac(a)}|{res.group.two_rank}|{res.group.odd_prime_ranges}|{cert}")
        return lines

    def input_lines(self, inputs):
        return [_frac(a) for a in inputs]

    def probes(self):
        # the seed refuses both for sieve capacity: 0.02 needs primes far past
        # 10^8, and 0.0005 <= eps asks for a certified ratio below 1e-3
        def probe(a):
            def run():
                res = self.op(a)
                wrong = self.check([a], [res])
                return (wrong[0] if wrong else None), self.digest_lines([a], [res])
            return run

        return [(f"approx {a} --eps 1/1000", probe(Fraction(a))) for a in ("1/50", "1/2000")]

    # a target >= 4 selects under 100 primes in the exact phase, so the CLI
    # can print the exact ratio in decimal
    cli_argv = ["approx", "9/2", "--eps", "1/1000", "--json"]

    def cli_expect(self):
        res = self.op(Fraction(9, 2))
        g, f = res.group, res.exact_ratio
        return {
            "exact_ratio": _frac(f) if f.denominator > 1 else str(f.numerator),
            "group": {
                "two_rank": g.two_rank,
                "odd_prime_index_ranges": [list(x) for x in g.odd_prime_ranges],
                "index_count": g.index_count,
            },
            "second_pass_ok": True,
        }

    def counts(self, inputs, outputs, kinds):
        sels = [res.trace.selection for res in outputs if res is not None]
        sels = [s for s in sels if s is not None]
        return {
            "selected_primes": sum(s.count for s in sels),
            "scanned_terms": sum(s.scanned for s in sels),
            "exact_results": sum(1 for res in outputs if res is not None and res.exact_ratio is not None),
            "certified_results": sum(1 for res in outputs if res is not None and res.exact_ratio is None),
            "refusals": sum(1 for k in kinds if k == "refused"),
        }


class SearchRoundtrip(Workload):
    """find_exact at a fixed order bound: half f(G) for a sampled G, which
    must come back, half random n/d with n, d in [1, 1000].

    Both halves are stratified: G is drawn from each of ``half`` equal
    slices of the population in enumeration (order) order, and n and d
    from each of ``half`` equal slices of [1, 1000], the slices of d paired
    with those of n in seeded order (a Latin hypercube).  Every round then
    covers the whole range of orders and of n and d, so its percentiles do
    not hang on a few draws."""

    name = "search-roundtrip"

    def __init__(self, seed: int, tiny: bool = False):
        self.max_order, self.half = (300, 5) if tiny else (5000, 100)
        self.bounds = SearchBounds(max_order=self.max_order)
        self.population = list(enumerate_groups(self.bounds))
        super().__init__(seed)

    def _make_round(self, r):
        rng = _rng(self.name, self.seed, r)

        def strata(size):
            return [int((j + rng.random()) * size / self.half) for j in range(self.half)]

        items = [(f_exact(self.population[i]), self.population[i]) for i in strata(len(self.population))]
        ds = strata(1000)
        rng.shuffle(ds)
        items += [(Fraction(n + 1, d + 1), None) for n, d in zip(strata(1000), ds)]
        rng.shuffle(items)
        return items

    def op(self, x):
        return find_exact(x[0], self.bounds)

    def check(self, inputs, outputs):
        wrong = []
        for (a, g), ws in zip(inputs, outputs):
            if ws is None:
                continue
            found = [w.group for w in ws]
            if g is not None and g not in found:
                wrong.append(f"{format_group(g)}: not found for its own ratio {a}")
            if len(set(found)) != len(found):
                wrong.append(f"{a}: duplicate witnesses")
            orders = [order(h) for h in found]
            if orders != sorted(orders) or any(n > self.max_order for n in orders):
                wrong.append(f"{a}: witnesses out of order or out of bounds")
            for w in ws:
                if w.f_value != a or f_exact(w.group) != a:
                    wrong.append(f"{a}: witness {format_group(w.group)} has another ratio")
        return wrong

    def digest_lines(self, inputs, outputs):
        return [
            f"{_frac(a)}|" + ("failed" if ws is None else ";".join(format_group(w.group) for w in ws))
            for (a, _), ws in zip(inputs, outputs)
        ]

    def input_lines(self, inputs):
        return [f"{_frac(a)}|{'' if g is None else format_group(g)}" for a, g in inputs]

    def probes(self):
        # both exceed the seed's recursion depth (one frame per skipped prime)
        def search_probe():
            ws = find_exact(5, SearchBounds(max_order=9000))
            bad = [w for w in ws if f_exact(w.group) != 5]
            return (f"witness with another ratio: {bad[0]}" if bad else None), [
                ";".join(format_group(w.group) for w in ws)
            ]

        def table_probe():
            data = render_table(SearchBounds(max_order=8000))
            rows = data.count(b"\n") - 1
            expect = ref.count_groups(8000, 8)
            return (None if rows == expect else f"{rows} rows, expected {expect}"), [
                str(rows)
            ]

        return [("search 5 --max-order 9000", search_probe), ("table --max-order 8000", table_probe)]

    cli_argv = ["search", "3/2", "--max-order", "5000", "--json"]

    def cli_expect(self):
        ws = find_exact(Fraction(3, 2), SearchBounds(max_order=5000))
        return {"witnesses": [format_group(w.group) for w in ws]}

    def counts(self, inputs, outputs, kinds):
        return {"witnesses": sum(len(ws) for ws in outputs if ws is not None)}


class TableBuild(Workload):
    """render_table at one order bound, drawn per seed from [1990, 2010]
    (about 4270 rows, 0.25 s a build, so a run holds several 30-build
    rounds); every build must equal the run's first byte for byte."""

    name = "table-build"

    def __init__(self, seed: int, tiny: bool = False):
        lo, span, self.per_round = (290, 21, 3) if tiny else (1990, 21, 30)
        self.max_order = lo + _rng(self.name, seed, 0).randrange(span)
        self.bounds = SearchBounds(max_order=self.max_order)
        self.first: bytes | None = None
        self.first_checked = False
        super().__init__(seed)

    def _make_round(self, r):
        return [self.max_order] * self.per_round

    def op(self, max_order):
        return render_table(self.bounds)

    def keep(self, output):
        # keep one build; later builds keep only whether they match it
        if self.first is None:
            self.first = output
            return True
        return output == self.first

    def check(self, inputs, outputs):
        wrong = [f"build {i} differs from the first" for i, same in enumerate(outputs) if same is False]
        if self.first is not None and not self.first_checked:
            self.first_checked = True
            wrong += self._check_table(self.first)
        return wrong

    def _check_table(self, data: bytes) -> list[str]:
        lines = data.decode("utf-8").splitlines()
        header = f"# autratio f-table v1 max_order={self.max_order}"
        if not lines or lines[0] != header:
            return [f"bad header {lines[:1]}"]
        rows = lines[1:]
        expect = ref.count_groups(self.max_order, 8)
        wrong = [] if len(rows) == expect else [f"{len(rows)} rows, expected {expect}"]
        last = 0
        for row in rows:
            literal, n, aut, f = row.split("\t")
            n, aut = int(n), int(aut)
            num, den = (int(x) for x in f.split("/"))
            factors = [int(tok.strip()[1:]) for tok in literal.split("x")]
            if n < last or n > self.max_order or math.prod(factors) != n:
                wrong.append(f"{row}: order out of place")
            if math.gcd(num, den) != 1 or Fraction(aut, n) != Fraction(num, den):
                wrong.append(f"{row}: f is not |Aut|/|G| in lowest terms")
            if len(factors) == 1 and aut != ref.phi(ref.factor_small(n)):
                wrong.append(f"{row}: |Aut| of a cyclic group is not phi(n)")
            if len(set(factors)) == 1 and ref.is_prime(factors[0]) and aut != ref.gl_order(factors[0], len(factors)):
                wrong.append(f"{row}: |Aut| of an elementary group is not |GL|")
            last = n
        return wrong[:20]

    def digest_lines(self, inputs, outputs):
        return [hashlib.sha256(self.first).hexdigest() if self.first is not None else "failed"]

    cli_argv = ["table", "--max-order", "500", "--json"]
    cli_out_file = True

    def cli_expect(self):
        data = render_table(SearchBounds(max_order=500))
        return {"rows": data.count(b"\n") - 1, "file_sha256": hashlib.sha256(data).hexdigest()}

    def counts(self, inputs, outputs, kinds):
        rows = self.first.count(b"\n") - 1 if self.first is not None else 0
        return {"table_rows": rows * sum(1 for k in kinds if k == "ok")}


class Evaluate(Workload):
    """parse, f_exact, f_prime_exact and aut_order on one literal.

    A round holds every group of order <= 96 and rank <= 5 (174 groups),
    spelled differently per seed and cross-checked by the brute-force
    oracle inside the op, plus 10 literals C2^r with r in [250, 330] and 16
    cyclic literals C(m*p) with m <= 30 and p a prime in [10^12.5, 10^13.5],
    r and log p systematically sampled (one seeded offset, evenly spaced
    strata), so a round's total cost is nearly the same for every seed.
    The cyclic ones factor by trial division
    in 0.1 to 0.3 s, the slowest ops of the round, so the round's tail (its
    11th slowest op) falls inside a spread of sizes that is the same for
    every seed.
    """

    name = "evaluate"
    caps = OracleCaps(order_cap=96, work_cap=10**10)

    def __init__(self, seed: int, tiny: bool = False):
        if tiny:
            self.family = ref.small_groups(12, 3)
            self.high_rank, self.rank_range = 1, (20, 30)
            self.large_prime, self.log_prime_range = 1, (6.0, 6.5)
        else:
            self.family = ref.small_groups(96, 5)
            self.high_rank, self.rank_range = 10, (250, 330)
            self.large_prime, self.log_prime_range = 16, (12.5, 13.5)
        super().__init__(seed)

    @staticmethod
    def _spell(rng: random.Random, parts: dict) -> str:
        """A random literal for the group: prime powers merged into cyclic
        factors of coprime orders, shuffled, repeats sometimes as C<m>^<k>."""
        items = [(p, e) for p, part in parts.items() for e in part]
        if not items:
            return "C1"
        rng.shuffle(items)
        blocks: list[dict] = []
        for p, e in items:
            free = [b for b in blocks if p not in b]
            if free and rng.random() < 0.5:
                rng.choice(free)[p] = e
            else:
                blocks.append({p: e})
        bases = sorted(math.prod(p**e for p, e in b.items()) for b in blocks)
        tokens = []
        i = 0
        while i < len(bases):
            j = i
            while j + 1 < len(bases) and bases[j + 1] == bases[i]:
                j += 1
            k = j - i + 1
            if k > 1 and rng.random() < 0.5:
                tokens.append(f"C{bases[i]}^{k}")
            else:
                tokens.extend([f"C{bases[i]}"] * k)
            i = j + 1
        rng.shuffle(tokens)
        return rng.choice([" x ", "x", "  x "]).join(tokens)

    def _make_round(self, r):
        rng = _rng(self.name, self.seed, r)
        items = [(self._spell(rng, parts), "small", parts) for parts in self.family]
        lo, hi = self.rank_range
        u = rng.random()
        for j in range(self.high_rank):
            rank = int(lo + (j + u) * (hi - lo) / self.high_rank)
            items.append((f"C2^{rank}", "elementary", (2, rank)))
        lo, hi = self.log_prime_range
        u = rng.random()
        for j in range(self.large_prime):
            m = rng.randint(1, 30)
            p = ref.next_prime(int(10 ** (lo + (j + u) * (hi - lo) / self.large_prime)))
            items.append((f"C{m * p}", "cyclic", (m, p)))
        rng.shuffle(items)
        return items

    def op(self, x):
        literal, kind, _ = x
        g = parse_group(literal)
        aut = aut_order(g)
        f = f_exact(g)
        fp = f_prime_exact(g)
        brute = aut_order_bruteforce(g, self.caps) if kind == "small" else None
        return g, aut, f, fp, brute

    def check(self, inputs, outputs):
        wrong = []
        for (literal, kind, spec), out in zip(inputs, outputs):
            if out is None:
                continue
            g, aut, f, fp = out[:4]
            if kind == "small":
                expect_g = AbelianGroup.from_primary({p: list(part) for p, part in spec.items()})
                n = math.prod(p ** sum(part) for p, part in spec.items())
                expect_aut = out[4]
                phi_n = ref.phi({p: sum(part) for p, part in spec.items()})
            elif kind == "elementary":
                p, rank = spec
                expect_g = AbelianGroup.from_primary({p: [1] * rank})
                n = p**rank
                expect_aut = ref.gl_order(p, rank)
                phi_n = p ** (rank - 1) * (p - 1)
            else:
                m, p = spec
                fac = {**ref.factor_small(m), p: 1}
                expect_g = AbelianGroup.from_primary({q: [e] for q, e in fac.items()})
                n = m * p
                expect_aut = phi_n = ref.phi(fac)
            if g != expect_g:
                wrong.append(f"{literal!r}: parsed as {format_group(g)}")
            if aut != expect_aut:
                wrong.append(f"{literal!r}: |Aut| formula disagrees with the reference")
            if f != Fraction(expect_aut, n) or fp != Fraction(expect_aut, phi_n):
                wrong.append(f"{literal!r}: f or f' disagrees with the reference")
        return wrong

    def digest_lines(self, inputs, outputs):
        # hex: decimal strings of these integers exceed int-to-str limits
        return [
            f"{x[0]}|" + ("failed" if out is None else hex(out[1]))
            for x, out in zip(inputs, outputs)
        ]

    def input_lines(self, inputs):
        return [x[0] for x in inputs]

    cli_argv = ["aut", "--oracle", "C4 x C6", "--json"]

    def cli_expect(self):
        g = parse_group("C4 x C6")
        return {"aut_order": str(aut_order(g)), "oracle": str(aut_order_bruteforce(g)), "match": True}


WORKLOADS = {w.name: w for w in (RayCertify, SearchRoundtrip, TableBuild, Evaluate)}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    return WORKLOADS[name](seed, tiny)
