"""Command-line surface.

Commands: f, aut, approx, search, table, oracle (alias of aut --oracle).
Exit codes: 0 ok, 1 usage or parse error, 2 capacity or cap refusal,
3 internal error.  Exact rationals cross this boundary as "num/den"
strings, never as floats; log-space values always come with their error
bound.  Env overrides: AUTRATIO_SIEVE_CEILING, AUTRATIO_ORACLE_ORDER_CAP,
AUTRATIO_ORACLE_WORK_CAP.

Each command function returns (inputs, result, lines, error) and prints
nothing; ``main`` renders it.  Under --json every command prints one
envelope with five fields: command, inputs, result, status, error.
``status`` is "ok" exactly when ``error`` is null and the exit code is 0.
A refusal or failure has null inputs and result; a completed run that
fails its own check (oracle mismatch, rejected certificate) keeps both
and exits 3.  The oracle alias reports "command": "aut".  Without --json
the lines go to stdout, or "error: <message>" to stderr.

Each command imports what it needs when it runs: ``search`` and ``table``
the search module, ``approx`` the approximation modules, ``aut --oracle``
(and its alias) the oracle.  Every command runs on the standard library
alone, and none loads the dataclass module or ``inspect`` (see ``_record``).
"""

from __future__ import annotations

import argparse
import decimal
import json
import re
import sys
from fractions import Fraction

from .autorder import aut_order, f_exact, f_prime_exact, two_rank_ratio
from .errors import (
    GroupParseError,
    InputLimitExceeded,
    OracleCapExceeded,
    PrecisionRefusal,
    SieveCapacityError,
)
from .groups import MAX_LITERAL_DIGITS, format_group, parse_group
from .primes import env_int, shared_stream

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAPACITY = 2
EXIT_INTERNAL = 3


# Decimal(n) is quadratic in the digit count, so larger ints are split at a
# bit midpoint and the halves joined exactly: n = hi * 2**k + lo.
_SPLIT_BITS = 1 << 14
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN
)


def _to_decimal(n: int) -> decimal.Decimal:
    if n.bit_length() <= _SPLIT_BITS:
        return decimal.Decimal(n)
    k = n.bit_length() // 2
    hi = _EXACT.multiply(_to_decimal(n >> k), _EXACT.power(2, k))
    return _EXACT.add(hi, _to_decimal(n & ((1 << k) - 1)))


def _int_str(n: int) -> str:
    """Decimal digits of n; unlike str(n), not capped at 4300 digits, and
    near-linear time on 10^6-digit values."""
    if n < 0:
        return "-" + _int_str(-n)
    return str(_to_decimal(n))


def _ratio_str(q: Fraction) -> str:
    if q.denominator == 1:
        return _int_str(q.numerator)
    return f"{_int_str(q.numerator)}/{_int_str(q.denominator)}"


# The grammar of Fraction(str): p/q, or a decimal with an optional exponent,
# digits optionally grouped by single underscores.
_DIGITS = r"\d+(?:_\d+)*"
_RATIONAL_RE = re.compile(
    rf"[-+]?(?=\d|\.\d)(?P<num>(?:{_DIGITS})?)(?:/(?P<den>{_DIGITS})"
    rf"|(?:\.(?P<frac>(?:{_DIGITS})?))?(?:e(?P<exp>[-+]?{_DIGITS}))?)",
    re.IGNORECASE,
)


def _parse_rational(text: str, what: str, allow_decimal: bool) -> Fraction:
    """The rational ``text`` as Fraction(str) reads it, refused with
    InputLimitExceeded when its numerator or denominator as written (before
    reduction to lowest terms) has more than MAX_LITERAL_DIGITS digits,
    before any of it is expanded."""
    text = text.strip()
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise GroupParseError(f"cannot parse {text!r} as a rational")
    if not allow_decimal and "/" not in text and not text.lstrip("+-").isdigit():
        raise GroupParseError(
            f"{text!r}: exact search targets must be integers or p/q rationals"
        )

    def digits(s: str | None) -> str:
        return (s or "").replace("_", "").lstrip("0")

    sign = -1 if text.startswith("-") else 1
    if m["den"] is not None:
        num, den = digits(m["num"]), digits(m["den"])
        _check_digits(what, numerator=len(num), denominator=len(den))
        if not den:
            raise GroupParseError(f"cannot parse {text!r} as a rational: zero denominator")
        return Fraction(sign * int(num or "0"), int(den))
    frac = (m["frac"] or "").replace("_", "")
    mant = digits(m["num"] + frac)
    if not mant:
        return Fraction(0)
    exp = m["exp"] or "0"
    _check_digits(what, exponent=len(digits(exp.lstrip("+-"))))
    e = int(exp.replace("_", "")) - len(frac)
    _check_digits(what, numerator=len(mant) + max(e, 0), denominator=max(-e, 0) + 1)
    return Fraction(sign * int(mant) * 10 ** max(e, 0), 10 ** max(-e, 0))


def _check_digits(what: str, **counts: int) -> None:
    for name, n in counts.items():
        if n > MAX_LITERAL_DIGITS:
            raise InputLimitExceeded(
                f"{what} refused: its {name} has {n} digits, more than "
                f"MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS}"
            )


def _oracle_caps():
    from .oracle import OracleCaps

    default = OracleCaps()
    return OracleCaps(
        order_cap=env_int("AUTRATIO_ORACLE_ORDER_CAP", default.order_cap, 1),
        work_cap=env_int("AUTRATIO_ORACLE_WORK_CAP", default.work_cap, 1),
    )


def _cmd_f(args):
    g = parse_group(args.group)
    value = _ratio_str(f_prime_exact(g) if args.phi else f_exact(g))
    return {"group": args.group, "phi": bool(args.phi)}, {"value": value}, [value], None


def _cmd_aut(args):
    g = parse_group(args.group)
    formula = aut_order(g)
    inputs = {"group": args.group, "oracle": bool(args.oracle)}
    if not args.oracle:
        text = _int_str(formula)
        return inputs, {"aut_order": text}, [text], None
    from .oracle import aut_order_bruteforce

    brute = aut_order_bruteforce(g, _oracle_caps())
    match = formula == brute
    result = {"aut_order": _int_str(formula), "oracle": _int_str(brute), "match": match}
    line = f"{result['aut_order']} {result['oracle']} {'match' if match else 'MISMATCH'}"
    return inputs, result, [line], None if match else "formula/oracle mismatch"


def _cmd_approx(args):
    from . import approximate

    a = _parse_rational(args.target, "target", allow_decimal=True)
    eps = _parse_rational(args.eps, "eps", allow_decimal=True)
    stream = shared_stream()
    res = approximate.approx_ray(a, eps, odd_only=args.odd_only, stream=stream)
    verified = approximate.verify_certificate(res, stream=stream)
    b = two_rank_ratio(res.group.two_rank)
    trace = {
        "two_rank": res.group.two_rank,
        "b": _ratio_str(b),
        "eps_inner": _ratio_str(eps / b),
        "below_eps_witness": res.trace.below_eps_witness,
        "scanned": res.trace.selection.scanned,
        "status": res.trace.selection.status,
        "max_prime_scanned": res.trace.max_prime_scanned,
    }
    result = {
        "group": {
            "two_rank": res.group.two_rank,
            "odd_prime_index_ranges": [list(r) for r in res.group.odd_prime_ranges],
            "index_count": res.group.index_count,
        },
        "achieved": {
            "log_value": res.achieved.log_value,
            "abs_error": res.achieved.abs_error,
        },
        "exact_ratio": None if res.exact_ratio is None else _ratio_str(res.exact_ratio),
        "target": _ratio_str(a),
        "eps": _ratio_str(eps),
        "trace": trace,
        "second_pass_ok": verified,
    }
    if res.exact_ratio is not None:
        achieved = f"f = {result['exact_ratio']} (exact)"
    else:
        achieved = (
            f"ln f = {res.achieved.log_value!r} +- {res.achieved.abs_error:.3e} "
            "(certified)"
        )
    if res.trace.below_eps_witness:
        certified = f"f < {result['eps']} (target in [0, eps])"
    else:
        certified = f"|f - {result['target']}| <= {result['eps']}"
    lines = [
        f"group: {res.group.describe()}",
        achieved,
        f"certified: {certified}",
        "trace: two_rank={two_rank} b={b} eps_inner={eps_inner} scanned={scanned} "
        "max_prime={max_prime_scanned} status={status}".format(**trace),
        f"second-pass check: {'ok' if verified else 'FAILED'}",
    ]
    if args.materialize:
        try:
            lines.append("literal: " + format_group(res.group.materialize(stream)))
        except ValueError as exc:
            lines.append(f"literal: not materialized ({exc})")
    inputs = {
        "target": args.target,
        "eps": args.eps,
        "odd_only": bool(args.odd_only),
        "materialize": bool(args.materialize),
    }
    return inputs, result, lines, None if verified else "second pass rejected the certificate"


def _cmd_search(args):
    from .search import SearchBounds, find_exact

    a = _parse_rational(args.target, "target", allow_decimal=False)
    bounds = SearchBounds(
        max_order=args.max_order,
        max_prime=args.max_prime,
        max_rank_per_prime=args.max_rank,
    )
    witnesses = [format_group(w.group) for w in find_exact(a, bounds)]
    inputs = {
        "target": args.target,
        "max_order": bounds.max_order,
        "max_prime": bounds.max_prime,
        "max_rank": bounds.max_rank_per_prime,
    }
    lines = witnesses or [f"no witness within bounds (max_order={bounds.max_order})"]
    return inputs, {"witnesses": witnesses}, lines, None


def _cmd_table(args):
    from .search import SearchBounds, build_f_table

    bounds = SearchBounds(max_order=args.max_order, max_rank_per_prime=args.max_rank)
    rows = build_f_table(bounds, args.out)
    inputs = {"max_order": args.max_order, "out": args.out}
    return inputs, {"rows": rows, "path": args.out}, [f"{rows} rows"], None


_MAX_RANK_HELP = "most cyclic factors per prime; floor(log2 N) lists every group of order <= N"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="autratio",
        description="Exact automorphism-to-order ratios of finite abelian groups",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("f", help="evaluate f(G) (or f'(G) with --phi) exactly")
    p.add_argument("group", help='group literal, e.g. "C2 x C4 x C9"')
    p.add_argument("--phi", action="store_true", help="normalize by phi(|G|)")
    p.set_defaults(fn=_cmd_f)

    p = sub.add_parser("aut", help="|Aut(G)| (with --oracle: brute-force check)")
    p.add_argument("group")
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(fn=_cmd_aut)

    p = sub.add_parser("oracle", help="alias of: aut --oracle")
    p.add_argument("group")
    p.set_defaults(fn=_cmd_aut, oracle=True, command="aut")

    p = sub.add_parser(
        "approx", help="construct a group with |f(G) - a| <= eps, certified"
    )
    p.add_argument("target", help="decimal or rational target a >= 0")
    p.add_argument("--eps", default="1e-6")
    p.add_argument("--odd-only", dest="odd_only", action="store_true",
                   help="restrict to odd group order (target must be <= 1)")
    p.add_argument("--materialize", action="store_true",
                   help="also print the expanded group literal when small enough")
    p.set_defaults(fn=_cmd_approx)

    p = sub.add_parser("search", help="exact witnesses f(G) = a within bounds")
    p.add_argument("target", help="exact rational, e.g. 21 or 1/2")
    p.add_argument("--max-order", dest="max_order", type=int, default=100)
    p.add_argument("--max-prime", dest="max_prime", type=int, default=None)
    p.add_argument("--max-rank", dest="max_rank", type=int, default=8, help=_MAX_RANK_HELP)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("table", help="write the exact f-table for all groups")
    p.add_argument("--max-order", dest="max_order", type=int, default=100)
    p.add_argument("--max-rank", dest="max_rank", type=int, default=8, help=_MAX_RANK_HELP)
    p.add_argument("--out", default="f-table.tsv")
    p.set_defaults(fn=_cmd_table)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return ap


def _render(args, inputs, result, lines, error) -> None:
    """Print the envelope under --json; else the text lines, or with none
    the error on stderr."""
    if args.json:
        envelope = {
            "command": args.command,
            "inputs": inputs,
            "result": result,
            "status": "ok" if error is None else "error",
            "error": error,
        }
        print(json.dumps(envelope, sort_keys=True))
    elif lines is not None:
        print(*lines, sep="\n")
    else:
        print(f"error: {error}", file=sys.stderr)


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        inputs, result, lines, error = args.fn(args)
        _render(args, inputs, result, lines, error)
        return EXIT_OK if error is None else EXIT_INTERNAL
    except (GroupParseError, ValueError) as exc:
        message, code = str(exc), EXIT_USAGE
    except (
        SieveCapacityError, OracleCapExceeded, PrecisionRefusal, InputLimitExceeded
    ) as exc:
        message, code = str(exc), EXIT_CAPACITY
    except OSError as exc:
        message, code = str(exc), EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - surface everything as exit 3
        message, code = f"internal error: {exc}", EXIT_INTERNAL
    _render(args, None, None, None, message)
    return code


if __name__ == "__main__":
    sys.exit(main())
