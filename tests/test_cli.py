import decimal
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import autratio.primes
from autratio import cli
from autratio.approximate import approx_ray
from autratio.autorder import aut_order, f_exact
from autratio.cli import main
from autratio.groups import parse_group
from autratio.primes import PrimeStream


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_f(capsys):
    code, out, _ = run(capsys, "f", "C2")
    assert code == 0 and out == "1/2\n"
    code, out, _ = run(capsys, "f", "C1")
    assert code == 0 and out == "1\n"
    code, out, _ = run(capsys, "f", "--phi", "C2 x C4")
    assert code == 0 and out == "2\n"


def test_f_json_round_trip(capsys):
    code, out, _ = run(capsys, "f", "--json", "C2^3")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert Fraction(doc["result"]["value"]) == 21
    assert doc["command"] == "f"
    assert doc["inputs"] == {"group": "C2^3", "phi": False}


def test_aut(capsys):
    code, out, _ = run(capsys, "aut", "C2^3")
    assert code == 0 and out == "168\n"
    code, out, _ = run(capsys, "aut", "C1")
    assert code == 0 and out == "1\n"
    code, out, _ = run(capsys, "aut", "--oracle", "C2 x C4")
    assert code == 0 and out == "8 8 match\n"
    code, out, _ = run(capsys, "oracle", "C2 x C4")
    assert code == 0 and out == "8 8 match\n"


def test_aut_oracle_cap_exit_code(capsys):
    code, out, err = run(capsys, "aut", "--oracle", "C211")
    assert code == 2
    assert "cap" in err


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "f", "Cnope")
    assert code == 1 and "Cnope" in err


def test_approx_exact(capsys):
    code, out, _ = run(capsys, "approx", "1", "--eps", "1e-6")
    assert code == 0
    assert "f = 1 (exact)" in out
    code, out, _ = run(capsys, "approx", "0.5", "--eps", "1e-9")
    assert code == 0
    assert "group: C2" in out and "f = 1/2 (exact)" in out


def test_approx_tolerance_above_the_target(capsys):
    for target, eps in [("0", "5"), ("1/2", "4")]:
        code, out, _ = run(capsys, "approx", target, "--eps", eps, "--json")
        assert code == 0
        res = json.loads(out)["result"]
        assert Fraction(res["exact_ratio"]) < Fraction(eps)
        assert res["second_pass_ok"] is True


def test_approx_certified(capsys):
    code, out, _ = run(capsys, "approx", "2", "--eps", "1e-3", "--json")
    assert code == 0
    doc = json.loads(out)
    res = doc["result"]
    assert res["group"]["two_rank"] == 3
    assert res["second_pass_ok"] is True
    assert res["trace"]["status"] == "converged"
    assert Fraction(res["trace"]["b"]) == 21
    assert Fraction(res["trace"]["eps_inner"]) == Fraction("1/21000")
    assert res["achieved"]["abs_error"] >= 0


def test_approx_materialize(capsys):
    code, out, _ = run(capsys, "approx", "0.3", "--eps", "1e-3", "--materialize")
    assert code == 0
    lit = [ln for ln in out.splitlines() if ln.startswith("literal: ")][0]
    from autratio.autorder import f_exact
    from autratio.groups import parse_group

    f = f_exact(parse_group(lit.removeprefix("literal: ")))
    assert Fraction(3, 10) <= f < Fraction(3, 10) + Fraction(1, 1000)


def test_search(capsys):
    code, out, _ = run(capsys, "search", "1", "--max-order", "8")
    assert code == 0 and out.splitlines() == ["C1", "C2 x C4"]
    code, out, _ = run(capsys, "search", "1/2", "--max-order", "8")
    assert code == 0 and out.splitlines() == ["C2", "C4", "C8"]
    code, out, _ = run(capsys, "search", "5", "--max-order", "4")
    assert code == 0 and out == "no witness within bounds (max_order=4)\n"


def test_search_rejects_decimal_target(capsys):
    code, _, err = run(capsys, "search", "0.5", "--max-order", "8")
    assert code == 1 and "rational" in err


def test_table(capsys, tmp_path):
    out_path = tmp_path / "t.tsv"
    code, out, _ = run(capsys, "table", "--max-order", "8", "--out", str(out_path))
    assert code == 0 and out == "11 rows\n"
    assert out_path.read_bytes().startswith(b"# autratio f-table v1 max_order=8\n")


def test_table_error_names_the_out_path(capsys, tmp_path):
    out_path = str(tmp_path / "missing" / "t.tsv")
    code, _, err = run(capsys, "table", "--max-order", "8", "--out", out_path)
    assert code == 3
    assert err == f"error: [Errno 2] No such file or directory: {out_path!r}\n"
    code, out, _ = run(capsys, "table", "--out", out_path, "--json")
    assert code == 3 and json.loads(out)["error"] == err.removeprefix("error: ").strip()


def test_rejected_certificate_is_an_error(capsys, monkeypatch):
    monkeypatch.setattr(autratio.approximate, "verify_certificate", lambda res, stream=None: False)
    code, out, _ = run(capsys, "approx", "2/3", "--eps", "1e-3", "--json")
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert doc["error"] == "second pass rejected the certificate"
    assert doc["result"]["second_pass_ok"] is False
    code, out, err = run(capsys, "approx", "2/3", "--eps", "1e-3")
    assert code == 3 and err == ""
    assert out.splitlines()[-1] == "second-pass check: FAILED"


def cold_process(argv, timeout, *flags):
    """One `python <flags> -m autratio.cli <argv>` process on this
    checkout's source, run to its end."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *flags, "-m", "autratio.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def run_cold(argv, timeout):
    """One `python -m autratio.cli` process on this checkout's source: its
    exit code and error message (stderr, or the JSON envelope's error)."""
    proc = cold_process(argv, timeout)
    message = proc.stderr if "--json" not in argv else json.loads(proc.stdout)["error"]
    return proc.returncode, message


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--max-order", "300"],
        ["search", "3/2", "--max-order", "5000"],
        ["f", "C2 x C4 x C9"],
        ["aut", "C4 x C6"],
        ["aut", "--oracle", "C4 x C6"],
        ["oracle", "C6"],
        ["approx", "1.52", "--eps", "1/1000"],  # its scan leaves the first window
        ["approx", "9/2", "--eps", "1/1000"],
        ["approx", "2.8", "--eps", "1/1000"],  # its greedy takes a run of over 256 terms at once
    ],
)
def test_no_command_imports_numpy(tmp_path, argv):
    # -X importtime logs every module imported, so the modules logged are
    # those in sys.modules when the command exits
    if argv[0] == "table":
        argv = argv + ["--out", str(tmp_path / "t.tsv")]
    proc = cold_process([*argv, "--json"], 60, "-X", "importtime")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "ok"
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "autratio.primes" in imported
    assert "numpy" not in imported


def test_no_command_imports_dataclasses_or_inspect():
    # -S keeps site-packages' .pth imports out of the modules counted
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import autratio.cli, autratio.approximate, autratio.search, autratio.oracle\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    imported = set(proc.stdout.split())
    assert "autratio.search" in imported
    assert imported.isdisjoint({"dataclasses", "inspect"}), sorted(imported)


def test_gigantic_literal_is_refused_before_it_is_expanded():
    # C2^100000000 would expand to a list of 10^8 exponents
    for argv in (["aut", "C2^100000000"], ["f", "C2^100000000", "--json"]):
        code, message = run_cold(argv, timeout=30)
        assert code == 2, message
        assert "MAX_LITERAL_AUT_BITS = 4194304" in message


def test_overlong_number_in_literal_exit_code(capsys):
    # without the limit, int() of more than 4300 digits raises CPython's own
    # ValueError, which exits 1
    for literal in ["C2^" + "1" * 5000, "C" + "3" * 5000]:
        code, _, err = run(capsys, "f", literal)
        assert code == 2 and "MAX_LITERAL_DIGITS = 4300" in err
    code, out, _ = run(capsys, "aut", "--json", "C2^" + "1" * 5000)
    assert code == 2 and "MAX_LITERAL_DIGITS" in json.loads(out)["error"]


def test_probable_prime_above_psi12_is_refused_in_bounded_time():
    # 2^89 - 1: trial division to its square root would run for days
    start = time.perf_counter()
    mersenne = "C618970019642690137449562111"
    for argv in (["f", mersenne], ["aut", f"C2^89 x {mersenne}", "--json"]):
        code, message = run_cold(argv, timeout=30)
        assert code == 2, message
        assert "psi_12 = 318665857834031151167461" in message
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize(
    "argv, limit",
    [
        # the digit bound refuses these from the text, before Fraction
        # expands them; 1e1000000 used to run for minutes, the others to
        # exit 1 with CPython's int conversion limit
        (["approx", "1e1000000", "--eps", "1e-3"], "MAX_LITERAL_DIGITS = 4300"),
        (["approx", "1e100000", "--eps", "1e-3"], "MAX_LITERAL_DIGITS = 4300"),
        (["approx", "0.5", "--eps", "1e-100000"], "MAX_LITERAL_DIGITS = 4300"),
        (["search", "7" * 5000, "--json"], "MAX_LITERAL_DIGITS = 4300"),
        (["search", "1/" + "3" * 4301], "MAX_LITERAL_DIGITS = 4300"),
        # within the digit bound, but eps/b has thousands of digits: the
        # refusal must not print it
        (["approx", "1e4299", "--eps", "1e-3"], "resolution 2^-192"),
        (["approx", "1e4000", "--eps", "1e-3", "--json"], "resolution 2^-192"),
        # rho spends its step budget on a 1128-bit cofactor
        (["f", f"C{(2**521 - 1) * (2**607 - 1) * 12}"], "RHO_STEP_BUDGET = 262144"),
    ],
)
def test_unbounded_inputs_are_refused_in_bounded_time(argv, limit):
    start = time.perf_counter()
    code, message = run_cold(argv, timeout=60)
    assert code == 2, message
    assert limit in message and len(message) < 300, message
    assert time.perf_counter() - start < 10


def test_search_refuses_sparse_bounds_past_the_part_limit():
    # rank 8 to 10^30 would need 21,582,622 p-parts of p = 2; building
    # them ran out of memory after 24.5 s under a 1.5 GB address space
    start = time.perf_counter()
    argv = ["search", "5", "--max-prime", "2", "--max-order", str(10**30), "--json"]
    code, message = run_cold(argv, timeout=30)
    assert code == 2, message
    assert "MAX_SEARCH_PARTS = 524288" in message
    assert time.perf_counter() - start < 2


def test_materialized_literal_round_trips_through_f(capsys):
    # 2512 primes of rank 1: a long literal, but a small |Aut| bound
    argv = ("approx", "0.055", "--eps", "1e-3", "--materialize")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lit = [ln for ln in out.splitlines() if ln.startswith("literal: ")][0]
    lit = lit.removeprefix("literal: ")
    assert lit.count(" x ") + 1 == 2512
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    exact = json.loads(out)["result"]["exact_ratio"]
    code, out, _ = run(capsys, "f", lit, "--json")
    assert code == 0 and json.loads(out)["result"]["value"] == exact


def test_table_and_search_past_one_frame_per_prime(capsys, tmp_path):
    # both ended in RecursionError (exit 3) while the walk recursed once
    # per skipped prime
    out_path = tmp_path / "t.tsv"
    code, out, _ = run(
        capsys, "table", "--max-order", "8000", "--json", "--out", str(out_path)
    )
    assert code == 0 and json.loads(out)["result"]["rows"] == 17636
    code, out, _ = run(capsys, "search", "5", "--max-order", "9000", "--json")
    assert code == 0 and json.loads(out)["status"] == "ok"


def test_repeat_invocations_byte_identical(capsys):
    _, out1, _ = run(capsys, "approx", "1.7", "--eps", "1e-4", "--json")
    _, out2, _ = run(capsys, "approx", "1.7", "--eps", "1e-4", "--json")
    assert out1 == out2
    _, out1, _ = run(capsys, "search", "3/2", "--max-order", "50", "--json")
    _, out2, _ = run(capsys, "search", "3/2", "--max-order", "50", "--json")
    assert out1 == out2


def test_env_overrides_oracle_caps(capsys, monkeypatch):
    monkeypatch.setenv("AUTRATIO_ORACLE_ORDER_CAP", "300")
    monkeypatch.setenv("AUTRATIO_ORACLE_WORK_CAP", "1000000000000")
    code, out, _ = run(capsys, "aut", "--oracle", "C211")
    assert code == 0 and out == "210 210 match\n"


def test_malformed_env_overrides_name_the_setting(capsys, monkeypatch):
    # the shared stream is built afresh, so it reads the ceiling override
    monkeypatch.setattr(autratio.primes, "_shared", None)
    for value in ["-5", "1e8", "1", "x"]:
        monkeypatch.setenv("AUTRATIO_SIEVE_CEILING", value)
        code, out, err = run(capsys, "approx", "0.3", "--eps", "1e-3")
        assert code == 1 and out == ""
        assert err == f"error: AUTRATIO_SIEVE_CEILING={value!r}: expected a decimal integer >= 2\n"
    for name, value in [("AUTRATIO_ORACLE_ORDER_CAP", "x"), ("AUTRATIO_ORACLE_WORK_CAP", "0")]:
        monkeypatch.setenv(name, value)
        code, out, _ = run(capsys, "oracle", "C6", "--json")
        assert code == 1
        assert json.loads(out)["error"] == f"{name}={value!r}: expected a decimal integer >= 1"
        monkeypatch.delenv(name)


def test_json_error_envelope(capsys):
    code, out, _ = run(capsys, "f", "--json", "Cnope")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "error" and doc["result"] is None
    assert "Cnope" in doc["error"]
    # the alias names itself as the command it stands for, refused or not
    code, out, _ = run(capsys, "oracle", "C211", "--json")
    assert code == 2
    doc = json.loads(out)
    assert doc["command"] == "aut" and doc["status"] == "error"
    assert "oracle order cap" in doc["error"]


def test_usage_error_exit_code(capsys):
    assert main(["f"]) == 1  # missing argument
    assert main(["nosuchcommand"]) == 1


def digits_to_int(text: str) -> int:
    # int(str) is capped at 4300 digits; Decimal parsing is not
    return int(decimal.Decimal(text))


def ratio_from_text(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(digits_to_int(num), digits_to_int(den or "1"))


def test_big_integers_print_in_full(capsys):
    g = parse_group("C2^200")
    code, out, _ = run(capsys, "f", "C2^200")
    assert code == 0 and ratio_from_text(out.strip()) == f_exact(g)
    code, out, _ = run(capsys, "aut", "C2^200")
    assert code == 0 and digits_to_int(out.strip()) == aut_order(g)
    assert len(out.strip()) > 4300

    code, out, _ = run(capsys, "approx", "2.5", "--eps", "1/1000", "--json")
    assert code == 0
    res = json.loads(out)["result"]
    want = approx_ray(Fraction(5, 2), Fraction(1, 1000))
    assert ratio_from_text(res["exact_ratio"]) == want.exact_ratio
    assert res["group"]["odd_prime_index_ranges"] == [
        list(r) for r in want.group.odd_prime_ranges
    ]


def test_search_past_sieve_ceiling_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(autratio.primes, "_shared", PrimeStream(ceiling=1000))
    code, _, err = run(capsys, "search", "5", "--max-order", "5000")
    assert code == 2 and "ceiling" in err


def parse_digits(s: str) -> int:
    """int(s) by halving, an exact check that avoids quadratic int(str)."""
    if len(s) <= 2000:
        return int(s)
    h = len(s) // 2
    return parse_digits(s[:h]) * 10 ** (len(s) - h) + parse_digits(s[h:])


def test_int_str_matches_str():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        edge = 1 << cli._SPLIT_BITS
        for n in [0, 7, -7, -(10**5000) - 3, edge - 1, edge, edge + 1, -edge, 3**20000]:
            assert cli._int_str(n) == str(n)
    finally:
        sys.set_int_max_str_digits(old)
    n = aut_order(parse_group("C2^1500"))
    start = time.perf_counter()
    s = cli._int_str(n)
    # str(n) takes seconds on this size; this check is exact and fast
    assert time.perf_counter() - start < 5
    assert s[0] != "0" and len(s) == 677_317 and parse_digits(s) == n


def test_search_with_a_prime_limit_answers_past_the_sieve_ceiling(capsys):
    # only primes up to --max-prime are needed, however large --max-order is
    code, out, _ = run(
        capsys, "search", "11664", "--max-prime", "3", "--max-rank", "2",
        "--max-order", str(10**15), "--json",
    )
    witnesses = json.loads(out)["result"]["witnesses"]
    assert code == 0 and len(witnesses) == 320
    assert witnesses[0] == "C4 x C8 x C81 x C243"
