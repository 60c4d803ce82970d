"""The values the README states in its quick tour and its command-line
block, checked against the library and ``cli.main``."""

import shlex
from fnmatch import fnmatchcase
from fractions import Fraction
from pathlib import Path

from autratio import (
    SearchBounds,
    approx_ray,
    aut_order_bruteforce,
    f_exact,
    f_prime_exact,
    find_exact,
    format_group,
    parse_group,
)
from autratio.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(heading: str) -> str:
    """The first fenced code block after ``heading``."""
    after = README.split(heading + "\n", 1)[1]
    return after.split("```", 2)[1].split("\n", 1)[1]


def test_quick_tour_values():
    tour = fenced_block("## Library quick tour")
    assert "# Fraction(21, 1)" in tour
    assert f_exact(parse_group("C2^3")) == Fraction(21)
    assert "# Fraction(2, 1)" in tour
    assert f_prime_exact(parse_group("C2 x C4")) == Fraction(2)
    assert "# 8, independently" in tour
    assert aut_order_bruteforce(parse_group("C2 x C4")) == 8
    describe = "C2^3 x odd primes #2-#12235 (12234 primes)"
    assert f"# '{describe}'" in tour
    assert approx_ray(Fraction(2), Fraction(1, 1000)).group.describe() == describe
    assert "# witnesses C2, C4, C8" in tour
    found = find_exact(Fraction(1, 2), SearchBounds(max_order=8))
    assert [format_group(w.group) for w in found] == ["C2", "C4", "C8"]


# The README's command-line block, line by line: the command, the answer
# its comment states, and the lines of its stdout as fnmatch patterns.
COMMAND_LINE = [
    ('autratio f "C2 x C4"', "1  (|Aut| = 8 = |G|)", ["1"]),
    ('autratio f --phi "C2 x C4"', "2  (f' normalizes by phi(8) = 4)", ["2"]),
    ('autratio aut "C2^3"', "168", ["168"]),
    ('autratio aut --oracle "C2 x C4"', '"8 8 match"  (oracle = brute force)', ["8 8 match"]),
    ('autratio oracle "C6"', "alias of aut --oracle", ["2 2 match"]),
    (
        "autratio approx 0.5 --eps 1e-9",
        "C2, exact",
        [
            "group: C2",
            "f = 1/2 (exact)",
            "certified: |f - 1/2| <= 1/1000000000",
            "trace: * status=converged",
            "second-pass check: ok",
        ],
    ),
    (
        "autratio approx 2 --eps 1e-3",
        "C2^3 x odd primes, certified",
        [
            "group: C2^3 x odd primes #2-#12235 (12234 primes)",
            "ln f = * (certified)",
            "certified: |f - 2| <= 1/1000",
            "trace: two_rank=3 * status=converged",
            "second-pass check: ok",
        ],
    ),
    ("autratio search 1/2 --max-order 8", "C2, C4, C8", ["C2", "C4", "C8"]),
    (
        "autratio search 5 --max-order 4",
        "no witness within bounds (max_order=4)",
        ["no witness within bounds (max_order=4)"],
    ),
    ("autratio table --max-order 100 --out f-table.tsv", "", ["185 rows"]),
]


def test_command_line_block(capsys, tmp_path):
    block = fenced_block("## Command line")
    lines = [line.partition("#")[::2] for line in block.splitlines()]
    assert [(c.strip(), s.strip()) for c, s in lines] == [row[:2] for row in COMMAND_LINE]
    for command, _, want in COMMAND_LINE:
        argv = shlex.split(command)[1:]
        if argv[0] == "table":
            argv[-1] = str(tmp_path / argv[-1])
        assert main(argv) == 0, command
        out = capsys.readouterr().out.splitlines()
        assert len(out) == len(want), command
        assert all(fnmatchcase(line, pat) for line, pat in zip(out, want)), (command, out)
    header = (tmp_path / "f-table.tsv").read_text().splitlines()[0]
    assert header == "# autratio f-table v1 max_order=100"
