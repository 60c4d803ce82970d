"""Index sets and greedy steps, rebuilt from what the library returns.

A Selection keeps the included index runs and the last index scanned;
with the source, that is the whole scan.  Every gap between two included
indices was skipped as one run, and so was the stretch from the last
included index to ``scanned`` when the scan ends there.
"""

from fractions import Fraction

from autratio import subsum
from autratio.groups import _add_run
from autratio.subsum import PrimeRatioSource


def runs_of(indices) -> tuple[tuple[int, int], ...]:
    """Strictly increasing indices as (lo, hi) runs."""
    runs: list[tuple[int, int]] = []
    for i in indices:
        _add_run(runs, i, i)
    return tuple(runs)


def indices(sel) -> list[int]:
    """The selected source indices, ascending."""
    return [i for lo, hi in sel.ranges for i in range(lo, hi + 1)]


def exact_product(sel, source):
    """U = prod p/(p-1) over a prime-ratio selection of at most
    ``subsum.EXACT_CAP`` included terms, as ``approximate.approx_ray``
    builds it for an exact result; None for a longer one."""
    if sel.count > subsum.EXACT_CAP:
        return None
    return Fraction(*subsum._product(source, sel.ranges))


def trail(sel, source) -> tuple:
    """The greedy's steps in scan order.

    Additive source: ("include", i, x_i, running sum after it) and
    ("skip_run", i0, i1, deficit at the skip, x_i1).  Prime-ratio source:
    ("include", j, p) and ("skip_run", i0, i1).
    """
    additive = not isinstance(source, PrimeRatioSource)
    steps = []
    running = Fraction(0)
    nxt = 1  # the first index not yet accounted for

    def skip(i0, i1):
        if additive:
            steps.append(("skip_run", i0, i1, sel.target - running, source.term(i1)))
        else:
            steps.append(("skip_run", i0, i1))

    for i in indices(sel):
        if i > nxt:
            skip(nxt, i - 1)
        if additive:
            x = source.term(i)
            running += x
            steps.append(("include", i, x, running))
        else:
            steps.append(("include", i, source.prime(i)))
        nxt = i + 1
    if sel.scanned >= nxt:
        skip(nxt, sel.scanned)
    return tuple(steps)
