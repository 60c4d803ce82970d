"""The ten frozen result records: construction, repr, equality, hashing,
immutability, ``replace`` and copying behave as frozen dataclasses do."""

import copy
import pickle
from fractions import Fraction

import pytest

from autratio._record import replace
from autratio.approximate import ApproxResult, ApproxTrace
from autratio.autorder import LogValue
from autratio.groups import AbelianGroup, SymbolicGroup
from autratio.oracle import OracleCaps
from autratio.search import SearchBounds, Witness
from autratio.subsum import LogTarget, Selection

GROUP = AbelianGroup(((2, (1, 2)), (3, (1,))))
SELECTION = Selection(
    ranges=((2, 3),),
    count=2,
    status="converged",
    scanned=4,
    target=Fraction(15, 8),
    eps=Fraction(1, 100),
    achieved=(5, 6),
)
TRACE = ApproxTrace(SELECTION, 7)
LOG = LogValue(1.5, 0.25)
SYMBOLIC = SymbolicGroup(3, ((2, 43), (55, 55)))

# each record, its pinned repr, and one field with a different valid value
CASES = [
    (LOG, "LogValue(log_value=1.5, abs_error=0.25)", "abs_error", 0.5),
    (GROUP, "AbelianGroup(factors=((2, (1, 2)), (3, (1,))))", "factors", ()),
    (SYMBOLIC, "SymbolicGroup(two_rank=3, odd_prime_ranges=((2, 43), (55, 55)))", "two_rank", 0),
    (OracleCaps(), "OracleCaps(order_cap=200, work_cap=100000000)", "order_cap", 100),
    (
        SearchBounds(5000),
        "SearchBounds(max_order=5000, max_prime=None, max_rank_per_prime=8)",
        "max_prime",
        7,
    ),
    (
        Witness(GROUP, Fraction(3, 2)),
        "Witness(group=AbelianGroup(factors=((2, (1, 2)), (3, (1,)))), f_value=Fraction(3, 2))",
        "f_value",
        Fraction(2),
    ),
    (LogTarget(Fraction(3, 2)), "LogTarget(ratio=Fraction(3, 2))", "ratio", Fraction(2)),
    (
        SELECTION,
        "Selection(ranges=((2, 3),), count=2, status='converged', scanned=4, "
        "target=Fraction(15, 8), eps=Fraction(1, 100), achieved=(5, 6), "
        "exact_sum=None, exact_product=None)",
        "exact_product",
        Fraction(15, 8),
    ),
    (
        TRACE,
        f"ApproxTrace(selection={SELECTION!r}, max_prime_scanned=7, below_eps_witness=False)",
        "below_eps_witness",
        True,
    ),
    (
        ApproxResult(SYMBOLIC, LOG, None, Fraction(9, 2), Fraction(1, 1000), TRACE),
        f"ApproxResult(group={SYMBOLIC!r}, achieved={LOG!r}, exact_ratio=None, "
        f"target=Fraction(9, 2), eps=Fraction(1, 1000), trace={TRACE!r})",
        "exact_ratio",
        Fraction(9, 2),
    ),
]
IDS = [type(case[0]).__name__ for case in CASES]


def field_names(rec):
    return tuple(type(rec).__annotations__)


def field_values(rec):
    return tuple(getattr(rec, name) for name in field_names(rec))


@pytest.mark.parametrize("rec, text, name, value", CASES, ids=IDS)
def test_repr_is_the_dataclass_text(rec, text, name, value):
    assert repr(rec) == text


@pytest.mark.parametrize("rec, text, name, value", CASES, ids=IDS)
def test_equality_and_hash_follow_the_fields_within_one_class(rec, text, name, value):
    twin = type(rec)(*field_values(rec))
    assert twin is not rec and twin == rec and not twin != rec
    assert hash(twin) == hash(rec)
    assert rec != field_values(rec)
    assert field_values(rec) != rec
    other = replace(rec, **{name: value})
    assert other != rec and getattr(other, name) == value
    assert rec.__eq__(field_values(rec)) is NotImplemented


@pytest.mark.parametrize("rec, text, name, value", CASES, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(rec, text, name, value):
    before = field_values(rec)
    with pytest.raises(AttributeError):
        setattr(rec, name, value)
    with pytest.raises(AttributeError):
        delattr(rec, name)
    assert field_values(rec) == before


@pytest.mark.parametrize("rec, text, name, value", CASES, ids=IDS)
def test_new_attributes_are_refused(rec, text, name, value):
    # a slotted frozen dataclass raised TypeError here, from super() on the
    # class that slots=True had replaced
    with pytest.raises(AttributeError):
        rec.not_a_field = 1


@pytest.mark.parametrize("rec, text, name, value", CASES, ids=IDS)
def test_every_record_is_slotted(rec, text, name, value):
    assert type(rec).__slots__ == field_names(rec)
    assert not hasattr(rec, "__dict__")


@pytest.mark.parametrize("rec, text, name, value", CASES, ids=IDS)
def test_copies_and_pickles_are_equal(rec, text, name, value):
    for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(twin) is type(rec)
        assert twin == rec and hash(twin) == hash(rec) and repr(twin) == text


@pytest.mark.parametrize("rec, text, name, value", CASES, ids=IDS)
def test_keywords_and_argument_count(rec, text, name, value):
    values = field_values(rec)
    assert type(rec)(**dict(zip(field_names(rec), values))) == rec
    with pytest.raises(TypeError):
        type(rec)(*values, None)
    with pytest.raises(TypeError):
        type(rec)(**{name: value}, no_such_field=1)
    with pytest.raises(TypeError):
        replace(rec, no_such_field=1)


def test_defaults_fill_missing_arguments():
    assert SearchBounds(10) == SearchBounds(10, None, 8)
    assert OracleCaps(work_cap=5) == OracleCaps(200, 5)
    assert AbelianGroup() == AbelianGroup(())
    assert SymbolicGroup() == SymbolicGroup(0, ())
    assert ApproxTrace(SELECTION, 7) == ApproxTrace(SELECTION, 7, False)
    assert Selection(*field_values(SELECTION)[:7]) == SELECTION
    for cls in (LogValue, Witness, LogTarget, ApproxResult, SearchBounds):
        with pytest.raises(TypeError):
            cls()


def test_post_init_refusals_hold_directly_and_through_replace():
    with pytest.raises(ValueError, match="max_order"):
        SearchBounds(0)
    with pytest.raises(ValueError, match="max_order"):
        replace(SearchBounds(5), max_order=0)
    with pytest.raises(ValueError, match="abs_error"):
        LogValue(0.0, -1.0)
    with pytest.raises(ValueError, match="abs_error"):
        replace(LOG, abs_error=-1.0)
    with pytest.raises(ValueError, match="ratio"):
        LogTarget(Fraction(1, 2))
    with pytest.raises(ValueError, match="ratio"):
        replace(LogTarget(2), ratio=Fraction(1, 2))
    with pytest.raises(ValueError, match="two_rank"):
        SymbolicGroup(-1)
    with pytest.raises(ValueError, match="two_rank"):
        replace(SYMBOLIC, two_rank=-1)


def test_post_init_runs_after_the_fields_are_set():
    # LogTarget's __post_init__ normalizes its field in place
    assert type(LogTarget(2).ratio) is Fraction
    assert replace(LogTarget(3), ratio=5).ratio == Fraction(5)
    assert replace(LOG) == LOG and replace(LOG) is not LOG
