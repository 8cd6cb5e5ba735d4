"""The record types against their dataclass twins in oracles.RECORD_TWINS.

Each value, spec and result type of the library is a hand-written slots
class.  It is built, compared, hashed and printed as its frozen-dataclass
twin, cannot be changed once built, and refuses bad fields with pinned
messages.
"""

import copy
import pickle
from dataclasses import MISSING, fields
from fractions import Fraction

import pytest

import finkit
from finkit import BlockSeq, EquivRelSpec, FinkElement, InvalidElement, InvalidSequence, Window
from finkit.core import FinkError
from oracles import RECORD_TWINS


def any_peak(peaks) -> bool:
    # module level, so that a spec holding it pickles
    return bool(peaks)


E1 = FinkElement(1, ((0, 1),))
S1, S0 = BlockSeq(1, (E1,)), BlockSeq(1, ())
W = Window(1, 4, 3)

# per record type, two sets of fields that differ, every field given; the
# first keeps every default
CASES = {
    "FinkElement": ((1, ((0, 1),)), (2, ((0, 1), (1, 2)))),
    "BlockSeq": ((1, (E1,)), (1, ())),
    "Window": ((1, 4, 3), (2, 4, 3)),
    "Decomposition": ((((0, 0), (2, 1)),), ((),)),
    "ColoringSpec": ((1, 2, "size_mod", None), (2, 3, "table", {"0:1": 2})),
    "SearchReport": ((True, S1, 0, 3), (False, None, None, 7)),
    "VerifyReport": ((True, 8, None), (False, 3, {"0:1": 1})),
    "LevelStats": ((2, (0, 1), (2, 1)), (2, (None, 0), (None, 0))),
    "SosResult": ((True, None), (False, "climb:1")),
    "EquivRelSpec": (("full", None, None), ("table", {"0:1": "1:1", "1:1": "1:1"}, W)),
    "CanonicalizationResult": (
        ("min", EquivRelSpec("min_level", 1), S1, None),
        ("max_2", EquivRelSpec("max_level", 2), BlockSeq(2, ()), "caveat"),
    ),
    "FamilySpec": (("empty", None), ("explicit", frozenset({"0:1", "0:1;1:1", "2:1"}))),
    "AcceptsResult": ((True, None), (False, S1)),
    "RejectsResult": ((True, None), (False, S1)),
    "ForcingVerdict": (("accepts", None, None), ("undecided", S1, S0)),
    "DichotomyResult": ((1, S1), (None, None)),
    "OpenSetResult": (("inside", S1), (None, None)),
    "CoidealPresentation": (("all", W, None), ("mu_over", W, any_peak)),
    "RefineResult": (("left", S1), (None, None)),
    "DiagonalizationReport": ((True, None), (False, E1)),
    "NetFunction": ((2, Fraction(1, 2), ((0, 0), (3, 1))), (1, Fraction(1, 3), ((5, 0),))),
}


def field_values(x) -> tuple:
    return tuple(getattr(x, f.name) for f in fields(RECORD_TWINS[type(x).__name__]))


def hash_or_error(x):
    try:
        return hash(x)
    except TypeError as e:
        return str(e)


def test_every_record_type_has_a_twin_and_cases():
    assert set(CASES) == set(RECORD_TWINS)
    assert len(RECORD_TWINS) == 21


@pytest.mark.parametrize("name", sorted(RECORD_TWINS))
def test_a_record_is_built_compared_hashed_and_printed_as_its_twin(name):
    cls, twin = getattr(finkit, name), RECORD_TWINS[name]
    names = tuple(f.name for f in fields(twin))
    assert cls.__slots__ == names
    (a_args, b_args) = CASES[name]
    a, b, ta, tb = cls(*a_args), cls(*b_args), twin(*a_args), twin(*b_args)
    # positional and keyword construction, and the defaults
    assert field_values(a) == field_values(ta) == a_args
    assert field_values(cls(**dict(zip(names, b_args)))) == b_args
    required = sum(f.default is MISSING for f in fields(twin))
    assert field_values(cls(*a_args[:required])) == field_values(twin(*a_args[:required]))
    # equal by fields, and never to another class with the same fields
    assert (a == cls(*a_args), a != cls(*a_args)) == (True, False)
    assert (a == b, a != b) == (ta == tb, ta != tb) == (False, True)
    assert (a == ta, a != ta, ta == a) == (False, True, False)
    for x, t in ((a, ta), (b, tb)):
        assert hash_or_error(x) == hash_or_error(t)
        assert repr(x) == repr(t)
        assert str(x) == str(t) or name in ("FinkElement", "BlockSeq")  # these print as text


@pytest.mark.parametrize("name", sorted(RECORD_TWINS))
def test_a_record_cannot_be_changed_once_built(name):
    args = CASES[name][0]
    x = getattr(finkit, name)(*args)
    for field in (*x.__slots__, "other"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(x, field, 0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(x, field)
    assert field_values(x) == args
    assert not hasattr(x, "__dict__")


@pytest.mark.parametrize("name", sorted(RECORD_TWINS))
def test_a_record_survives_copy_and_pickle(name):
    for args in CASES[name]:
        x = getattr(finkit, name)(*args)
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x) and field_values(y) == field_values(x)


def test_records_keep_their_twins_order_through_a_set():
    # equal hashes and the same insertions give the same iteration order,
    # so output read off a set does not move; str fields vary with the hash seed
    pairs = [(getattr(finkit, name)(*args), RECORD_TWINS[name](*args))
             for name, cases in CASES.items() for args in cases]
    pairs = [(x, t) for x, t in pairs if isinstance(hash_or_error(t), int)]
    assert len(pairs) == 39  # less the three that hold a dict
    ours = [(type(x).__name__, field_values(x)) for x in set(x for x, _ in pairs)]
    twins = [(type(t).__name__, field_values(t)) for t in set(t for _, t in pairs)]
    assert ours == twins
    assert {x: i for i, (x, _) in enumerate(pairs)} == {x: i for i, (x, _) in enumerate(copy.deepcopy(pairs))}


# per record type that validates, fields it refuses: (type, args, error, message)
REFUSALS = [
    ("FinkElement", (0, ((0, 1),)), InvalidElement, "level bound must be >= 1, got 0"),
    ("FinkElement", (1, ()), InvalidElement, "element must have nonempty support"),
    ("FinkElement", (1, ((-1, 1),)), InvalidElement, "negative position -1"),
    ("FinkElement", (1, ((2, 1), (2, 1))), InvalidElement, "positions not strictly increasing at 2"),
    ("FinkElement", (2, ((0, 3),)), InvalidElement, "value 3 at position 0 outside 1..2"),
    ("FinkElement", (2, ((0, 1),)), InvalidElement, "k not attained: no value equals 2"),
    ("BlockSeq", (0, ()), InvalidSequence, "level bound must be >= 1, got 0"),
    ("BlockSeq", (2, (E1,)), InvalidSequence, "element level 1 differs from sequence level 2"),
    ("BlockSeq", (1, (FinkElement(1, ((0, 1), (1, 1))), FinkElement(1, ((1, 1),)))), InvalidSequence,
     "supports not separated: 1:1 starts at 1, previous ends at 1"),
    ("Window", (0, 3, 3), FinkError, "window parameters must be >= 1, got Window(k=0, n_max=3, len_max=3)"),
    ("Window", (1, 3, 0), FinkError, "window parameters must be >= 1, got Window(k=1, n_max=3, len_max=0)"),
    ("Decomposition", (((1, 0), (1, 0)),), FinkError, "generator indices must be strictly increasing"),
    ("Decomposition", (((0, -1),),), FinkError, "tetris exponents must be nonnegative"),
    ("Decomposition", (((0, 1),),), FinkError, "some tetris exponent must be 0"),
    ("ColoringSpec", (1, 2, "nope"), FinkError, "unknown coloring kind 'nope'"),
    ("ColoringSpec", (1, 2, "const"), FinkError, "coloring kind 'const' needs an integer parameter"),
    ("ColoringSpec", (1, 2, "table"), FinkError, "coloring kind 'table' needs a table"),
    ("ColoringSpec", (1, 2, "func"), FinkError, "coloring kind 'func' needs a function"),
    ("ColoringSpec", (0, 2, "size_mod"), FinkError, "coloring arity must be >= 1, got 0"),
    ("ColoringSpec", (1, 1, "size_mod"), FinkError, "need at least 2 colors, got 1"),
    ("ColoringSpec", (1, 2, "const", 2), FinkError, "constant color 2 outside 0..1"),
    ("ColoringSpec", (1, 2, "value_at", -1), FinkError, "value_at position -1 is negative"),
    ("ColoringSpec", (1, 2, "table", {"0:1": 2}), FinkError, "color 2 for '0:1' outside 0..1"),
    ("EquivRelSpec", ("nope",), FinkError, "unknown relation kind 'nope'"),
    ("EquivRelSpec", ("min_level", 0), FinkError, "relation kind 'min_level' needs a level >= 1, got 0"),
    ("EquivRelSpec", ("table",), FinkError, "relation kind 'table' needs its classes"),
    ("FamilySpec", ("nope",), FinkError, "unknown family kind 'nope'"),
    ("FamilySpec", ("support_ge",), FinkError, "family kind 'support_ge' needs an integer parameter"),
    ("CoidealPresentation", ("nope", W), FinkError, "unknown coideal kind 'nope'"),
    ("CoidealPresentation", ("mu_over", W), FinkError, "coideal kind 'mu_over' needs a peak predicate"),
    ("NetFunction", (0, Fraction(1, 2), ((0, 0),)), FinkError, "level bound must be >= 1, got 0"),
    ("NetFunction", (1, Fraction(0), ((0, 0),)), FinkError, "delta must be positive, got 0"),
    ("NetFunction", (1, Fraction(1, 2), ()), FinkError, "net function must have nonempty support"),
    ("NetFunction", (1, Fraction(1, 2), ((1, 0), (1, 0))), FinkError,
     "positions must be strictly increasing, bad 1"),
    ("NetFunction", (2, Fraction(1, 2), ((0, 2),)), FinkError, "exponent 2 at 0 outside 0..1"),
    ("NetFunction", (2, Fraction(1, 2), ((0, 1),)), FinkError,
     "net function never attains the value 1 (no exponent 0)"),
    # the one kind and param check of the four specs, core.check_rule
    ("ColoringSpec", (1, 2, "size_mod", 3), FinkError, "coloring kind 'size_mod' takes no parameter, got 3"),
    ("EquivRelSpec", ("min_level",), FinkError, "relation kind 'min_level' needs a level"),
    ("EquivRelSpec", ("equality", 3), FinkError, "relation kind 'equality' takes no parameter, got 3"),
    ("FamilySpec", ("explicit",), FinkError, "family kind 'explicit' needs its members"),
    ("FamilySpec", ("empty", 2), FinkError, "family kind 'empty' takes no parameter, got 2"),
    ("CoidealPresentation", ("top_of", W), FinkError, "coideal kind 'top_of' needs a base"),
    ("CoidealPresentation", ("all", W, ()), FinkError, "coideal kind 'all' takes no parameter, got ()"),
]


@pytest.mark.parametrize("name, args, error, message", REFUSALS)
def test_a_record_refuses_bad_fields_with_its_message(name, args, error, message):
    with pytest.raises(FinkError) as info:
        getattr(finkit, name)(*args)
    assert (type(info.value), str(info.value)) == (error, message)
