import random

import pytest
from hypothesis import given, settings, strategies as st

from finkit import (
    BlockSeq,
    ColoringSpec,
    Decomposition,
    FamilySpec,
    FinkElement,
    FinkError,
    InvalidElement,
    InvalidSequence,
    ParseError,
    Window,
    block_sum,
    decompose,
    element_from_json,
    element_to_json,
    first_common_condensation,
    format_element,
    format_seq,
    galvin_dichotomy,
    generators,
    gowers_search,
    initial_segments,
    leq,
    neighborhood,
    parse_element,
    parse_seq,
    recompose,
    seq_from_json,
    seq_to_json,
    sequences_over,
    span_enumerate,
    tetris,
    validate_element,
    window_elements,
)
from finkit.core import parse_rule, window_generators
from oracles import raw, raw_sequences, raw_span, to_elem, to_seq
from test_span_engine import block_seqs, window_of


def elem(text, k):
    return parse_element(text, k)


def seq(text, k):
    return parse_seq(text, k)


# -- construction and validation ---------------------------------------------


def test_validate_element_basic():
    e = validate_element([(0, 1), (2, 2)], 2)
    assert e.support() == (0, 2)
    assert e.k == 2


def test_validate_element_rejects_missing_peak():
    with pytest.raises(InvalidElement):
        validate_element([(0, 1)], 2)


def test_validate_element_sorts():
    e = validate_element([(3, 2), (1, 1)], 2)
    assert e.values == ((1, 1), (3, 2))


def test_validate_element_rejects_bad_values():
    with pytest.raises(InvalidElement):
        validate_element([(0, 3)], 2)
    with pytest.raises(InvalidElement):
        validate_element([(0, 0), (1, 2)], 2)
    with pytest.raises(InvalidElement):
        validate_element([(0, 2), (0, 1)], 2)
    with pytest.raises(InvalidElement):
        validate_element([], 2)


def test_blockseq_rejects_overlap_and_mixed_levels():
    with pytest.raises(InvalidSequence):
        BlockSeq(1, (elem("0:1,2:1", 1), elem("1:1", 1)))
    with pytest.raises(InvalidSequence):
        BlockSeq(2, (elem("0:1", 1),))


# -- tetris --------------------------------------------------------------------


def test_tetris_examples():
    assert tetris(elem("3:2", 2), 1) == elem("3:1", 1)
    assert tetris(elem("0:2,1:1", 2), 1) == elem("0:1", 1)
    assert tetris(elem("3:2", 2), 2) is None
    p = elem("0:2,4:1", 2)
    assert tetris(p, 0) is p


def test_tetris_level_law():
    # every value of tetris(p, j) lies in 0..k-j, over a whole window
    w = Window(3, 4, 4)
    for p in window_elements(w):
        for j in range(p.k):
            q = tetris(p, j)
            assert q.k == p.k - j
            assert all(1 <= v <= p.k - j for _, v in q.values)


# -- block sums ------------------------------------------------------------------


def test_block_sum_examples():
    s = block_sum([elem("0:2", 2), elem("3:1,4:2", 2)])
    assert s == elem("0:2,3:1,4:2", 2)
    x = elem("0:2,1:1", 2)
    assert block_sum([x]) == x


def test_block_sum_rejects():
    with pytest.raises(InvalidElement):
        block_sum([elem("0:1", 1), elem("2:1", 1)], k=2)
    with pytest.raises(InvalidElement):
        block_sum([elem("0:2,1:2", 2), elem("1:2", 2)])
    with pytest.raises(InvalidElement):
        block_sum([])


# -- spans ------------------------------------------------------------------------


def test_span_k1_pair():
    w = Window(1, 2, 2)
    got = span_enumerate(generators(1, 2), w)
    assert [format_element(x) for x in got] == ["0:1", "0:1,1:1", "1:1"]


def test_span_k2_pair():
    w = Window(2, 2, 2)
    got = {format_element(x) for x in span_enumerate(generators(2, 2), w)}
    assert got == {"0:2", "1:2", "0:2,1:2", "0:2,1:1", "0:1,1:2"}


def test_span_empty():
    assert span_enumerate(BlockSeq(1, ()), Window(1, 1, 1)) == []


def test_span_no_duplicates_and_matches_oracle():
    cases = [
        generators(2, 3),
        seq("0:2,1:1;2:1,3:2", 2),
        seq("0:1,1:3;3:3,4:2;6:3", 3),
    ]
    for A in cases:
        w = Window(A.k, 8, 8)
        got = span_enumerate(A, w)
        assert len(got) == len({x.values for x in got})
        assert {raw(x) for x in got} == raw_span(A)


def test_span_cardinality_single_point():
    for k in (1, 2):
        for m in (1, 2, 3):
            w = Window(k, m, m)
            assert len(span_enumerate(generators(k, m), w)) == (k + 1) ** m - k**m


# -- decomposition -----------------------------------------------------------------


def test_decompose_examples():
    A = seq("0:2,1:1;3:2", 2)
    d = decompose(elem("0:1,3:2", 2), A)
    assert d.parts == ((0, 1), (1, 0))
    assert decompose(elem("1:2", 2), A) is None
    d0 = decompose(A.elems[0], A)
    assert d0.parts == ((0, 0),)


def test_decompose_recompose_roundtrip():
    A = seq("0:2,1:1;3:2,5:1;7:2", 2)
    w = Window(2, 8, 8)
    for x in span_enumerate(A, w):
        d = decompose(x, A)
        assert d is not None
        assert recompose(d, A) == x


def test_decompose_duality_small():
    # membership in the enumerated span agrees with decompose for all
    # window elements
    cases = [
        (generators(1, 4), Window(1, 4, 4)),
        (seq("0:2;2:2,3:1", 2), Window(2, 5, 5)),
        (seq("0:3,1:1;3:3", 3), Window(3, 5, 5)),
    ]
    for A, w in cases:
        members = {x.values for x in span_enumerate(A, w)}
        for x in window_elements(w):
            assert (x.values in members) == (decompose(x, A) is not None)


# -- condensation order -------------------------------------------------------------


def test_leq_examples():
    A = generators(1, 3)
    assert leq(A, A)
    assert leq(seq("0:1,1:2", 2), seq("0:2;1:2", 2))
    assert not leq(seq("0:2", 2), seq("1:2", 2))


def test_leq_transitivity_enumerated():
    A = generators(1, 4)
    w = Window(1, 4, 4)
    bs = initial_segments(A, 2, w)
    for B in bs:
        for C in initial_segments(B, 2, w):
            assert leq(C, B) and leq(B, A)
            assert leq(C, A)


# -- windowed sequence sets ----------------------------------------------------------


def test_initial_segments_examples():
    A = generators(1, 2)
    w = Window(1, 2, 4)
    assert initial_segments(A, 0, w) == [BlockSeq(1, ())]
    ones = {format_seq(s) for s in initial_segments(A, 1, w)}
    assert ones == {"0:1", "1:1", "0:1,1:1"}
    twos = [format_seq(s) for s in initial_segments(A, 2, w)]
    assert twos == ["0:1;1:1"]


def test_initial_segments_checks_the_window_at_every_length():
    A = generators(1, 5)
    for n in (0, 1, 2):
        with pytest.raises(FinkError, match="past window n_max=4"):
            initial_segments(A, n, Window(1, 4, 4))


def test_neighborhood_examples():
    a = seq("0:1", 1)
    A = generators(1, 3)
    w = Window(1, 3, 4)
    got = {format_seq(s) for s in neighborhood(a, A, 2, w)}
    assert got == {"0:1;1:1", "0:1;2:1", "0:1;1:1,2:1"}
    assert neighborhood(BlockSeq(1, ()), A, 2, w) == initial_segments(A, 2, w)


def test_neighborhood_no_room():
    a = seq("0:1;1:1,2:1", 1)  # ends at the window edge
    A = generators(1, 3)
    w = Window(1, 3, 4)
    assert neighborhood(a, A, 2, w) == [a]
    assert neighborhood(a, A, 3, w) == []


def test_neighborhood_monotone_prefixes():
    a = seq("0:1", 1)
    A = generators(1, 5)
    w = Window(1, 5, 5)
    full = neighborhood(a, A, 3, w)
    for L in (1, 2, 3):
        level = {format_seq(s) for s in neighborhood(a, A, L, w)}
        for B in full:
            assert format_seq(B.prefix(L)) in level


# -- random duality sweep -------------------------------------------------------------


def random_blockseq(rng, k, n_max, max_len):
    elems = []
    pos = 0
    for _ in range(rng.randint(1, max_len)):
        width = rng.randint(1, 2)
        if pos + width > n_max:
            break
        vals = []
        peak_at = rng.randrange(width)
        for i in range(width):
            v = k if i == peak_at else rng.randint(1, k)
            vals.append((pos + i, v))
        elems.append(FinkElement(k, tuple(vals)))
        pos += width + rng.randint(0, 1)
    if not elems:
        elems = [FinkElement(k, ((0, k),))]
    return BlockSeq(k, tuple(elems))


def test_duality_random_sweep():
    rng = random.Random(7)
    for k, n_max in ((1, 6), (2, 5), (3, 4)):
        w = Window(k, n_max, n_max)
        for _ in range(10):
            A = random_blockseq(rng, k, n_max, 3)
            members = {x.values for x in span_enumerate(A, w)}
            for x in window_elements(w):
                assert (x.values in members) == (decompose(x, A) is not None)


# -- text and JSON formats -------------------------------------------------------------


def test_parse_format_roundtrip():
    for text, k in (("0:2,3:1", 2), ("5:2", 2), ("0:1,1:1,2:1", 1)):
        e = parse_element(text, k)
        assert format_element(e) == text
        assert parse_element(format_element(e), k) == e


def test_parse_unsorted_canonicalizes():
    assert format_element(parse_element("3:2,1:1", 2)) == "1:1,3:2"


def test_parse_seq_roundtrip_and_empty():
    s = parse_seq("0:2,1:1;3:2", 2)
    assert format_seq(s) == "0:2,1:1;3:2"
    assert parse_seq("", 2) == BlockSeq(2, ())
    assert format_seq(BlockSeq(2, ())) == ""


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_element("0(2", 2)
    with pytest.raises(ParseError):
        parse_element("", 2)
    with pytest.raises(ParseError):
        parse_element("0:1", 2)  # never attains 2
    with pytest.raises(ParseError):
        parse_seq("1:1;0:1", 1)  # out of block order


def test_json_mirror():
    e = parse_element("0:2,3:1", 2)
    assert element_to_json(e) == [[0, 2], [3, 1]]
    assert element_from_json([[0, 2], [3, 1]], 2) == e
    s = parse_seq("0:2;2:1,3:2", 2)
    assert seq_from_json(seq_to_json(s), 2) == s


def test_window_elements_count():
    for k, n in ((1, 4), (2, 3), (3, 3)):
        w = Window(k, n, n)
        elems = list(window_elements(w))
        assert len(elems) == (k + 1) ** n - k**n
        assert len({x.values for x in elems}) == len(elems)
    # the window is the span of its generators, whose value-vector order
    # gowers-verify's digits follow
    for k, n, size in ((1, 4, 15), (2, 3, 19), (3, 3, 37), (1, 6, 63), (2, 5, 211), (3, 4, 175)):
        w = Window(k, n, n)
        span = span_enumerate(window_generators(w), w)
        by_vector = sorted(span, key=lambda x: [x.value_at(p) for p in range(n)])
        assert by_vector == list(window_elements(w)) and len(span) == size


def test_sequence_enumeration_matches_raw_oracle():
    from oracles import raw_sequences, raw_span

    cases = [
        (generators(1, 4), Window(1, 4, 4), 2),
        (seq("0:2,1:1;2:2;4:2", 2), Window(2, 5, 5), 2),
        (generators(2, 3), Window(2, 3, 3), 3),
    ]
    for A, w, n in cases:
        lib = {tuple(frozenset(x.values) for x in s) for s in initial_segments(A, n, w)}
        ora = set(raw_sequences(raw_span(A), n))
        assert lib == ora


def test_sequences_over_refuses_a_target_below_the_stem():
    A = generators(1, 4)
    w = Window(1, 4, 4)
    stem = seq("0:1;1:1", 1)
    with pytest.raises(FinkError, match="target length 1 below stem length 2"):
        list(sequences_over(span_enumerate(A, w), stem, 1))
    with pytest.raises(FinkError):
        list(sequences_over(span_enumerate(A, w), BlockSeq(1, ()), -3))



def test_sequences_over_at_the_stem_length_yields_just_the_stem():
    # inside the span, outside it, and with no candidate left to extend it
    A = generators(1, 4)
    span = span_enumerate(A, Window(1, 4, 4))
    for text in ("", "0:1;1:1", "0:1,2:1", "3:1"):
        stem = seq(text, 1)
        assert list(sequences_over(span, stem, len(stem))) == [stem]

# -- properties on random block sequences, against the raw references -----------------


@st.composite
def elements_near(draw, A: BlockSeq):
    """An element of [A] or a random element of A's window at level k."""
    w = window_of(A)
    span = sorted(raw_span(A), key=sorted)
    if span and draw(st.booleans()):
        return to_elem(draw(st.sampled_from(span)), A.k)
    positions = draw(st.lists(st.integers(0, w.n_max - 1), min_size=1, max_size=4, unique=True))
    vals = [draw(st.integers(1, A.k)) for _ in positions]
    vals[draw(st.integers(0, len(vals) - 1))] = A.k
    return FinkElement(A.k, tuple(sorted(zip(positions, vals))))


@settings(max_examples=150, deadline=None)
@given(block_seqs(max_blocks=5), st.data())
def test_decompose_recompose_round_trip(A, data):
    x = data.draw(elements_near(A))
    d = decompose(x, A)
    assert (d is not None) == (raw(x) in raw_span(A))
    if d is not None:
        assert recompose(d, A) == x


def below(data, A: BlockSeq) -> BlockSeq:
    """A block sequence of one to three elements drawn from the span of A."""
    pool = [s for n in (1, 2, 3) for s in raw_sequences(raw_span(A), n)]
    return to_seq(data.draw(st.sampled_from(pool)), A.k)


@settings(max_examples=100, deadline=None)
@given(block_seqs(max_k=2, max_blocks=4), st.data())
def test_leq_is_transitive(A, data):
    if len(A) == 0:
        return
    B = below(data, A)
    C = below(data, B)
    assert leq(B, A) and leq(C, B)
    assert leq(C, A)
    assert leq(A, C) == all(raw(x) in raw_span(C) for x in A)


@settings(max_examples=150, deadline=None)
@given(block_seqs(max_blocks=3), st.data())
def test_tetris_keeps_peaks(A, data):
    x = data.draw(elements_near(A))
    for j in range(x.k):
        y = tetris(x, j)
        assert y.k == x.k - j and y.peaks() == x.peaks()
        assert y.values == tuple((p, v - j) for p, v in x.values if v > j)
    assert tetris(x, x.k) is None


def test_parse_rule_reads_each_form_of_the_grammar():
    kinds = {"bare": None, "num": int, "file": str}
    assert parse_rule("rule", "bare", kinds) == ("bare", None)
    assert parse_rule("rule", "num:-3", kinds) == ("num", -3)
    assert parse_rule("rule", "file:a:b.txt", kinds) == ("file", "a:b.txt")
    assert parse_rule("rule", "file", kinds) == ("file", "")
    for text, message in (
        ("bare:", "rule 'bare' takes no parameter, got 'bare:'"),
        ("num", "rule 'num' needs an integer parameter, got 'num'"),
        ("num:x", "rule 'num' needs an integer parameter, got 'num:x'"),
        ("wat:1", "unknown rule 'wat:1'"),
    ):
        with pytest.raises(FinkError) as exc:
            parse_rule("rule", text, kinds)
        assert str(exc.value) == message
    with pytest.raises(FinkError) as exc:
        parse_rule("rule", "wat", kinds, unknown="rule kind")
    assert str(exc.value) == "unknown rule kind 'wat'"


def test_a_negative_position_is_named_before_the_order():
    for raw_pairs in (((-3, 1),), ((-3, 1), (2, 1)), ((-1, 1), (-2, 1))):
        with pytest.raises(InvalidElement) as exc:
            FinkElement(1, raw_pairs)
        assert str(exc.value) == f"negative position {raw_pairs[0][0]}"


# Library refusals that no CLI command reaches, each with its exception type
# and exact message.
W14 = Window(1, 4, 4)


@pytest.mark.parametrize("call, error, message", [
    (lambda: FinkElement(0, ((0, 1),)), InvalidElement, "level bound must be >= 1, got 0"),
    (lambda: FinkElement(1, ((2, 1), (1, 1))), InvalidElement,
     "positions not strictly increasing at 1"),
    (lambda: BlockSeq(0, ()), InvalidSequence, "level bound must be >= 1, got 0"),
    (lambda: Decomposition(((1, 0), (1, 0))), FinkError,
     "generator indices must be strictly increasing"),
    (lambda: Decomposition(((0, -1),)), FinkError, "tetris exponents must be nonnegative"),
    (lambda: Decomposition(((0, 1),)), FinkError, "some tetris exponent must be 0"),
    (lambda: decompose(elem("0:1,1:2", 2), generators(1, 3)), FinkError,
     "level mismatch: element k=2, sequence k=1"),
    (lambda: leq(generators(2, 2), generators(1, 2)), FinkError, "level mismatch: 2 vs 1"),
    (lambda: neighborhood(generators(2, 1), generators(1, 2), 2, W14), FinkError,
     "level mismatch: 2 vs 1"),
    (lambda: first_common_condensation((generators(2, 2),), generators(1, 2), 1, W14), FinkError,
     "level mismatch: 2 vs 1"),
    (lambda: galvin_dichotomy(generators(1, 3), generators(2, 1), FamilySpec("empty"), 1, W14),
     FinkError, "level mismatch: stem k=2, sequence k=1"),
    (lambda: neighborhood(generators(1, 2), generators(1, 4), 1, W14), FinkError,
     "target length 1 below stem length 2"),
    (lambda: neighborhood(BlockSeq(1, ()), generators(1, 4), 5, W14), FinkError,
     "length 5 exceeds window len_max=4"),
    (lambda: ColoringSpec.from_table({"1:1": 0}, 2).color(elem("0:1", 1)), FinkError,
     "coloring table has no entry for '0:1'"),
    (lambda: gowers_search(ColoringSpec(2, 2, "size_mod"), generators(1, 4), 2, W14), FinkError,
     "gowers_search needs an arity-1 coloring, got 2"),
], ids=[
    "element-level", "element-order", "sequence-level", "decomposition-indices",
    "decomposition-exponents", "decomposition-zero", "decompose-level", "leq-level",
    "neighborhood-level", "first-common-condensation-level", "galvin-level",
    "neighborhood-stem", "neighborhood-window", "table-entry", "gowers-arity",
])
def test_library_refusals_name_their_cause(call, error, message):
    with pytest.raises(FinkError) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (error, message)
