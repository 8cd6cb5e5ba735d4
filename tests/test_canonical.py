import itertools

import pytest
from hypothesis import given, settings, strategies as st

from finkit import (
    BlockSeq,
    CanonicalizationResult,
    EquivRelSpec,
    FinkError,
    Window,
    candidate_relations,
    canonical,
    canonicalize_search,
    format_element,
    format_seq,
    generators,
    level_stats,
    parse_element,
    parse_relation,
    parse_seq,
    restriction_equals,
    sequences_over,
    sos_check,
    span_enumerate,
    t_count,
    window_elements,
)
from oracles import pairwise_restriction_equals, pairwise_sos_check, relation_by_definition
from test_span_engine import block_seqs, record_walk, window_of


def elem(text, k):
    return parse_element(text, k)


# -- level statistics ------------------------------------------------------------


def test_level_stats_examples():
    st = level_stats(elem("0:1,1:2,3:1", 2))
    assert (st.min_level(1), st.max_level(1)) == (0, 3)
    assert (st.min_level(2), st.max_level(2)) == (1, 1)
    st2 = level_stats(elem("5:2", 2))
    assert st2.min_level(1) is None and st2.max_level(1) is None
    assert st2.min_level(2) == 5
    st3 = level_stats(elem("2:1,7:1", 1))
    assert (st3.min_level(1), st3.max_level(1)) == (2, 7)


def test_level_stats_zero_sentinel_formatting():
    st = level_stats(elem("5:2", 2))
    assert st.formatted() == "1:-..- 2:5..5"
    assert st.formatted(zero_sentinel=True) == "1:0..0 2:5..5"


# -- staircase systems -------------------------------------------------------------


def test_sos_all_of_k1():
    for x in window_elements(Window(1, 5, 5)):
        assert sos_check(x).ok


def test_sos_clause_a_failure():
    res = sos_check(elem("0:2", 2))
    assert not res.ok and res.violated == "range"


def test_sos_nesting_failure():
    # rises but never falls back to level 1
    res = sos_check(elem("0:1,1:2", 2))
    assert not res.ok and res.violated == "nesting"


def test_sos_least_witness_by_scan():
    # the least staircase at k=2 in a 3-position window is the single
    # rise-and-fall 1,2,1
    found = [x for x in window_elements(Window(2, 3, 3)) if sos_check(x).ok]
    assert found and str(found[0]) == "0:1,1:2,2:1"


def test_sos_richer_witness_k3():
    ok = sos_check(elem("0:1,1:2,2:3,3:2,4:1", 3))
    assert ok.ok
    bad = sos_check(elem("0:1,1:3,2:2,3:1", 3))  # jumps straight to 3
    assert not bad.ok


def test_sos_conventions_agree_on_k1():
    for x in window_elements(Window(1, 4, 4)):
        assert sos_check(x, "first-zero").ok == sos_check(x, "support-boundary").ok


def test_sos_check_agrees_with_the_pairwise_reference():
    # every element of the windows k = 1, 2 (N <= 7), k = 3 (N <= 6) and
    # k = 4, 5 (N <= 5), each window holding the smaller ones: the verdict and
    # the first violated clause
    clauses = set()
    for k, n in ((1, 7), (2, 7), (3, 6), (4, 5), (5, 5)):
        for x in window_elements(Window(k, n, n)):
            for convention in canonical.ZERO_CONVENTIONS:
                got = sos_check(x, convention)
                assert (got.ok, got.violated) == pairwise_sos_check(x, convention), (x, convention)
                clauses.add(got.violated)
    # under nesting no later band can fail, and climb:1 fails only under
    # "first-zero", when the first zero follows min_2
    assert clauses == {None, "range", "nesting", "climb:1"}


def test_sos_unknown_convention():
    with pytest.raises(FinkError):
        sos_check(elem("0:1", 1), "nonsense")


def test_unknown_relation_kind_is_refused_when_built():
    with pytest.raises(FinkError, match="^unknown relation kind 'bogus'$"):
        EquivRelSpec("bogus")
    # a table relation needs its classes when built; an empty table is equality
    names = [
        EquivRelSpec(kind, {"equality": None, "min_level": 2, "table": {}}[kind]).name(2)
        for kind in ("equality", "min_level", "table")
    ]
    assert names == ["=", "min_2", "table"]


def test_a_level_or_table_relation_needs_its_parameter_when_built():
    # the default level 0 made every key None, so min_level acted as FIN^2
    for kind in ("min_level", "max_level", "minmax_level"):
        with pytest.raises(FinkError, match=f"^relation kind '{kind}' needs a level$"):
            EquivRelSpec(kind)
        with pytest.raises(FinkError, match=f"^relation kind '{kind}' needs a level >= 1, got 0$"):
            EquivRelSpec(kind, 0)
    # a table relation with no classes raised AttributeError on its first key
    with pytest.raises(FinkError, match="^relation kind 'table' needs its classes$"):
        EquivRelSpec("table")


def test_a_level_past_the_sequence_is_refused_before_any_span(monkeypatch):
    # level 3 at k = 1 used to classify as FIN^2, as level 0 did
    def no_span(*args):
        raise AssertionError("span built")

    monkeypatch.setattr(canonical, "span_enumerate", no_span)
    R = EquivRelSpec("min_level", 3)
    with pytest.raises(FinkError, match=r"^level 3 outside 1\.\.1$"):
        canonicalize_search(R, generators(1, 4), 2, Window(1, 4, 4))
    for pair in ((R, EquivRelSpec("full")), (EquivRelSpec("full"), R)):
        with pytest.raises(FinkError, match=r"^level 3 outside 1\.\.1$"):
            restriction_equals(*pair, generators(1, 4), Window(1, 4, 4))


# -- equivalence relations ----------------------------------------------------------


def test_relation_examples():
    assert EquivRelSpec("full").holds(elem("0:1", 1), elem("3:1", 1))
    assert not EquivRelSpec("equality").holds(elem("0:1", 1), elem("3:1", 1))
    R = EquivRelSpec("min_level", 1)
    assert R.holds(elem("0:1,3:1", 1), elem("0:1,5:1", 1))


def test_builtins_are_equivalences_on_window():
    w = Window(2, 3, 3)
    elems = list(window_elements(w))
    specs = [spec for _, spec in candidate_relations(2)] + [EquivRelSpec("size_parity")]
    for R in specs:
        for a in elems:
            assert R.holds(a, a)
        for a, b in itertools.combinations(elems, 2):
            assert R.holds(a, b) == R.holds(b, a)
        for a, b, c in itertools.permutations(elems[:8], 3):
            if R.holds(a, b) and R.holds(b, c):
                assert R.holds(a, c)


def builtin_relations(k):
    return [spec for _, spec in candidate_relations(k)] + [EquivRelSpec("size_parity")]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.data())
def test_builtin_keys_match_the_definitions(k, data):
    w = Window(k, 5, 5)
    elements = st.sampled_from(list(window_elements(w)))
    a, b = data.draw(elements), data.draw(elements)
    for R in builtin_relations(k):
        assert R.holds(a, b) == relation_by_definition(R.kind, R.param, a, b)


def test_table_relation_closure_and_fallback():
    w = Window(1, 3, 3)
    R = EquivRelSpec.from_pairs([("0:1", "1:1"), ("1:1", "2:1")], 1, w)
    assert R.holds(elem("0:1", 1), elem("2:1", 1))  # closed transitively
    unmentioned = elem("0:1,1:1", 1)
    assert R.holds(unmentioned, unmentioned)
    assert not R.holds(unmentioned, elem("0:1", 1))
    with pytest.raises(FinkError):
        R.holds(elem("3:1", 1), elem("0:1", 1))  # outside the window


def test_table_relation_rejects_outside_window_on_load():
    with pytest.raises(FinkError):
        EquivRelSpec.from_pairs([("9:1", "0:1")], 1, Window(1, 3, 3))


def test_restriction_equals_examples():
    w = Window(1, 4, 4)
    R = EquivRelSpec("size_parity")
    S = EquivRelSpec("full")
    assert restriction_equals(R, R, generators(1, 3), Window(1, 3, 3))
    assert restriction_equals(R, S, __seq("0:1,1:1;2:1,3:1"), w)
    assert not restriction_equals(R, S, generators(1, 2), Window(1, 2, 2))


def _table_like(S, span, extra, w):
    """A table relation that links each span element to the previous member
    of its S-class, so it agrees with S on the span, plus the extra edges."""
    edges, last = [], {}
    for x in span:
        key = S.key(x)
        if key in last:
            edges.append((last[key], format_element(x)))
        last[key] = format_element(x)
    return EquivRelSpec.from_pairs(edges + extra, w.k, w)


@settings(max_examples=300, deadline=None)
@given(block_seqs(max_blocks=4), st.data())
def test_restriction_equals_matches_pairwise_oracle(B, data):
    # level relations at k >= 2 meet elements that miss their level
    w = window_of(B)
    span = span_enumerate(B, w)
    texts = [format_element(x) for x in span]
    builtins = builtin_relations(B.k)

    def relation():
        choice = data.draw(st.integers(0, len(builtins)))
        if choice < len(builtins):
            return builtins[choice]
        S = data.draw(st.sampled_from(builtins))
        extra = []
        if texts:
            edge = st.tuples(st.sampled_from(texts), st.sampled_from(texts))
            extra = data.draw(st.lists(edge, max_size=2))
        return _table_like(S, span, extra, w)

    R, S = relation(), relation()
    assert restriction_equals(R, S, B, w) == pairwise_restriction_equals(R, S, B)
    assert restriction_equals(R, R, B, w)


def test_restriction_equals_with_an_absent_level():
    # three of the five span elements never take the value 1: min_1 keys
    # them None and puts them in one class
    w = Window(2, 3, 3)
    B = parse_seq("0:2;2:2", 2)
    min1 = EquivRelSpec("min_level", 1)
    minmax1 = EquivRelSpec("minmax_level", 1)
    assert [min1.key(x) for x in span_enumerate(B, w)] == [None, None, 2, 0, None]
    assert restriction_equals(min1, minmax1, B, w)
    assert not restriction_equals(min1, EquivRelSpec("equality"), B, w)
    for R in builtin_relations(2):
        for S in builtin_relations(2):
            assert restriction_equals(R, S, B, w) == pairwise_restriction_equals(R, S, B)


def __seq(text):
    return parse_seq(text, 1)


def test_minmax_family_is_canonical_in_itself():
    # restricting min/max/(min,max) to any span leaves them unchanged, so
    # the classifier returns them on the first candidate sequence
    w = Window(1, 6, 6)
    A = generators(1, 6)
    for text in ("min_level:1", "max_level:1", "minmax_level:1"):
        R = parse_relation(text, 1)
        res = canonicalize_search(R, A, 3, w)
        assert res.relation == R.name(1)
        assert res.witness == A.prefix(3)
        assert restriction_equals(R, res.spec, res.witness, w)


# -- classification ------------------------------------------------------------------


def test_classify_canonical_inputs_fixed():
    w = Window(1, 8, 8)
    A = generators(1, 8)
    for text, name in [
        ("min_level:1", "min"),
        ("max_level:1", "max"),
        ("minmax_level:1", "(min,max)"),
        ("equality", "="),
        ("full", "FIN^2"),
    ]:
        res = canonicalize_search(parse_relation(text, 1), A, 3, w)
        assert res.relation == name
        assert res.witness == A.prefix(3)
        assert res.caveat is None


def test_classify_size_parity_to_full():
    w = Window(1, 8, 8)
    A = generators(1, 8)
    res = canonicalize_search(EquivRelSpec("size_parity"), A, 3, w)
    assert res.relation == "FIN^2"
    assert format_seq(res.witness) == "0:1,1:1;2:1,3:1;4:1,5:1"
    assert restriction_equals(EquivRelSpec("size_parity"), res.spec, res.witness, w)


def test_classify_k2_carries_caveat_and_sos_witness():
    w = Window(2, 6, 6)
    A = generators(2, 6)
    res = canonicalize_search(EquivRelSpec("full"), A, 2, w)
    assert res is not None
    assert res.relation == "FIN^2"
    assert res.caveat is not None and "partial" in res.caveat
    assert len(res.witness) == 2
    for x in res.witness:
        assert sos_check(x).ok


def test_classify_k2_single_block_prefers_first_candidate():
    # a one-block span has a single reflexive pair, every candidate agrees,
    # and the list order breaks the tie
    w = Window(2, 6, 6)
    res = canonicalize_search(EquivRelSpec("full"), generators(2, 6), 1, w)
    assert res.relation == "min_1"
    assert str(res.witness) == "0:1,1:2,2:1"


def test_classify_exhausted_when_no_sos_fits():
    # k=2 staircases need three positions; a two-position window has none
    w = Window(2, 2, 2)
    res = canonicalize_search(EquivRelSpec("full"), generators(2, 2), 1, w)
    assert res is None


def test_classify_threads_agree():
    # the lazy search returns the first hit of a flat scan
    w = Window(1, 6, 6)
    A = generators(1, 6)
    R = EquivRelSpec("size_parity")
    flat = list(sequences_over(span_enumerate(A, w), BlockSeq(1, ()), 2))
    expected = next(
        CanonicalizationResult(name, spec, B, None)
        for B in flat
        for name, spec in candidate_relations(1)
        if restriction_equals(R, spec, B, w)
    )
    assert canonicalize_search(R, A, 2, w) == expected


@settings(max_examples=80, deadline=None)
@given(block_seqs(max_k=2, max_blocks=4), st.integers(1, 3), st.data())
def test_classify_equals_a_flat_scan_with_the_pairwise_oracle(A, m, data):
    w = window_of(A)
    span = span_enumerate(A, w)
    R = data.draw(st.sampled_from(builtin_relations(A.k)))
    if span and data.draw(st.booleans()):
        texts = st.sampled_from([format_element(x) for x in span])
        R = EquivRelSpec.from_pairs(data.draw(st.lists(st.tuples(texts, texts))), A.k, w)
    if A.k >= 2:
        span = [x for x in span if sos_check(x).ok]
    caveat = canonical.PARTIAL_LIST_CAVEAT if A.k >= 2 else None
    expected = next(
        (
            CanonicalizationResult(name, spec, B, caveat)
            for B in list(sequences_over(span, BlockSeq(A.k, ()), m))
            for name, spec in candidate_relations(A.k)
            if pairwise_restriction_equals(R, spec, B)
        ),
        None,
    )
    assert canonicalize_search(R, A, m, w) == expected


@pytest.mark.parametrize(
    "k, n, m, relation",
    [(1, 8, 3, "FIN^2"), (2, 8, 2, "FIN^2")],
    ids=["k1", "k2"],
)
def test_classify_builds_only_the_ambient_span(monkeypatch, k, n, m, relation):
    # every B's span is grown inside A's, and the walk stops at the witness
    built, tried = record_walk(monkeypatch, canonical)
    A = generators(k, n)
    res = canonicalize_search(EquivRelSpec("size_parity"), A, m, Window(k, n, n))
    assert res.relation == relation and len(tried) > m
    assert built == [A]
    assert tried[-1] is res.witness.elems[-1]


def test_classify_refuses_a_table_relation_whose_window_misses_the_ambient():
    # the relation's keys are read all over A's span, so its window must hold A;
    # a flat scan used to return the one-element B 0:1, which fits the window
    A = generators(1, 5)
    R = EquivRelSpec.from_pairs([("0:1", "1:1")], 1, Window(1, 4, 4))
    with pytest.raises(FinkError, match="past the relation's window n_max=4"):
        canonicalize_search(R, A, 1, Window(1, 5, 5))
    R = EquivRelSpec.from_pairs([("0:1", "1:1")], 1, Window(1, 5, 5))
    assert canonicalize_search(R, A, 1, Window(1, 5, 5)).witness == parse_seq("0:1", 1)


# -- the canonical count ---------------------------------------------------------------


def test_t_count_values():
    assert t_count(1) == 5
    assert t_count(2) == 43
    assert t_count(3) == 619


def test_t_count_matches_k1_list():
    assert t_count(1) == len(candidate_relations(1))


def test_t_count_rejects_bad_k():
    with pytest.raises(FinkError):
        t_count(0)
