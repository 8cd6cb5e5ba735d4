import hashlib
import itertools
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from finkit import (
    BlockSeq,
    BudgetExceeded,
    ColoringSpec,
    FinkElement,
    FinkError,
    Window,
    format_element,
    generators,
    gowers_search,
    parse_coloring,
    parse_seq,
    ramsey2_search,
    sequences_over,
    span_enumerate,
    verify_finite_gowers,
    window_elements,
)
import finkit.gowers
from oracles import flat_verify_finite_gowers, raw_span, raw_sequences, to_elem, to_seq
from test_span_engine import block_seqs, record_walk, window_of


W4 = Window(1, 4, 4)
G4 = generators(1, 4)


def flat_first_hit(A, m, w, colors_of):
    """First length-m B over the span of A, in span order, whose colored
    objects carry one color, found by scanning the fully built list."""
    flat = list(sequences_over(span_enumerate(A, w), BlockSeq(A.k, ()), m))
    for B in flat:
        colors = colors_of(B)
        if len(colors) == 1:
            return B, colors.pop()
    return None, None


@settings(max_examples=150, deadline=None)
@given(block_seqs(max_blocks=4), st.integers(2, 5), st.integers(0, 14))
def test_builtin_colors_equal_their_support_definitions(A, r, p):
    # elements: the span of A; sequences: every nonempty run of A's blocks
    objs = span_enumerate(A, window_of(A)) + [
        BlockSeq(A.k, A.elems[i:j])
        for i in range(len(A))
        for j in range(i + 1, len(A) + 1)
    ]
    for obj in objs:
        supp = obj.support()
        elems = [obj] if isinstance(obj, FinkElement) else obj.elems
        pairs = [pair for x in elems for pair in x.values]
        expected = {
            f"const:{r - 1}": r - 1,
            "min_mod": supp[0] % r,
            "max_mod": supp[-1] % r,
            "size_mod": len(supp) % r,
            f"value_at:{p}": dict(pairs).get(p, 0) % r,
        }
        for text, color in expected.items():
            assert parse_coloring(text, r).color(obj) == color, (text, obj)


def test_constant_coloring_returns_truncation():
    f = ColoringSpec.constant(0, 2)
    for m in (1, 2, 3):
        rep = gowers_search(f, G4, m, W4)
        assert rep.found
        assert rep.witness == G4.prefix(m)
        assert rep.color == 0


def test_size_parity_witness():
    rep = gowers_search(ColoringSpec(1, 2, "size_mod"), G4, 2, W4)
    assert rep.found
    assert str(rep.witness) == "0:1,1:1;2:1,3:1"
    assert rep.color == 0


def test_min_parity_witness():
    rep = gowers_search(ColoringSpec(1, 2, "min_mod"), G4, 2, W4)
    assert rep.found
    assert str(rep.witness) == "0:1;2:1"
    assert rep.color == 0


def test_witness_soundness_independent():
    # re-verify monochromaticity through the raw-map oracle, not the
    # library's span path
    specs = [
        ColoringSpec(1, 2, "size_mod"),
        ColoringSpec(1, 2, "min_mod"),
        ColoringSpec(1, 3, "max_mod"),
        ColoringSpec(1, 2, "value_at", param=2),
    ]
    for f in specs:
        rep = gowers_search(f, G4, 2, W4)
        if not rep.found:
            continue
        colors = set()
        for s in raw_span(rep.witness):
            colors.add(f.color(to_seq((s,), 1).elems[0]))
        assert colors == {rep.color}


def test_hereditary_monochromaticity():
    from finkit import initial_segments, span_enumerate

    f = ColoringSpec(1, 2, "size_mod")
    rep = gowers_search(f, G4, 2, W4)
    B = rep.witness
    for L in (1, 2):
        for C in initial_segments(B, L, W4):
            assert {f.color(x) for x in span_enumerate(C, W4)} == {rep.color}


def test_search_miss_is_exhaustion():
    rep = gowers_search(ColoringSpec(1, 2, "min_mod"), generators(1, 2), 2, Window(1, 2, 2))
    assert not rep.found and rep.witness is None and rep.color is None
    assert rep.nodes_explored > 0


def test_thread_counts_agree():
    # the pruned lazy search returns the first hit of a flat scan
    for f in (ColoringSpec(1, 2, "size_mod"), ColoringSpec(1, 2, "min_mod")):
        rep = gowers_search(f, G4, 2, W4)
        witness, color = flat_first_hit(
            G4, 2, W4, lambda B: {f.color(to_elem(s, 1)) for s in raw_span(B)}
        )
        assert (rep.found, rep.witness, rep.color) == (witness is not None, witness, color)


def test_table_coloring_must_be_total():
    f = ColoringSpec.from_table({"0:1": 0}, 2)
    with pytest.raises(FinkError):
        gowers_search(f, G4, 2, W4)


def test_unknown_coloring_kind_is_refused_when_built():
    with pytest.raises(FinkError, match="^unknown coloring kind 'bogus'$"):
        ColoringSpec(1, 2, "bogus")


def test_a_table_or_function_coloring_needs_its_rule_when_built():
    # either used to raise TypeError only inside gowers_search
    with pytest.raises(FinkError, match="^coloring kind 'table' needs a table$"):
        ColoringSpec(1, 2, "table")
    with pytest.raises(FinkError, match="^coloring kind 'func' needs a function$"):
        ColoringSpec(1, 2, "func")


@pytest.mark.parametrize("kind", ["const", "value_at"])
def test_a_parameterised_coloring_kind_needs_its_parameter_when_built(kind):
    # a bare kind used to act as kind:0, where the CLI refuses it
    with pytest.raises(FinkError, match=f"^coloring kind '{kind}' needs an integer parameter$"):
        ColoringSpec(1, 2, kind)


def test_table_colors_are_checked_when_the_table_is_built():
    # every entry, also one that no window element or sequence reads
    for table, arity in (({"0:1": 0, "9:1": 2}, 1), ({"0:1": -1}, 1), ({"0:1;1:1": 2}, 2)):
        with pytest.raises(FinkError, match=r"color -?\d for '[0-9:;]+' outside 0\.\.1"):
            ColoringSpec.from_table(table, 2, arity)
    assert ColoringSpec.from_table({"0:1": 0, "9:1": 2}, 3).param["9:1"] == 2


def test_table_totality_stops_at_the_first_missing_sequence(monkeypatch):
    # the window holds 2^16 - 1 elements; listing every length-3 sequence
    # over them before the first lookup took seconds and hundreds of MiB
    built = []
    check = BlockSeq.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(BlockSeq, "__post_init__", counted)
    f = ColoringSpec.from_table({"0:1;1:1;2:1": 0}, 2, arity=3)
    with pytest.raises(FinkError, match=r"^coloring not total on window: missing '0:1;1:1;2:1,3:1'$"):
        f.check_total(Window(1, 16, 16))
    assert len(built) < 10
    with pytest.raises(FinkError, match=r"^length 3 exceeds window len_max=2$"):
        f.check_total(Window(1, 16, 2))


def test_table_totality_refuses_a_window_span_over_the_bound_before_building_it(monkeypatch):
    built = []
    monkeypatch.setattr(FinkElement, "__post_init__", built.append)
    f = ColoringSpec.from_table({"0:1;1:1": 0}, 2, arity=2)
    start = time.perf_counter()
    with pytest.raises(FinkError, match=r"^the span of 1000000 blocks at k=1 has more than 1048576 elements$"):
        f.check_total(Window(1, 10**6, 10**6))
    assert time.perf_counter() - start < 1.0
    assert built == []


def test_an_element_table_refuses_a_window_past_the_bound_before_building_an_element(monkeypatch, tmp_path):
    # the window's elements were listed one by one up to the first missing
    # key: 1.4 s for a table of the window's first 20 at nmax = 10^6, 5.0 s
    # for its first 100, which lie on its last 7 positions
    last = [x.values for x in itertools.islice(window_elements(Window(1, 7, 1)), 100)]
    path = tmp_path / "first.tsv"
    path.write_text("".join(",".join(f"{p + 10**6 - 7}:{v}" for p, v in x) + "\t0\n" for x in last))
    f = parse_coloring(f"table:{path}", 2)
    # an admitted window is still walked in value-vector order up to its first missing key
    with pytest.raises(FinkError, match=r"^coloring not total on window: missing '7:1'$"):
        f.check_total(Window(1, 8, 1))
    built = []
    monkeypatch.setattr(FinkElement, "__post_init__", built.append)
    start = time.perf_counter()
    message = r"^the span of 1000000 blocks at k=1 has more than 1048576 elements$"
    with pytest.raises(FinkError, match=message):
        f.check_total(Window(1, 10**6, 1))
    with pytest.raises(FinkError, match=message):
        next(window_elements(Window(1, 10**6, 1)))
    assert time.perf_counter() - start < 1.0
    assert built == []


def test_parse_coloring_forms(tmp_path):
    assert parse_coloring("const:1", 2).color(parse_seq("0:1", 1).elems[0]) == 1
    assert parse_coloring("value_at:3", 2).kind == "value_at"
    path = tmp_path / "table.tsv"
    path.write_text("0:1\t1\n# comment\n1:1\t0\n")
    f = parse_coloring(f"table:{path}", 2)
    assert f.param == {"0:1": 1, "1:1": 0}
    with pytest.raises(FinkError):
        parse_coloring("wat", 2)



def test_value_at_refuses_a_negative_position():
    for make in (
        lambda: ColoringSpec(1, 2, "value_at", param=-1),
        lambda: parse_coloring("value_at:-5", 2),
        lambda: parse_coloring("value_at:-1", 3, arity=2),
    ):
        with pytest.raises(FinkError, match="value_at position -[15] is negative"):
            make()
    assert parse_coloring("value_at:0", 2).color(parse_seq("0:1", 1).elems[0]) == 1

def test_verify_tiny_windows():
    assert verify_finite_gowers(1, 1, 2, 1).holds
    rep = verify_finite_gowers(1, 2, 2, 1)
    assert not rep.holds
    assert rep.failing_coloring == {"0:1": 0}


def test_verify_budget_refusal():
    with pytest.raises(BudgetExceeded):
        verify_finite_gowers(1, 2, 2, 5, budget=2**20)


def test_verify_refusal_names_the_count_without_building_it():
    with pytest.raises(BudgetExceeded, match=r"^3\^15 colorings exceed budget 1000$"):
        verify_finite_gowers(1, 2, 3, 4, budget=1000)
    # an exponent too long to print is shown as the window-size formula
    for k, N in ((2, 10**9), (10**6, 64)):
        with pytest.raises(BudgetExceeded, match=rf"^2\^\({k + 1}\^{N} - {k}\^{N}\) colorings"):
            verify_finite_gowers(k, 2, 2, N)
    with pytest.raises(FinkError, match="at least 2 colors"):
        verify_finite_gowers(1, 2, 0, 3)


def verify_outcome(rep):
    # the failing table as a list, so that its key order is compared too
    table = rep.failing_coloring
    return rep.holds, rep.colorings_checked, None if table is None else list(table.items())


def test_verify_equals_the_flat_scan():
    # every window whose flat scan visits at most 2^12 colorings, every m up
    # to one past the longest B the window holds
    compared = 0
    for k in (1, 2, 3):
        for N in (1, 2, 3):
            size = (k + 1) ** N - k**N
            for r in (2, 3, 4):
                if r**size > 2**12:
                    continue
                for m in range(1, N + 2):
                    got = verify_finite_gowers(k, m, r, N)
                    want = flat_verify_finite_gowers(k, m, r, N)
                    assert verify_outcome(got) == verify_outcome(want), (k, m, r, N)
                    compared += 1
    assert compared == 50


def test_verify_edge_cases():
    with pytest.raises(FinkError, match=r"^target length 0 outside 1\.\.1$"):
        verify_finite_gowers(1, 0, 2, 3)
    # the budget is still checked first
    with pytest.raises(BudgetExceeded):
        verify_finite_gowers(1, 0, 2, 5, budget=2**20)
    # no B of length m > N fits, so the all-zero coloring already fails
    table = [("1:1", 0), ("0:1", 0), ("0:1,1:1", 0)]
    assert verify_outcome(verify_finite_gowers(1, 3, 2, 2)) == (False, 1, table)


def test_verify_refuses_a_window_span_over_the_bound_before_building_it(monkeypatch):
    # the budget admits 2^(2^21 - 1) colorings; the window used to be listed,
    # 2^21 - 1 validated elements, before the span bound could refuse it
    built = []
    monkeypatch.setattr(FinkElement, "__post_init__", built.append)
    start = time.perf_counter()
    with pytest.raises(FinkError, match=r"^the span of 21 blocks at k=1 has more than 1048576 elements$"):
        verify_finite_gowers(1, 2, 2, 21, budget=1 << (1 << 22))
    assert time.perf_counter() - start < 1.0
    assert built == []


def test_verify_decides_a_window_the_flat_scan_cannot_reach():
    t0 = time.monotonic()
    rep = verify_finite_gowers(2, 1, 2, 3)
    assert time.monotonic() - t0 < 2.0
    assert (rep.holds, rep.colorings_checked, rep.failing_coloring) == (True, 524288, None)


def test_searches_build_one_span_and_stop_at_the_witness(monkeypatch):
    # each B's span is grown inside A's, and no pick past the witness is tried
    built, tried = record_walk(monkeypatch, finkit.gowers)
    A, w = generators(1, 8), Window(1, 8, 8)
    for search, f, m in (
        (gowers_search, ColoringSpec(1, 2, "size_mod"), 2),
        (ramsey2_search, ColoringSpec(2, 2, "size_mod"), 3),
    ):
        del built[:], tried[:]
        rep = search(f, A, m, w)
        assert rep.found and built == [A] and len(tried) == rep.nodes_explored > m
        assert tried[-1] is rep.witness.elems[-1]
    del built[:], tried[:]
    verify_finite_gowers(1, 2, 2, 4)
    assert built == [generators(1, 4)] and tried


def test_searches_color_the_span_elements_themselves(monkeypatch):
    # the DFS looks span elements up, so every colored element is one of the
    # objects span_enumerate built, never a copy built again
    built = []

    def recording_span_enumerate(A, w):
        built.append(span_enumerate(A, w))
        return built[-1]

    monkeypatch.setattr(finkit.gowers, "span_enumerate", recording_span_enumerate)
    colored = []

    def recording(c):
        def color(obj):
            colored.append(obj)
            return c(obj)

        return color

    A = parse_seq("0:2,1:1;2:2;3:1,4:2;5:2", 2)
    w = Window(2, 6, 4)
    size = ColoringSpec(1, 2, "size_mod")
    rep = gowers_search(ColoringSpec.from_function(recording(size.color), 2), A, 3, w)
    assert rep.nodes_explored > 1
    ids = {id(x) for x in built[0]}
    assert colored and all(id(x) in ids for x in colored)

    colored.clear()
    pairs = ColoringSpec(2, 2, "size_mod")
    rep = ramsey2_search(ColoringSpec.from_function(recording(pairs.color), 2, 2), A, 3, w)
    assert rep.nodes_explored > 1
    ids = {id(x) for x in built[1]}
    assert colored and all(id(x) in ids for s in colored for x in s.elems)


@pytest.mark.parametrize(
    "k, n, r, m, nodes, calls",
    [(1, 15, 3, 4, 24586, 32789), (2, 9, 2, 4, 6313, 9526), (1, 8, 3, 3, 1033, 1290)],
)
def test_gowers_nodes_and_color_calls_are_pinned(k, n, r, m, nodes, calls):
    # a pick is pruned on its own color before its span grows: the same steps
    # and the same color calls as coloring every element it adds
    size = ColoringSpec(1, r, "size_mod")
    colored = []

    def color(x):
        colored.append(x)
        return size.color(x)

    rep = gowers_search(ColoringSpec.from_function(color, r), generators(k, n), m, Window(k, n, n))
    assert (rep.nodes_explored, len(colored)) == (nodes, calls)


@pytest.mark.parametrize(
    "k, N, r, m, n, nodes, calls, digest, extends",
    [
        (1, 10, 2, 4, 3, 5606, 8343,
         "e682d9f0d6407f20738f303ba2a142736943deb3b705c5eee87f14460890a09d", 2438),
        (1, 8, 2, 3, 2, 485, 775,
         "d4b5f0029cb62e0031cbaccc6712ffe1bf4789552d210d7cc637569e58be9e9e", None),
        (1, 9, 3, 4, 3, 7680, 7360,
         "63e31171f49b39ce15e3c1f460fb4924980263a3784905851d5b5d132248a7d3", None),
    ],
)
def test_ramsey2_nodes_and_color_calls_are_pinned(monkeypatch, k, N, r, m, n, nodes, calls, digest, extends):
    # the sequences that end at a pick are colored before its span grows, so
    # a pick that clashes there costs no extend: the same steps, and the same
    # sequences colored in the same order, as coloring after every extend
    size = ColoringSpec(n, r, "size_mod")
    colored = []

    def color(s):
        colored.append(str(s))
        return size.color(s)

    extended = []
    extend = finkit.core.SpanState.extend

    def counted(state, block):
        extended.append(block)
        return extend(state, block)

    monkeypatch.setattr(finkit.core.SpanState, "extend", counted)
    rep = ramsey2_search(ColoringSpec.from_function(color, r, n), generators(k, N), m, Window(k, N, N))
    assert (rep.nodes_explored, len(colored)) == (nodes, calls)
    assert hashlib.sha256("\n".join(colored).encode()).hexdigest() == digest
    if extends is not None:
        assert len(extended) == extends


def count_checks(monkeypatch, cls):
    """Count the calls of cls.__post_init__, the validation of its instances."""
    calls = []
    check = cls.__post_init__

    def counted(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    return calls


def test_searches_do_not_check_composed_objects_again(monkeypatch):
    # A is validated at the boundary; its span elements, and the sequences
    # ramsey2 colors, are composed from it and not checked again
    A = generators(1, 12)
    checked = count_checks(monkeypatch, FinkElement)
    rep = gowers_search(ColoringSpec(1, 3, "size_mod"), A, 4, Window(1, 12, 12))
    assert rep.found and len(checked) < 100

    A = generators(1, 8)
    checked = count_checks(monkeypatch, BlockSeq)
    colored = []

    def color(s):
        colored.append(s)
        return ColoringSpec(2, 2, "size_mod").color(s)

    rep = ramsey2_search(ColoringSpec.from_function(color, 2, 2), A, 3, Window(1, 8, 8))
    assert (rep.nodes_explored, len(colored)) == (485, 775) and len(checked) < 10
    assert all(type(s) is BlockSeq and BlockSeq(s.k, s.elems) == s for s in colored)


def test_verify_color_permutation_equivariance():
    # relabeling colors cannot change whether a witness exists
    w = Window(1, 3, 3)
    A = generators(1, 3)
    elems = [format_element(x) for x in window_elements(w)]
    for bits in ([0, 1, 0, 1, 0, 1, 0], [0, 0, 1, 1, 0, 0, 1]):
        table = dict(zip(elems, bits))
        flipped = {k: 1 - c for k, c in table.items()}
        r1 = gowers_search(ColoringSpec.from_table(table, 2), A, 2, w)
        r2 = gowers_search(ColoringSpec.from_table(flipped, 2), A, 2, w)
        assert r1.found == r2.found
        assert r1.witness == r2.witness


# -- length-n sequence colorings ------------------------------------------------


def test_ramsey2_constant():
    f = ColoringSpec.constant(1, 2, arity=2)
    rep = ramsey2_search(f, G4, 3, W4)
    assert rep.found and rep.witness == G4.prefix(3) and rep.color == 1


def test_ramsey2_rejects_arity_above_length():
    with pytest.raises(FinkError):
        ramsey2_search(ColoringSpec.constant(0, 2, arity=2), G4, 1, W4)


def test_ramsey2_first_component_parity():
    w = Window(1, 6, 6)
    A = generators(1, 6)
    f = ColoringSpec.from_function(lambda s: len(s.elems[0].support()) % 2, 2, arity=2)
    rep = ramsey2_search(f, A, 2, w)
    assert rep.found
    # independent re-verification over raw pairs
    span = raw_span(rep.witness)
    colors = {len(p[0]) % 2 for p in raw_sequences(span, 2)}
    assert colors == {rep.color}


def test_ramsey2_soundness_against_bruteforce():
    # re-verify the witness over raw pairs, sharing nothing with the search
    w = Window(1, 4, 4)
    A = generators(1, 4)
    rep = ramsey2_search(ColoringSpec(2, 2, "max_mod"), A, 2, w)
    assert rep.found
    span = raw_span(rep.witness)
    seen = set()
    for pair in raw_sequences(span, 2):
        union_max = max(p for s in pair for p, _ in s)
        seen.add(union_max % 2)
    assert seen == {rep.color}


def test_ramsey2_threads_agree():
    # the pruned lazy search returns the first hit of a flat scan
    w = Window(1, 5, 5)
    A = generators(1, 5)
    f = ColoringSpec(2, 2, "size_mod")
    rep = ramsey2_search(f, A, 2, w)
    witness, color = flat_first_hit(
        A, 2, w, lambda B: {f.color(to_seq(p, 1)) for p in raw_sequences(raw_span(B), 2)}
    )
    assert (rep.found, rep.witness, rep.color) == (witness is not None, witness, color)


@settings(max_examples=200, deadline=None)
@given(
    block_seqs(max_k=2, max_blocks=4),
    st.sampled_from((2, 3)),
    st.booleans(),
    st.sampled_from(("size_mod", "max_mod", "min_mod", "value_at")),
    st.sampled_from((2, 3)),
    st.integers(0, 14),
)
# a head drawn from the latest pick alone, not from every earlier one, gives
# another first hit on these two
@example(generators(1, 3), 2, True, "value_at", 2, 1)
@example(generators(1, 4), 3, True, "value_at", 2, 2)
def test_ramsey2_equals_the_flat_first_hit(A, n, longer, kind, r, p):
    # the pruned walk, with _heads drawing each pick's length-n sequences,
    # returns the first hit of a flat scan over every length-n sequence
    m = n + longer
    assume(m <= len(A))
    w = window_of(A)
    p %= w.n_max  # a position of the window, which value_at may tell apart
    f = parse_coloring(f"value_at:{p}" if kind == "value_at" else kind, r, arity=n)
    rep = ramsey2_search(f, A, m, w)
    witness, color = flat_first_hit(
        A, m, w, lambda B: {f.color(to_seq(s, A.k)) for s in raw_sequences(raw_span(B), n)}
    )
    assert (rep.found, rep.witness, rep.color) == (witness is not None, witness, color)


def test_verify_level_two_singleton_windows():
    # a one-block witness has a one-element span, so every coloring passes
    rep = verify_finite_gowers(2, 1, 2, 1)
    assert rep.holds and rep.colorings_checked == 2


def test_value_at_on_sequences():
    f = ColoringSpec(2, 3, "value_at", param=1)
    s = parse_seq("0:2,1:1;2:2", 2)
    assert f.color(s) == 1
    assert ColoringSpec(2, 3, "value_at", param=5).color(s) == 0
