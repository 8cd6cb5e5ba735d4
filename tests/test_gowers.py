import pytest

from finkit import (
    BlockSeq,
    BudgetExceeded,
    ColoringSpec,
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
from oracles import raw_span, raw_sequences, to_elem, to_seq


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


def test_parse_coloring_forms(tmp_path):
    assert parse_coloring("const:1", 2).color(parse_seq("0:1", 1).elems[0]) == 1
    assert parse_coloring("value_at:3", 2).kind == "value_at"
    path = tmp_path / "table.tsv"
    path.write_text("0:1\t1\n# comment\n1:1\t0\n")
    f = parse_coloring(f"table:{path}", 2)
    assert f.table == {"0:1": 1, "1:1": 0}
    with pytest.raises(FinkError):
        parse_coloring("wat", 2)


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


def test_verify_level_two_singleton_windows():
    # a one-block witness has a one-element span, so every coloring passes
    rep = verify_finite_gowers(2, 1, 2, 1)
    assert rep.holds and rep.colorings_checked == 2


def test_value_at_on_sequences():
    f = ColoringSpec(2, 3, "value_at", param=1)
    s = parse_seq("0:2,1:1;2:2", 2)
    assert f.color(s) == 1
    assert ColoringSpec(2, 3, "value_at", param=5).color(s) == 0
