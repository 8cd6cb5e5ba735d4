import itertools
import random

import pytest

from finkit import coideals
from finkit import (
    BlockSeq,
    CoidealPresentation,
    FinkError,
    Window,
    WindowExhausted,
    common_condensation,
    diagonal_build,
    diagonalizes_check,
    first_common_condensation,
    generators,
    initial_segments,
    leq,
    mu,
    parse_seq,
    partition_refine,
)
from oracles import raw_span, to_seq


def seq(text, k):
    return parse_seq(text, k)


# -- peak sets ---------------------------------------------------------------------


def test_mu_examples():
    assert mu(seq("0:2,1:1;3:2,4:2", 2)) == {0, 3, 4}
    assert mu(BlockSeq(2, ())) == set()
    assert mu(seq("0:1;2:1", 1)) == {0, 2}


def test_span_peaks_equal_mu():
    # sums never create new peaks, so the peaks of the whole span are mu's
    cases = [seq("0:2,1:1;3:2", 2), generators(1, 4), seq("0:3;2:3,3:1", 3)]
    for A in cases:
        assert {p for x in raw_span(A) for p, v in x if v == A.k} == mu(A)


def test_mu_monotone_under_condensation():
    w = Window(1, 5, 5)
    B = generators(1, 5)
    for A in initial_segments(B, 2, w):
        assert leq(A, B)
        assert mu(A) <= mu(B)


# -- common condensations -------------------------------------------------------------


def test_common_condensation_self():
    w = Window(1, 6, 6)
    A = generators(1, 6)
    assert common_condensation(A, A, 3, w) == A.prefix(3)


def test_common_condensation_even_singletons():
    w = Window(1, 8, 8)
    evens = BlockSeq(1, tuple(generators(1, 8).elems[i] for i in (0, 2, 4, 6)))
    C = common_condensation(evens, generators(1, 8), 3, w)
    assert str(C) == "0:1;2:1;4:1"


def test_common_condensation_disjoint_absent():
    w = Window(2, 4, 4)
    assert common_condensation(seq("0:2", 2), seq("1:2", 2), 1, w) is None


def _best_chain_len(items):
    # exhaustive longest block chain over raw maps
    items = sorted(items, key=lambda s: max(p for p, _ in s))
    best = 0

    def rec(end, depth, rest):
        nonlocal best
        best = max(best, depth)
        for i, s in enumerate(rest):
            if min(p for p, _ in s) > end:
                rec(max(p for p, _ in s), depth + 1, rest[i + 1 :])

    rec(-1, 0, items)
    return best


def test_common_condensation_matches_bruteforce_maximum():
    # greedy earliest-end picks a maximum chain, so absence is decisive
    rng = random.Random(11)
    w = Window(1, 7, 7)
    B = generators(1, 7)
    for _ in range(15):
        # a random valid block sequence A: merge random runs of generators
        elems, i = [], 0
        while i < 7:
            width = rng.randint(1, 3)
            chunk = frozenset((p, 1) for p in range(i, min(i + width, 7)))
            if rng.random() < 0.7:
                elems.append(chunk)
            i += width + rng.randint(0, 1)
        if not elems:
            continue
        A = to_seq(elems, 1)
        shared = [s for s in raw_span(B) if s in raw_span(A)]
        oracle_best = _best_chain_len(shared)
        for L in range(1, 5):
            got = common_condensation(A, B, L, w)
            assert (got is not None) == (oracle_best >= L)
            if got is not None:
                assert len(got) == L


def test_common_condensation_refuses_a_length_outside_the_window():
    # the greedy chain used to return an L-term witness past len_max
    w = Window(1, 6, 2)
    A = seq("0:1;1:1;2:1;3:1", 1)
    assert common_condensation(A, A, 2, w) == A.prefix(2)
    for L in (0, 3):
        with pytest.raises(FinkError, match=f"target length {L} outside 1..2"):
            common_condensation(A, A, L, w)


# -- coideal presentations -------------------------------------------------------------


def test_trivial_and_mu_coideals():
    w = Window(1, 6, 6)
    assert CoidealPresentation("all", w).contains(generators(1, 6))
    evens_only = CoidealPresentation(
        "mu_over", w, peak_pred=lambda s: all(n % 2 == 0 for n in s)
    )
    assert evens_only.contains(seq("0:1;2:1", 1))
    assert not evens_only.contains(seq("0:1;3:1", 1))


def test_top_closure_upward_closed():
    # membership of A plus A <= B forces membership of B
    w = Window(1, 6, 6)
    B = generators(1, 6)
    base = BlockSeq(1, tuple(B.elems[i] for i in (0, 2, 4)))
    coideal = CoidealPresentation("top_of", w, base=(base,))
    for A in initial_segments(B, 2, w):
        if coideal.contains(A, L=1):
            assert coideal.contains(B, L=1)


def test_top_of_uses_the_first_base_with_a_common_condensation():
    w = Window(1, 6, 6)
    B = generators(1, 6)
    short = seq("5:1", 1)  # one shared element: no common condensation of length 2
    base = (short, seq("0:1;2:1;4:1", 1), seq("1:1;3:1", 1))
    got = first_common_condensation(base, B, 2, w)
    assert got is not None and got == common_condensation(base[1], B, 2, w)
    assert first_common_condensation((short,), B, 2, w) is None
    assert first_common_condensation((), B, 2, w) is None
    assert CoidealPresentation("top_of", w, base=base).contains(B, L=2)
    assert not CoidealPresentation("top_of", w, base=(short,)).contains(B, L=2)


def test_membership_refuses_a_length_outside_the_window():
    # an empty base, and the kinds that never build a condensation, used to
    # answer for any L
    w = Window(1, 4, 2)
    B = generators(1, 4)
    presentations = [
        CoidealPresentation("all", w),
        CoidealPresentation("mu_over", w, peak_pred=lambda s: True),
        CoidealPresentation("top_of", w, base=(B,)),
        CoidealPresentation("top_of", w),
    ]
    for L in (-1, 0, w.len_max + 1):
        for base in ((), (B,)):
            with pytest.raises(FinkError, match=f"target length {L} outside 1..2"):
                first_common_condensation(base, B, L, w)
        for coideal in presentations:
            with pytest.raises(FinkError, match=f"target length {L} outside 1..2"):
                coideal.contains(B, L=L)


def count_spans(monkeypatch):
    """The sequences whose spans coideals builds, in order."""
    built = []
    span_of = coideals.span_enumerate

    def recorded(B, w):
        built.append(B)
        return span_of(B, w)

    monkeypatch.setattr(coideals, "span_enumerate", recorded)
    return built


def test_top_of_builds_the_span_once(monkeypatch):
    w = Window(1, 6, 6)
    B = generators(1, 6)
    base = (seq("5:1", 1), seq("4:1", 1), seq("0:1;2:1;4:1", 1))
    expected = common_condensation(base[2], B, 2, w)
    built = count_spans(monkeypatch)
    assert first_common_condensation(base, B, 2, w) == expected
    assert built == [B]
    built.clear()
    assert first_common_condensation((), B, 2, w) is None and built == []


def test_diagonal_builds_each_chain_entry_once(monkeypatch):
    w = Window(1, 8, 6)
    G = generators(1, 8)
    chain = [G, G, BlockSeq(1, G.elems[2:]), BlockSeq(1, G.elems[2:]), BlockSeq(1, G.elems[5:])]
    built = count_spans(monkeypatch)
    C = diagonal_build(chain, w)
    assert len(built) == len(set(built)) == 3
    assert diagonalizes_check(C, chain, w).ok


def test_unknown_kind():
    # refused when the presentation is built, not on first use
    w = Window(1, 2, 2)
    with pytest.raises(FinkError, match="^unknown coideal kind 'wat'$"):
        CoidealPresentation("wat", w)


def test_a_peak_coideal_needs_its_predicate_when_built():
    # it used to raise TypeError on the first membership test
    with pytest.raises(FinkError, match="^coideal kind 'mu_over' needs a peak predicate$"):
        CoidealPresentation("mu_over", Window(1, 4, 4))


# -- partition refinement --------------------------------------------------------------


def test_partition_refine_examples():
    w = Window(1, 6, 6)
    A = generators(1, 6)
    res = partition_refine(A, [0] * 6, 3, w)
    assert res.side == "left" and res.witness == A.prefix(3)
    res2 = partition_refine(A, [0, 1, 0, 1, 0, 1], 3, w)
    assert res2.side == "left" and str(res2.witness) == "0:1;2:1;4:1"
    res3 = partition_refine(generators(1, 2), [0, 1], 2, Window(1, 2, 2))
    assert res3.side is None and res3.witness is None


def test_partition_refine_pigeonhole_exact():
    # with len(A) >= 2L-1 one side always has L terms
    w = Window(1, 5, 5)
    A = generators(1, 5)
    L = 3
    for bits in itertools.product((0, 1), repeat=5):
        res = partition_refine(A, bits, L, w)
        assert res.side in ("left", "right")
        assert len(res.witness) == L
        side_gens = [x for x, b in zip(A, bits) if (b == 1) == (res.side == "right")]
        assert all(x in side_gens for x in res.witness)


def test_partition_refine_refuses_a_length_outside_the_window():
    w = Window(1, 3, 3)
    for L in (-1, 0, 4):
        with pytest.raises(FinkError, match=f"target length {L} outside 1..3"):
            partition_refine(generators(1, 3), [0, 1, 0], L, w)


def test_partition_refine_mask_length_checked():
    with pytest.raises(FinkError):
        partition_refine(generators(1, 3), [0, 1], 1, Window(1, 3, 3))


# -- diagonalization --------------------------------------------------------------------


def test_diagonal_constant_chain_reproduces_generators():
    w = Window(1, 5, 5)
    G = generators(1, 5)
    C = diagonal_build([G], w)
    assert C == G
    assert diagonalizes_check(C, [G], w).ok


def test_diagonal_shrinking_chain():
    w = Window(1, 6, 6)
    G = generators(1, 6)
    chain = [BlockSeq(1, G.elems[n:]) for n in range(6)]
    C = diagonal_build(chain, w)
    assert diagonalizes_check(C, chain, w).ok
    for n, c in enumerate(C):
        assert c.min_supp >= n


def test_diagonal_check_counterexample():
    w = Window(1, 5, 5)
    G = generators(1, 5)
    chain = [BlockSeq(1, G.elems[n + 2 :]) for n in range(3)]
    res = diagonalizes_check(G, chain, w)
    assert not res.ok
    assert str(res.violator) == "0:1"


def test_diagonal_check_rejects_nondecreasing_chain():
    G = generators(1, 4)
    increasing = [G.prefix(2), G]
    with pytest.raises(FinkError):
        diagonalizes_check(G, increasing, Window(1, 4, 4))


def test_diagonal_build_exhaustion_report():
    w = Window(1, 5, 5)
    chain = [generators(1, 5), BlockSeq(1, ())]
    with pytest.raises(WindowExhausted) as exc:
        diagonal_build(chain, w)
    assert exc.value.step == 1
    assert len(exc.value.partial) == 1


def test_diagonal_clamped_pick_survives_sprawl():
    # a chain whose early spans start far out would trip a naive
    # index-by-step pick; the clamp keeps the checker happy
    w = Window(1, 8, 3)
    G = generators(1, 8)
    chain = [
        BlockSeq(1, G.elems[4:]),  # step 0 must pick past position 4
        BlockSeq(1, G.elems[5:]),
        BlockSeq(1, G.elems[6:]),
        BlockSeq(1, G.elems[6:]),
        BlockSeq(1, G.elems[6:]),
        BlockSeq(1, G.elems[6:]),
        BlockSeq(1, G.elems[7:]),
    ]
    C = diagonal_build(chain, w)
    assert diagonalizes_check(C, chain, w).ok
