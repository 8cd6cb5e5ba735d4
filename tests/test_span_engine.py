"""The prefix-sharing span engine and the successor skip of the Gowers searches,
checked against references that list and scan everything."""

import random

from hypothesis import given, settings, strategies as st

from finkit import (
    BlockSeq,
    ColoringSpec,
    FinkElement,
    Window,
    format_element,
    generators,
    gowers_search,
    initial_segments,
    parse_seq,
    ramsey2_search,
    span_enumerate,
    window_elements,
)
from finkit.gowers import _successor_starts
from oracles import ordered_span, raw, raw_sequences, raw_span, to_elem, to_seq


@st.composite
def block_seqs(draw, max_k=3, max_blocks=6):
    """Block sequences of up to max_blocks blocks of 1-3 positions each, with
    gaps inside and between blocks and random values below the peak."""
    k = draw(st.integers(1, max_k))
    pos = 0
    blocks = []
    for _ in range(draw(st.integers(0, max_blocks))):
        pos += draw(st.integers(0, 2))
        vals = draw(st.lists(st.integers(1, k), min_size=1, max_size=3))
        vals[draw(st.integers(0, len(vals) - 1))] = k
        pairs = []
        for v in vals:
            pairs.append((pos, v))
            pos += 1 + draw(st.integers(0, 1))
        blocks.append(FinkElement(k, tuple(pairs)))
    return BlockSeq(k, tuple(blocks))


def window_of(A: BlockSeq, len_max: int = 8) -> Window:
    return Window(A.k, A.max_supp + 1 if len(A) else 1, len_max)


@settings(max_examples=150, deadline=None)
@given(block_seqs())
def test_span_equals_ordered_reference(A):
    got = span_enumerate(A, window_of(A))
    assert [x.values for x in got] == ordered_span(A)
    assert len(got) == (A.k + 1) ** len(A) - A.k ** len(A)
    assert {raw(x) for x in got} == raw_span(A)


@settings(max_examples=150, deadline=None)
@given(block_seqs())
def test_successor_start_skips_only_unusable_candidates(A):
    span = span_enumerate(A, window_of(A))
    starts = _successor_starts(span, A)
    # latest start among span[:i] and earliest start among span[i:]
    latest, earliest = [-1], [float("inf")]
    for d in span:
        latest.append(max(latest[-1], d.min_supp))
    for d in reversed(span):
        earliest.append(min(earliest[-1], d.min_supp))
    earliest.reverse()
    for c, start in zip(span, starts):
        # nothing before the start could follow c; everything from it on can
        assert latest[start] <= c.max_supp < earliest[start]


# -- the searches against a flat DFS that scans the whole span at every level ----


def flat_search(A, m, w, colors_of, leaf_color):
    """First length-m B in span order whose colored objects carry one color,
    pruning at the first two-colored prefix, and the number of candidates
    tried: every span element past the prefix, at every level."""
    span = span_enumerate(A, w)
    nodes = 0

    def grow(blocks):
        nonlocal nodes
        if len(blocks) == m:
            return blocks
        floor = blocks[-1].max_supp if blocks else -1
        for c in span:
            if c.min_supp <= floor:
                continue
            nodes += 1
            if len(colors_of(BlockSeq(A.k, tuple(blocks + [c])))) > 1:
                continue
            hit = grow(blocks + [c])
            if hit is not None:
                return hit
        return None

    hit = grow([])
    if hit is None:
        return False, None, None, nodes
    B = BlockSeq(A.k, tuple(hit))
    return True, B, leaf_color(B), nodes


def flat_gowers(f, A, m, w):
    def colors_of(B):
        return {f.color(to_elem(s, A.k)) for s in raw_span(B)}

    return flat_search(A, m, w, colors_of, lambda B: colors_of(B).pop())


def flat_ramsey2(f, A, m, w):
    def colors_of(B):
        return {f.color(to_seq(p, A.k)) for p in raw_sequences(raw_span(B), f.arity)}

    return flat_search(A, m, w, colors_of, lambda B: f.color(B.prefix(f.arity)))


def outcome(rep):
    return rep.found, rep.witness, rep.color, rep.nodes_explored


@settings(max_examples=60, deadline=None)
@given(
    block_seqs(max_blocks=5),
    st.sampled_from(["size_mod", "value_at", "min_mod", "max_mod"]),
    st.integers(2, 3),
    st.integers(1, 3),
    st.randoms(use_true_random=False),
)
def test_gowers_matches_flat_dfs(A, kind, r, m, rng):
    if len(A) == 0:
        return
    w = window_of(A)
    f = ColoringSpec(1, r, kind, param=rng.randrange(w.n_max))
    assert outcome(gowers_search(f, A, m, w)) == flat_gowers(f, A, m, w)


@settings(max_examples=40, deadline=None)
@given(
    block_seqs(max_blocks=4),
    st.sampled_from(["size_mod", "value_at", "max_mod"]),
    st.integers(1, 2),
    st.integers(0, 1),
    st.randoms(use_true_random=False),
)
def test_ramsey2_matches_flat_dfs(A, kind, n, extra, rng):
    m = n + extra
    if len(A) < m:
        return
    w = window_of(A)
    f = ColoringSpec(n, 2, kind, param=rng.randrange(w.n_max))
    assert outcome(ramsey2_search(f, A, m, w)) == flat_ramsey2(f, A, m, w)


TABLE_AMBIENTS = [
    ("0:1;1:1,2:1;3:1;4:1,5:1", 1),
    ("0:2,1:1;2:1,3:2;4:2", 2),
    ("0:3;1:2,2:3;3:1,4:3", 3),
]


def test_table_colorings_match_flat_dfs():
    rng = random.Random(3)
    for text, k in TABLE_AMBIENTS:
        A = parse_seq(text, k)
        w = window_of(A, len_max=3)
        keys = [format_element(x) for x in window_elements(w)]
        for _ in range(4):
            f = ColoringSpec.from_table({key: rng.randrange(2) for key in keys}, 2)
            for m in (2, 3):
                assert outcome(gowers_search(f, A, m, w)) == flat_gowers(f, A, m, w)


def test_table_sequence_colorings_match_flat_dfs():
    rng = random.Random(4)
    for text, k in TABLE_AMBIENTS[:2]:
        A = parse_seq(text, k)
        w = window_of(A, len_max=3)
        pairs = initial_segments(generators(k, w.n_max), 2, w)
        for _ in range(3):
            table = {str(p): rng.randrange(2) for p in pairs}
            f = ColoringSpec.from_table(table, 2, arity=2)
            assert outcome(ramsey2_search(f, A, 3, w)) == flat_ramsey2(f, A, 3, w)
