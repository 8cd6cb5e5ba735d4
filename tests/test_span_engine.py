"""The prefix-sharing span engine and the successor index of the block-ordered
walks, checked against references that list and scan everything."""

import random
import sys
import time
import zlib

import pytest
from hypothesis import example, given, settings, strategies as st

from finkit import (
    BlockSeq,
    ColoringSpec,
    FinkElement,
    FinkError,
    Window,
    format_element,
    generators,
    gowers_search,
    initial_segments,
    neighborhood,
    parse_element,
    parse_seq,
    ramsey2_search,
    sequences_over,
    span_enumerate,
    window_elements,
)
from finkit import core
from finkit.canonical import sos_check
from finkit.core import SpanState, extension_tree, span_texts, successor_starts
from oracles import (
    block_successor_starts,
    ordered_span,
    raw,
    raw_extensions,
    raw_sequences,
    raw_span,
    suffix_min_successor_starts,
    to_elem,
    to_seq,
)


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


# k = 1 spans of up to 10 blocks take the walk's flat path at more sizes
spannable = st.one_of(block_seqs(), block_seqs(max_k=1, max_blocks=10))


@settings(max_examples=150, deadline=None)
@given(spannable)
def test_span_equals_ordered_reference(A):
    # the elements are composed without the checks of __post_init__; the
    # validating constructor accepts each one
    got = span_enumerate(A, window_of(A))
    assert [x.values for x in got] == ordered_span(A)
    assert len(got) == (A.k + 1) ** len(A) - A.k ** len(A)
    assert {raw(x) for x in got} == raw_span(A)
    assert all(type(x) is FinkElement for x in got)
    assert got == [FinkElement(A.k, x.values) for x in got]


@settings(max_examples=150, deadline=None)
@given(spannable)
@example(BlockSeq(2, ()))
def test_span_texts_equal_the_formatted_span(A):
    # composed text is valid by construction; the FinkElement constructor,
    # reached through parse_element, stays the check that it is
    w = window_of(A)
    span = span_enumerate(A, w)
    texts = span_texts(A, w)
    assert texts == [format_element(x) for x in span]
    assert [parse_element(text, A.k) for text in texts] == span


@settings(max_examples=150, deadline=None)
@given(block_seqs(max_blocks=4), st.data())
def test_span_state_grows_inside_the_ambient_span(A, data):
    # B drawn from the span of A condenses A: its span comes out as the
    # ambient's own objects, equal to span_enumerate(B) as a set
    w = window_of(A, len_max=3)
    span = span_enumerate(A, w)
    n = data.draw(st.integers(0, w.len_max))
    pool = list(sequences_over(span, BlockSeq(A.k, ()), n))
    if not pool:
        return
    B = data.draw(st.sampled_from(pool))
    state, grown = SpanState.inside(span), []
    for x in B:
        state, fresh = state.extend(x)
        grown.extend(fresh)
    ids = {id(x) for x in span}
    assert all(id(x) in ids for x in grown)
    assert sorted(x.values for x in grown) == sorted(x.values for x in span_enumerate(B, w))


def test_span_enumerate_keeps_no_reference_to_its_result():
    # a self-calling closure held the list in a reference cycle, so every span
    # outlived its caller until the next full collection
    span = span_enumerate(generators(1, 6), Window(1, 6, 6))
    assert sys.getrefcount(span) == 2  # this name and the argument


@pytest.mark.parametrize("k, n", [(1, 21), (2, 13)])
@pytest.mark.parametrize("build", [span_enumerate, span_texts], ids=["elements", "texts"])
def test_a_span_over_the_bound_is_refused_before_any_of_it_is_built(monkeypatch, k, n, build):
    # (k+1)^n - k^n elements: 2^21 - 1 and 3^13 - 2^13, both past 2^20
    A, w = generators(k, n), Window(k, n, n)
    built = []
    monkeypatch.setattr(FinkElement, "__post_init__", built.append)
    monkeypatch.setattr(core, "_composed_element", lambda k, values: built.append(values))
    monkeypatch.setattr(core, "_tetris_images", built.append)
    message = f"^the span of {n} blocks at k={k} has more than 1048576 elements$"
    with pytest.raises(FinkError, match=message):
        build(A, w)
    assert built == []


@pytest.mark.parametrize("build", [span_enumerate, span_texts], ids=["elements", "texts"])
def test_a_span_within_the_bound_is_admitted(monkeypatch, build):
    # 3^12 - 2^12 = 527345 elements: admitted, and handed to the walk, which
    # here lists nothing so that the test builds no large span
    walked = []
    monkeypatch.setattr(core, "_span_walk", lambda images, heads: walked.append(len(images)) or [])
    assert build(generators(2, 12), Window(2, 12, 12)) == []
    assert walked == [12]


def test_a_window_span_over_the_bound_is_refused_without_its_size():
    # 3^(10^7) - 2^(10^7) took 3.4 s to compute; a span of more than 21
    # blocks has at least 2^22 - 1 elements, so no power is needed
    start = time.perf_counter()
    with pytest.raises(FinkError, match=r"^the span of 10000000 blocks at k=2 has more than 1048576 elements$"):
        core.window_generators(Window(2, 10**7, 1))
    assert time.perf_counter() - start < 1.0
    assert core.window_generators(Window(2, 12, 1)) == generators(2, 12)


def test_a_sequence_of_another_level_is_refused_before_its_span():
    # span_enumerate used to list 19 level-2 elements for a level-1 window,
    # and gowers_search to pass a table's totality check on the window, then
    # fail mid-search on a level-2 element the table has no entry for
    w = Window(1, 3, 3)
    message = "^sequence level 2 differs from window level 1$"
    for build in (span_enumerate, span_texts):
        with pytest.raises(FinkError, match=message):
            build(generators(2, 3), w)
    f = ColoringSpec.from_table({str(x): 0 for x in window_elements(w)}, 2)
    f.check_total(w)
    with pytest.raises(FinkError, match=message):
        gowers_search(f, generators(2, 3), 2, w)


def test_span_state_refuses_an_element_outside_the_ambient_span():
    A = parse_seq("0:2,1:1;2:2", 2)
    state = SpanState.inside(span_enumerate(A, window_of(A)))
    with pytest.raises(FinkError, match="outside the ambient span"):
        state.extend(FinkElement(2, ((0, 2),)))


def test_span_state_keeps_earlier_sums_without_copying():
    # one chunk of sums per block: extending shares every earlier chunk
    A = parse_seq("0:2,1:1;2:2;3:1,4:2", 2)
    span = span_enumerate(A, window_of(A))
    state, grown = SpanState.inside(span), []
    for x in A:
        nxt, fresh = state.extend(x)
        assert len(nxt.sums) == len(state.sums) + 1
        assert all(new is old for new, old in zip(nxt.sums, state.sums))
        state = nxt
        grown.extend(fresh)
    assert sum(map(len, state.sums)) == (A.k + 1) ** len(A)  # the empty sum and every other
    assert list(state.span()) == grown and sorted(x.values for x in grown) == sorted(
        x.values for x in span
    )


def record_walk(monkeypatch, module):
    """Record, in a searching module, the inputs of every span it builds and
    every pick its condensation walk tries, in order.  The condensation walk
    is the extension-tree walk whose root is a SpanState, or a tuple that
    starts with one; the walks of each B's own tree, whose root is the tuple
    of the stem's elements, are not recorded."""
    built, tried = [], []
    walk, span_of = core.extension_tree, module.span_enumerate

    def recorded_walk(candidates, stem, max_len, step, root):
        head = root[:1] if isinstance(root, tuple) else (root,)
        if not any(isinstance(state, SpanState) for state in head):
            return walk(candidates, stem, max_len, step, root)

        def recorded_step(state, pick):
            tried.append(pick)
            return step(state, pick)

        return walk(candidates, stem, max_len, recorded_step, root)

    def recorded_span(B, w):
        built.append(B)
        return span_of(B, w)

    monkeypatch.setattr(core, "extension_tree", recorded_walk)
    monkeypatch.setattr(module, "span_enumerate", recorded_span)
    return built, tried


@settings(max_examples=200, deadline=None)
@given(block_seqs(max_blocks=4), st.data())
def test_extension_tree_equals_a_flat_pruned_scan(A, data):
    # a pseudo-random step that prunes some children: the walk tries exactly
    # the children a scan of the whole span at every level tries, in that
    # order, and yields the kept maximal nodes, dead ends included
    w = window_of(A)
    span = span_enumerate(A, w)
    a = data.draw(stems(A, w))
    max_len = data.draw(st.integers(0, 6))
    modulus = data.draw(st.integers(2, 4))
    salt = data.draw(st.binary(max_size=4))

    def passes(node):
        return zlib.crc32(repr([x.values for x in node]).encode() + salt) % modulus != 0

    tried = []

    def flat(node):
        children = [node + (c,) for c in span if c.min_supp > (node[-1].max_supp if node else -1)]
        if len(node) >= max_len or not children:
            yield node
            return
        for child in children:
            tried.append(child)
            if passes(child):
                yield from flat(child)

    expected = [(node, node) for node in flat(a.elems)]
    walked = []

    def step(node, pick):
        walked.append(node + (pick,))
        return node + (pick,) if passes(node + (pick,)) else None

    assert list(extension_tree(span, a, max_len, step, a.elems)) == expected
    assert walked == tried


@settings(max_examples=150, deadline=None)
@given(block_seqs(max_k=2, max_blocks=4), st.data())
def test_condensations_equal_the_flat_scan(A, data):
    # over a random span-ordered sublist of picks, with a step that vetoes
    # every pick of s or more positions (none without s): the length-m B's
    # of each length in turn, each with its own span and its depth as state
    w = window_of(A)
    span = span_enumerate(A, w)
    picks = [x for x in span if data.draw(st.booleans())]
    lengths = data.draw(st.lists(st.integers(0, 4), max_size=3))
    s = data.draw(st.none() | st.integers(1, 4))

    def step(node, pick):
        if len(pick.values) >= s:
            return None
        return node[0].extend(pick)[0], node[1] + 1

    walk = core.condensations(span, A.k, lengths, None if s is None else step, 0, picks)
    got = list(walk)
    kept = [
        B.elems
        for m in lengths
        for B in sequences_over(picks, BlockSeq(A.k, ()), m)
        if s is None or all(len(x.values) < s for x in B)
    ]
    assert [B for B, _, _ in got] == kept
    for B, grown, depth in got:
        assert depth == (0 if s is None else len(B))
        spanned = [raw(x) for x in grown.span()]
        assert len(spanned) == len(set(spanned)) and set(spanned) == raw_span(BlockSeq(A.k, B))


@settings(max_examples=150, deadline=None)
@given(block_seqs())
def test_successor_start_skips_only_unusable_candidates(A):
    span = span_enumerate(A, window_of(A))
    starts = successor_starts(span)
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


@settings(max_examples=200, deadline=None)
@given(block_seqs())
def test_successor_starts_equal_the_block_reference(A):
    # computed from the candidates alone, on spans and on staircase sublists
    span = span_enumerate(A, window_of(A))
    assert successor_starts(span) == block_successor_starts(span, A)
    sos = [x for x in span if sos_check(x).ok]
    assert successor_starts(sos) == block_successor_starts(sos, A)


@settings(max_examples=200, deadline=None)
@given(block_seqs(), st.randoms(use_true_random=False))
def test_successor_starts_equal_the_suffix_minimum_reference(A, rng):
    # on the span, and on sublists of it in span order that keep any subset
    span = span_enumerate(A, window_of(A))
    assert successor_starts(span) == suffix_min_successor_starts(span)
    for _ in range(4):
        keep = rng.random()
        sub = [x for x in span if rng.random() < keep]
        assert successor_starts(sub) == suffix_min_successor_starts(sub)


@st.composite
def stems(draw, A: BlockSeq, w: Window):
    """A block sequence of at most two elements, either drawn from the span
    of A or a single unit peak anywhere in the window, which need not lie in
    the span and may end inside one of A's blocks."""
    if draw(st.booleans()):
        return BlockSeq(A.k, (FinkElement(A.k, ((draw(st.integers(0, w.n_max - 1)), A.k),)),))
    length = draw(st.integers(0, 2))
    pool = list(raw_sequences(raw_span(A), length))
    return to_seq(draw(st.sampled_from(pool)), A.k) if pool else BlockSeq(A.k, ())


def raw_seq(s: BlockSeq) -> tuple:
    return tuple(raw(x) for x in s)


@settings(max_examples=150, deadline=None)
@given(block_seqs(max_blocks=4), st.data())
def test_walks_equal_the_raw_references(A, data):
    w = window_of(A, len_max=3)
    span = span_enumerate(A, w)
    position = {x.values: i for i, x in enumerate(span)}
    raws = raw_span(A)
    for n in range(w.len_max + 1):
        got = [raw_seq(s) for s in sequences_over(span, BlockSeq(A.k, ()), n)]
        assert sorted(got, key=repr) == sorted(raw_sequences(raws, n), key=repr)
    a = data.draw(stems(A, w))
    extensions = raw_extensions(raws, raw_seq(a), w.len_max)
    for n in range(len(a), w.len_max + 1):
        got = neighborhood(a, A, n, w)
        assert all(s.prefix(len(a)) == a for s in got)
        expected = [raw_seq(a)] if n == len(a) else [e for e in extensions if len(e) == n]
        assert sorted(map(raw_seq, got), key=repr) == sorted(expected, key=repr)
        # lexicographic in span order, so no sequence comes twice
        picks = [tuple(position[x.values] for x in s.elems[len(a) :]) for s in got]
        assert picks == sorted(set(picks))


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
    position = rng.randrange(w.n_max)
    f = ColoringSpec(1, r, kind, param=position if kind == "value_at" else None)
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
    position = rng.randrange(w.n_max)
    f = ColoringSpec(n, 2, kind, param=position if kind == "value_at" else None)
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
