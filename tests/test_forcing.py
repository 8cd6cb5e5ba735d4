import pytest
from hypothesis import given, settings, strategies as st

from finkit import (
    AcceptsResult,
    BlockSeq,
    DichotomyResult,
    EquivRelSpec,
    FamilySpec,
    FinkError,
    ForcingVerdict,
    IncompatibleStem,
    OpenSetResult,
    RejectsResult,
    Window,
    accepts,
    canonicalize_search,
    decides,
    format_seq,
    galvin_dichotomy,
    generators,
    leq,
    open_set_ramsey,
    parse_family,
    parse_seq,
    rejects,
    sequences_over,
    span_enumerate,
)
from finkit import canonical, forcing
from finkit.core import extension_tree
from oracles import (
    condensations,
    flat_galvin,
    ordered_span,
    raw,
    raw_all_sequences,
    raw_extensions,
    raw_maximal_branches,
    raw_sequences,
    raw_span,
    to_seq,
)
from test_gowers import count_checks
from test_span_engine import block_seqs, raw_seq, record_walk, stems, window_of

W4 = Window(1, 4, 4)
G4 = generators(1, 4)
EMPTY = BlockSeq(1, ())

F_EMPTY = FamilySpec("empty")
F_SING = FamilySpec("all_singletons")
F_EVEN = FamilySpec("min_even_first")
F_GE2 = FamilySpec("support_ge", s=2)


def family_on_raw(F, raws, k=1):
    return F.contains(to_seq(raws, k))


# -- family specs ---------------------------------------------------------------


def test_family_builtins():
    one = parse_seq("0:1", 1)
    pair = parse_seq("0:1;1:1", 1)
    big = parse_seq("0:1,1:1;2:1,3:1", 1)
    assert not F_EMPTY.contains(one)
    assert F_SING.contains(one) and not F_SING.contains(pair)
    assert F_EVEN.contains(pair) and not F_EVEN.contains(parse_seq("1:1", 1))
    assert not F_EVEN.contains(EMPTY)
    assert F_GE2.contains(big) and not F_GE2.contains(pair)
    assert not F_GE2.contains(EMPTY)


@settings(max_examples=150, deadline=None)
@given(block_seqs(), st.integers(0, 4), st.data())
def test_contains_decides_a_sequence_and_its_element_tuple_alike(b, s, data):
    # the explicit family lists some prefixes of b and some other sequences
    other = data.draw(block_seqs(max_k=b.k, max_blocks=3).filter(lambda x: x.k == b.k))
    listed = [b.prefix(t) for t in range(len(b) + 1) if data.draw(st.booleans())]
    families = [FamilySpec(kind) for kind in ("empty", "all_singletons", "min_even_first")]
    families += [FamilySpec("support_ge", s=s), FamilySpec.explicit(listed + [other])]
    for F in families:
        for t in range(len(b) + 1):
            assert F.contains(b.prefix(t)) == F.contains(b.elems[:t])


def test_parse_family_forms(tmp_path):
    assert parse_family("support_ge:2", 1) == F_GE2
    path = tmp_path / "fam.txt"
    path.write_text("0:1;1:1\n# note\n0:1,1:1\n\n")
    F = parse_family(f"explicit:{path}", 1)
    assert F.contains(parse_seq("0:1;1:1", 1))
    assert F.contains(parse_seq("0:1,1:1", 1))
    assert not F.contains(parse_seq("0:1", 1))


def test_unknown_family_kind_is_refused_when_built():
    with pytest.raises(FinkError, match="^unknown family kind 'bogus'$"):
        FamilySpec("bogus")


# -- accepts / rejects / decides ---------------------------------------------------


def test_accepts_examples():
    assert accepts(G4, EMPTY, F_SING, W4).holds
    res = accepts(G4, EMPTY, F_EMPTY, W4)
    assert not res.holds and res.branch is not None
    F_ex = FamilySpec.explicit([parse_seq("0:1,1:1", 1)])
    res2 = accepts(G4, EMPTY, F_ex, W4)
    assert not res2.holds
    assert res2.branch.elems[0] == parse_seq("0:1", 1).elems[0]


def test_accepts_validates_stem():
    stray = parse_seq("0:2", 2)
    b2 = parse_seq("1:2", 2)
    with pytest.raises(IncompatibleStem):
        accepts(BlockSeq(2, b2.elems), stray, F_SING, Window(2, 4, 4))


def test_a_stem_of_another_level_is_refused_up_front():
    # the empty stem too, as galvin_dichotomy does
    for stem in (BlockSeq(2, ()), parse_seq("0:2", 2)):
        for query in (accepts, rejects, decides):
            with pytest.raises(FinkError, match="level mismatch: stem k=2, sequence k=1"):
                query(G4, stem, F_SING, W4)


def test_accepts_counterexample_is_maximal_and_avoiding():
    F_ex = FamilySpec.explicit([parse_seq("0:1,1:1", 1)])
    res = accepts(G4, EMPTY, F_ex, W4)
    branch = res.branch
    # avoiding: no prefix in the family
    for t in range(len(branch) + 1):
        assert not F_ex.contains(branch.prefix(t))
    # maximal: no span element extends it
    span = raw_span(G4)
    assert all(min(p for p, _ in s) <= branch.max_supp for s in span)


def test_rejects_examples():
    assert rejects(G4, EMPTY, F_EMPTY, W4).holds
    res = rejects(G4, EMPTY, F_SING, W4)
    assert not res.holds and res.condensation is not None
    F_ex = FamilySpec.explicit([parse_seq("0:1,1:1", 1)])
    res2 = rejects(G4, EMPTY, F_ex, W4)
    assert not res2.holds
    assert format_seq(res2.condensation) == "0:1,1:1"


def test_rejects_bruteforce_agreement():
    # exhaust condensations with the raw oracle and compare the verdict
    fams = [F_EMPTY, F_SING, F_EVEN, F_GE2, FamilySpec.explicit([parse_seq("0:1,1:1", 1)])]
    span = raw_span(G4)
    for F in fams:
        oracle_accepting = None
        for seq_raw in raw_all_sequences(span, 4):
            if not seq_raw:
                continue
            cond_span = raw_span(to_seq(seq_raw, 1))
            ok = all(
                any(
                    family_on_raw(F, branch[:t])
                    for t in range(1, len(branch) + 1)
                )
                for branch in raw_maximal_branches(cond_span, (), 4)
            )
            if ok:
                oracle_accepting = seq_raw
                break
        got = rejects(G4, EMPTY, F, W4)
        assert got.holds == (oracle_accepting is None)


def test_min_len_outside_one_to_len_max_is_refused():
    for bad in (-3, 0, 5):
        with pytest.raises(FinkError, match=f"length floor {bad} outside 1..4"):
            list(condensations(G4, W4, bad))
        with pytest.raises(FinkError):
            rejects(G4, EMPTY, F_EMPTY, W4, min_len=bad)
        with pytest.raises(FinkError):
            decides(G4, EMPTY, F_SING, W4, min_len=bad)
    assert not rejects(G4, EMPTY, F_SING, W4, min_len=4).holds


def test_decides_statuses():
    assert decides(G4, EMPTY, F_SING, W4).status == "accepts"
    assert decides(G4, EMPTY, F_EMPTY, W4).status == "rejects"
    F_ex = FamilySpec.explicit([parse_seq("0:1,1:1", 1)])
    v = decides(G4, EMPTY, F_ex, W4)
    assert v.status == "undecided"
    assert v.branch is not None and v.condensation is not None
    # the carried witnesses really exhibit both failures
    assert not accepts(G4, EMPTY, F_ex, W4).holds
    assert accepts(v.condensation, EMPTY, F_ex, W4).holds


def test_acceptance_is_not_hereditary_in_a_window():
    # B accepts: each maximal branch through [B] meets F, the branch 0:1 -> 1:1
    # only at length 2.  Its condensation 0:1 has the one branch 0:1, which
    # does not, so rejects must try every length, not stop at a short failure.
    B = parse_seq("0:1;1:1", 1)
    F = FamilySpec.explicit([B, parse_seq("1:1", 1), parse_seq("0:1,1:1", 1)])
    B2 = parse_seq("0:1", 1)
    assert leq(B2, B)
    assert accepts(B, EMPTY, F, W4).holds
    assert accepts(B2, EMPTY, F, W4) == AcceptsResult(False, B2)
    assert rejects(B, EMPTY, F, W4, min_len=2) == RejectsResult(False, B)


def first_accepting_by_flat_scan(B, a, F, w, min_len):
    """The first condensation in the flat list whose span holds the stem and
    that accepts it, or None."""
    for B2 in condensations(B, w, min_len):
        if all(raw(x) in raw_span(B2) for x in a) and accepts(B2, a, F, w).holds:
            return B2
    return None


def check_against_the_flat_scan(A, a, F, w):
    """Check rejects and decides against the flat scan for every min_len;
    returns the statuses."""
    acc = accepts(A, a, F, w)
    statuses = []
    for min_len in range(1, w.len_max + 1):
        B2 = first_accepting_by_flat_scan(A, a, F, w, min_len)
        assert rejects(A, a, F, w, min_len) == RejectsResult(B2 is None, B2)
        if acc.holds:
            expected = ForcingVerdict("accepts")
        else:
            expected = ForcingVerdict("rejects" if B2 is None else "undecided", acc.branch, B2)
        assert decides(A, a, F, w, min_len) == expected
        statuses.append(expected.status)
    return statuses


@settings(max_examples=200, deadline=None)
@given(block_seqs(max_k=2, max_blocks=4), st.data())
def test_rejects_and_decides_equal_the_flat_scan(A, data):
    # every min_len, and stems of up to two elements drawn from [A].  Half the
    # time F holds one extension of the stem by one element, which makes
    # undecided likely with a nonempty stem too.
    if len(A) == 0:
        return
    w = window_of(A, len_max=3)
    length = data.draw(st.integers(0, 2))
    longer = list(raw_sequences(raw_span(A), length + 1))
    if longer and data.draw(st.booleans()):
        s = data.draw(st.sampled_from(longer))
        a, F = to_seq(s[:length], A.k), FamilySpec.explicit([to_seq(s, A.k)])
    else:
        pool = list(raw_sequences(raw_span(A), length))
        a = to_seq(data.draw(st.sampled_from(pool)), A.k) if pool else BlockSeq(A.k, ())
        F = families(data, A)
    check_against_the_flat_scan(A, a, F, w)


def test_rejects_and_decides_equal_the_flat_scan_for_every_one_step_family():
    # stem x, F = {x;y}: the condensation x;y accepts, so unless G4 accepts
    # too, the verdict is undecided up to min_len 2 and rejects past it
    statuses = []
    for s in raw_sequences(raw_span(G4), 2):
        a, F = to_seq(s[:1], 1), FamilySpec.explicit([to_seq(s, 1)])
        statuses += check_against_the_flat_scan(G4, a, F, W4)
    assert set(statuses) == {"accepts", "rejects", "undecided"}


def test_accepts_rejects_exclusive():
    fams = [F_EMPTY, F_SING, F_EVEN, F_GE2]
    for F in fams:
        for B in condensations(G4, W4):
            if len(B) < 1:
                continue
            a = accepts(B, EMPTY, F, W4).holds
            r = rejects(B, EMPTY, F, W4).holds
            assert not (a and r)


def test_heredity_and_extension_for_first_element_families():
    # families decided by the first element translate the infinite lemmas
    # to the window exactly
    w = Window(1, 4, 4)
    for F in (F_SING, F_EVEN, F_GE2, F_EMPTY):
        for B in condensations(G4, w):
            if not accepts(B, EMPTY, F, w).holds:
                continue
            for B2 in condensations(B, w):
                assert accepts(B2, EMPTY, F, w).holds
            from finkit import neighborhood

            for b in neighborhood(EMPTY, B, 1, w):
                assert accepts(B, b, F, w).holds


def test_stem_heredity():
    w = Window(1, 5, 5)
    G5 = generators(1, 5)
    a = parse_seq("0:1", 1)
    assert accepts(G5, a, F_EVEN, w).holds
    for B2 in condensations(G5, w):
        try:
            res = accepts(B2, a, F_EVEN, w)
        except IncompatibleStem:
            continue
        assert res.holds


# -- dichotomy ---------------------------------------------------------------------


def test_galvin_empty_family():
    res = galvin_dichotomy(G4, EMPTY, F_EMPTY, 2, W4)
    assert res.alternative == 1
    assert res.witness == G4.prefix(2)


def test_galvin_min_even_first():
    w = Window(1, 8, 8)
    A = generators(1, 8)
    res = galvin_dichotomy(A, EMPTY, F_EVEN, 3, w)
    assert res.alternative == 2
    assert format_seq(res.witness) == "0:1;2:1;4:1"


def test_galvin_support_ge2():
    w = Window(1, 8, 8)
    A = generators(1, 8)
    res = galvin_dichotomy(A, EMPTY, F_GE2, 2, w)
    assert res.alternative == 2
    assert format_seq(res.witness) == "0:1,1:1;2:1,3:1"


def certificate_alt1(B, F, w, stem=()):
    span = raw_span(B)
    if any(family_on_raw(F, stem[:t]) for t in range(len(stem) + 1)):
        return False
    return not any(
        family_on_raw(F, ext)
        for ext in raw_extensions(span, stem, w.len_max)
    )


def certificate_alt2(B, F, w, stem=()):
    span = raw_span(B)
    return all(
        any(family_on_raw(F, branch[:t]) for t in range(len(branch) + 1))
        for branch in raw_maximal_branches(span, stem, w.len_max)
    )


def test_galvin_certificates_verify_and_exclude():
    w = Window(1, 6, 6)
    A = generators(1, 6)
    fams = [F_EMPTY, F_SING, F_EVEN, F_GE2]
    for F in fams:
        res = galvin_dichotomy(A, EMPTY, F, 2, w)
        assert res.alternative in (1, 2)
        c1 = certificate_alt1(res.witness, F, w)
        c2 = certificate_alt2(res.witness, F, w)
        assert (res.alternative == 1) == c1
        assert (res.alternative == 2) == c2
        assert c1 != c2


def test_galvin_with_stem():
    w = Window(1, 6, 6)
    A = generators(1, 6)
    a = parse_seq("0:1", 1)
    res = galvin_dichotomy(A, a, F_EVEN, 2, w)
    assert res.alternative == 2  # every branch already starts with the stem


# -- open sets ---------------------------------------------------------------------


def test_open_set_examples():
    w = Window(1, 8, 8)
    A = generators(1, 8)
    assert open_set_ramsey(F_EMPTY, A, 2, w).side == "outside"
    assert open_set_ramsey(F_SING, A, 2, w).side == "inside"
    res = open_set_ramsey(F_EVEN, A, 3, w)
    assert res.side == "inside"
    assert format_seq(res.witness) == "0:1;2:1;4:1"
    # no length-3 B over the 8 generators settles support_ge:3 either way
    assert open_set_ramsey(FamilySpec("support_ge", s=3), A, 3, w) == OpenSetResult(None, None)


def test_threads_agree():
    # the lazy searches return the first hit of a flat scan
    w = Window(1, 6, 6)
    A = generators(1, 6)
    for F in (F_EVEN, F_GE2):
        galvin = DichotomyResult(None, None)
        for B in list(sequences_over(span_enumerate(A, w), EMPTY, 2)):
            extensions = raw_extensions(raw_span(B), (), w.len_max)
            if not any(family_on_raw(F, e) for e in extensions):
                galvin = DichotomyResult(1, B)
                break
            if accepts(B, EMPTY, F, w).holds:
                galvin = DichotomyResult(2, B)
                break
        assert galvin_dichotomy(A, EMPTY, F, 2, w) == galvin
        accepting = [B for B in condensations(A, w) if accepts(B, EMPTY, F, w).holds]
        expected = RejectsResult(False, accepting[0]) if accepting else RejectsResult(True, None)
        assert rejects(A, EMPTY, F, w) == expected


def test_galvin_builds_no_block_sequence_inside_its_walk(monkeypatch):
    # B's tree carries element tuples: each child starts after its parent
    # ends, so only the returned witness is built as a BlockSeq
    A = generators(1, 10)
    checked = count_checks(monkeypatch, BlockSeq)
    res = galvin_dichotomy(A, EMPTY, F_EVEN, 3, Window(1, 10, 10))
    assert res.alternative == 2 and format_seq(res.witness) == "0:1;2:1;4:1"
    assert len(checked) < 10
    assert type(res.witness) is BlockSeq and BlockSeq(1, res.witness.elems) == res.witness


def test_searches_build_one_span_and_stop_at_the_witness(monkeypatch):
    # each B's span is grown inside A's, and no pick past the witness is tried
    w = Window(1, 6, 6)
    A = generators(1, 6)
    built, tried = record_walk(monkeypatch, forcing)
    for F, alternative in ((F_EVEN, 2), (FamilySpec.explicit([parse_seq("0:1", 1)]), 1)):
        del built[:], tried[:]
        res = galvin_dichotomy(A, EMPTY, F, 2, w)
        assert res.alternative == alternative and len(tried) > 2
        assert built == [A]
        assert tried[-1] is res.witness.elems[-1]
    del built[:], tried[:]
    res = rejects(A, EMPTY, F_GE2, w)
    assert built == [A] and tried[-1] is res.condensation.elems[-1]
    assert format_seq(res.condensation) == "0:1,1:1"
    del built[:], tried[:]
    verdict = decides(A, EMPTY, F_GE2, w, min_len=2)
    assert verdict.status == "undecided" and built == [A]
    assert format_seq(verdict.condensation) == "0:1,1:1;2:1,3:1"
    assert tried[-1] is verdict.condensation.elems[-1]
    del built[:]
    assert rejects(A, EMPTY, F_EMPTY, w).holds and built == [A]
    built, tried = record_walk(monkeypatch, canonical)
    res = canonicalize_search(EquivRelSpec("size_parity"), A, 2, w)
    assert built == [A] and tried[-1] is res.witness.elems[-1]


# -- level-2 windows ----------------------------------------------------------------


def test_forcing_at_level_two():
    w = Window(2, 4, 4)
    B = generators(2, 4)
    stem = BlockSeq(2, ())
    assert accepts(B, stem, FamilySpec("all_singletons"), w).holds
    res = accepts(B, stem, F_GE2, w)
    assert not res.holds  # single-peak span elements start thin branches
    d = galvin_dichotomy(B, stem, F_GE2, 2, w)
    assert d.alternative == 2
    assert format_seq(d.witness) == "0:2,1:2;2:2,3:2"
    # re-verify the certificate over raw maps: every maximal branch meets
    # the family at its first element
    span = raw_span(d.witness)
    for s in span:
        assert len(s) >= 2
    for branch in raw_maximal_branches(span, (), w.len_max):
        assert any(
            family_on_raw(F_GE2, branch[:t], k=2) for t in range(1, len(branch) + 1)
        )


# -- the tree walks against the raw branch references ------------------------------


def families(data, A):
    """A built-in family, or an explicit one: a single block sequence of one or
    two elements from [A], or every third of them."""
    pool = list(raw_all_sequences(raw_span(A), 2))[1:]
    one = FamilySpec.explicit([to_seq(data.draw(st.sampled_from(pool)), A.k)])
    third = FamilySpec.explicit(to_seq(s, A.k) for s in pool[::3])
    return data.draw(st.sampled_from([F_EMPTY, F_SING, F_EVEN, F_GE2, one, third]))


def meets(F, branch, k):
    return any(family_on_raw(F, branch[:t], k) for t in range(len(branch) + 1))


def flat_sequences(items, n, floor=-1):
    """Block-ordered picks from items in list order, rescanning every level."""
    if n == 0:
        yield ()
        return
    for s in items:
        if min(p for p, _ in s) > floor:
            for rest in flat_sequences(items, n - 1, max(p for p, _ in s)):
                yield (s,) + rest


@settings(max_examples=200, deadline=None)
@given(block_seqs(max_blocks=4), st.data())
def test_accepts_and_galvin_equal_the_raw_branch_references(A, data):
    if len(A) == 0:
        return
    w = window_of(A, len_max=3)
    F = families(data, A)
    a = data.draw(stems(A, w))
    stem = raw_seq(a)
    branches = raw_maximal_branches(raw_span(A), stem, w.len_max)
    # the stems galvin passes need not lie in [A]
    branch = forcing._avoiding_branch(span_enumerate(A, w), a, F, w)
    assert (branch is None) == all(meets(F, b, A.k) for b in branches)
    if branch is not None:
        assert raw_seq(branch) in branches and not meets(F, raw_seq(branch), A.k)
    if all(raw(x) in raw_span(A) for x in a):
        assert accepts(A, a, F, w) == AcceptsResult(branch is None, branch)
    else:
        with pytest.raises(IncompatibleStem):
            accepts(A, a, F, w)

    m = data.draw(st.integers(1, min(2, len(A))))
    expected = DichotomyResult(None, None)
    for picks in flat_sequences([frozenset(v) for v in ordered_span(A)], m):
        B = to_seq(picks, A.k)
        raws = raw_span(B)
        if not any(meets(F, e, A.k) for e in [stem] + raw_extensions(raws, stem, w.len_max)):
            expected = DichotomyResult(1, B)
            break
        if all(meets(F, b, A.k) for b in raw_maximal_branches(raws, stem, w.len_max)):
            expected = DichotomyResult(2, B)
            break
    assert galvin_dichotomy(A, a, F, m, w) == expected


@settings(max_examples=200, deadline=None)
@given(block_seqs(max_blocks=4), st.data())
def test_extension_tree_equals_the_raw_references(A, data):
    # cut below the stem at family members: the first member on each path,
    # read from the step, and the maximal branches that meet none, in
    # depth-first candidate order
    if len(A) == 0:
        return
    w = window_of(A, len_max=3)
    F = families(data, A)
    a = data.draw(stems(A, w))
    stem = raw_seq(a)
    span = span_enumerate(A, w)
    position = {x.values: i for i, x in enumerate(span)}
    raws = raw_span(A)

    def in_family(node, ts):
        return any(family_on_raw(F, node[:t], A.k) for t in ts)

    def first_member(node):
        return in_family(node, [len(node)]) and not in_family(node, range(len(stem) + 1, len(node)))

    def avoids(node):
        return not in_family(node, range(len(stem) + 1, len(node) + 1))

    met = []  # (node, is a member) in the order the walk meets them

    def step(node, x):
        child = node + (x,)
        if F.contains(BlockSeq(A.k, child)):
            met.append((child, True))
            return None
        return child

    for node, state in extension_tree(span, a, w.len_max, step, a.elems):
        assert state == node
        met.append((node, False))
    members = [raw_seq(node) for node, member in met if member]
    maximal = [raw_seq(node) for node, member in met if not member]
    branches = raw_maximal_branches(raws, stem, w.len_max)
    extensions = raw_extensions(raws, stem, w.len_max)
    assert sorted(members, key=repr) == sorted(filter(first_member, extensions), key=repr)
    assert sorted(maximal, key=repr) == sorted(filter(avoids, branches), key=repr)
    picks = [tuple(position[x.values] for x in node[len(a) :]) for node, _ in met]
    assert picks == sorted(set(picks))


def test_galvin_with_a_stem_prefix_in_the_family():
    # the stem's proper prefix 0:1 lies in F, so every branch meets F at once
    w = Window(1, 6, 6)
    A = generators(1, 6)
    a = parse_seq("0:1;1:1", 1)
    F = FamilySpec.explicit([parse_seq("0:1", 1)])
    first = next(sequences_over(span_enumerate(A, w), EMPTY, 2))
    assert galvin_dichotomy(A, a, F, 2, w) == DichotomyResult(2, first)


@settings(max_examples=200, deadline=None)
@given(block_seqs(max_k=2, max_blocks=4), st.data())
def test_galvin_equals_the_flat_per_b_scan(A, data):
    # stems inside and outside the span; the family may hold a proper prefix
    # of the stem, which settles alternative 2 at the first B
    if len(A) == 0:
        return
    w = window_of(A, len_max=3)
    a = data.draw(stems(A, w))
    F = families(data, A)
    if len(a) and data.draw(st.booleans()):
        F = FamilySpec.explicit([a.prefix(data.draw(st.integers(0, len(a) - 1)))])
    m = data.draw(st.integers(1, min(3, len(A) + 1)))
    assert galvin_dichotomy(A, a, F, m, w) == flat_galvin(A, a, F, m, w)


def test_galvin_equals_the_flat_scan_for_every_one_sequence_family():
    # F = {s} for each block sequence s of one or two elements over [A]: a
    # tree walk that skipped a successor would miss some s
    w = Window(1, 4, 4)
    A = generators(1, 4)
    for s in raw_all_sequences(raw_span(A), 2)[1:]:
        F = FamilySpec.explicit([to_seq(s, 1)])
        for m in (1, 2):
            assert galvin_dichotomy(A, EMPTY, F, m, w) == flat_galvin(A, EMPTY, F, m, w)
