import pytest

from finkit import (
    BlockSeq,
    DichotomyResult,
    EquivRelSpec,
    FamilySpec,
    IncompatibleStem,
    RejectsResult,
    Window,
    accepts,
    canonicalize_search,
    condensations,
    decides,
    format_seq,
    galvin_dichotomy,
    generators,
    open_set_ramsey,
    parse_family,
    parse_seq,
    rejects,
    sequences_over,
    span_enumerate,
)
from finkit import canonical, forcing
from oracles import (
    raw_all_sequences,
    raw_extensions,
    raw_maximal_branches,
    raw_span,
    to_seq,
)

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


def test_parse_family_forms(tmp_path):
    assert parse_family("support_ge:2", 1) == F_GE2
    path = tmp_path / "fam.txt"
    path.write_text("0:1;1:1\n# note\n0:1,1:1\n\n")
    F = parse_family(f"explicit:{path}", 1)
    assert F.contains(parse_seq("0:1;1:1", 1))
    assert F.contains(parse_seq("0:1,1:1", 1))
    assert not F.contains(parse_seq("0:1", 1))


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


def test_searches_stop_at_first_hit(monkeypatch):
    # the scans consume candidates only up to the first hit
    def count_yields(module):
        count = [0]
        inner = module.sequences_over

        def counted(*args):
            for item in inner(*args):
                count[0] += 1
                yield item

        monkeypatch.setattr(module, "sequences_over", counted)
        return count

    w = Window(1, 6, 6)
    A = generators(1, 6)
    galvin_count = count_yields(forcing)
    assert galvin_dichotomy(A, EMPTY, F_EVEN, 2, w).alternative == 2
    assert galvin_count[0] == 17
    classify_count = count_yields(canonical)
    assert canonicalize_search(EquivRelSpec("size_parity"), A, 2, w) is not None
    assert classify_count[0] == 2


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
