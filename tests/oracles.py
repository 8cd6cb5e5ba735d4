"""Independent brute-force references used by the tests.

Everything here works on raw value maps (frozensets of (position, value)
pairs) and plain tuples; it shares no enumeration, pruning or search code
with the library paths it is used to check.  RECORD_TWINS holds a frozen
dataclass per record type of the library, with its fields and defaults
only.  There are three exceptions.
flat_verify_finite_gowers runs the library's gowers_search once per
coloring: it shares the span engine with verify_finite_gowers but none of
its backtracking, and test_c04's own flat checker covers both.  flat_galvin
scans every B with sequences_over and builds each B's span with
span_enumerate, then decides B on raw maps, where galvin_dichotomy builds
only A's span and walks B's tree.  condensations lists every condensation
flat, by sequences_over over one span_enumerate, where rejects and decides
grow each condensation's span inside B's with the condensation walk.
"""

import bisect
import itertools
from dataclasses import make_dataclass
from fractions import Fraction

from finkit import (
    BlockSeq,
    ColoringSpec,
    DichotomyResult,
    FinkElement,
    FinkError,
    VerifyReport,
    Window,
    format_element,
    generators,
    gowers_search,
    sequences_over,
    span_enumerate,
    window_elements,
)


def raw(elem: FinkElement) -> frozenset:
    return frozenset(elem.values)


def to_elem(s, k: int) -> FinkElement:
    return FinkElement(k, tuple(sorted(s)))


def to_seq(raws, k: int) -> BlockSeq:
    return BlockSeq(k, tuple(to_elem(s, k) for s in raws))


def raw_span(A: BlockSeq) -> set:
    """Sums of clipped decrements over increasing index selections.

    Exponents run over 0..k inclusive (the degenerate top exponent simply
    contributes nothing) with at least one exponent 0; results are
    deduplicated as raw maps.
    """
    k = A.k
    gens = [dict(x.values) for x in A.elems]
    out = set()
    for r in range(1, len(gens) + 1):
        for idxs in itertools.combinations(range(len(gens)), r):
            for exps in itertools.product(range(k + 1), repeat=r):
                if 0 not in exps:
                    continue
                total = {}
                for i, j in zip(idxs, exps):
                    for pos, val in gens[i].items():
                        v = max(val - j, 0)
                        if v:
                            total[pos] = v
                if k in total.values():
                    out.add(frozenset(total.items()))
    return out


def ordered_span(A: BlockSeq) -> list:
    """[A] as sorted value tuples, in the library's documented span order.

    Lists every nonempty index subset, sorts the subsets, and for each one
    every exponent vector over 0..k-1 with some 0 in product order; each
    element is merged into a dict and sorted from scratch.
    """
    k = A.k
    gens = [dict(x.values) for x in A.elems]
    subsets = sorted(
        idxs
        for r in range(1, len(gens) + 1)
        for idxs in itertools.combinations(range(len(gens)), r)
    )
    out = []
    for idxs in subsets:
        for exps in itertools.product(range(k), repeat=len(idxs)):
            if 0 not in exps:
                continue
            merged = {}
            for i, j in zip(idxs, exps):
                for pos, val in gens[i].items():
                    if val > j:
                        merged[pos] = val - j
            out.append(tuple(sorted(merged.items())))
    return out


def suffix_min_successor_starts(candidates) -> list:
    """Per candidate c, where the candidates that may follow c begin: the
    first index whose suffix minimum of min_supp exceeds c.max_supp.

    It computes successor_starts from the suffix minima, where the library
    keeps one past the last candidate per start position.
    """
    lowest = list(itertools.accumulate((c.min_supp for c in reversed(candidates)), min))
    lowest.reverse()
    return [bisect.bisect_right(lowest, c.max_supp) for c in candidates]


def block_successor_starts(candidates, A: BlockSeq) -> list:
    """Per span candidate c, where the candidates that may follow c begin,
    found through A's blocks.

    The candidates are grouped by first block, in block order.  If c's last
    block is A[t], the next pick starts at the first candidate whose first
    block is A[t + 1] or later (len(candidates) when there is none).
    """
    block_of = {pos: i for i, x in enumerate(A.elems) for pos, _ in x.values}
    first = [len(candidates)] * (len(A) + 1)
    for idx in range(len(candidates) - 1, -1, -1):
        first[block_of[candidates[idx].min_supp]] = idx
    for i in range(len(A) - 1, -1, -1):
        first[i] = min(first[i], first[i + 1])
    return [first[block_of[c.max_supp] + 1] for c in candidates]


def pairwise_restriction_equals(R, S, B: BlockSeq) -> bool:
    """Do R and S agree on every pair from the span of B, checked pair by pair?

    The span is listed by ordered_span, and every unordered pair, each
    element with itself included, is compared through the relations' holds.
    """
    span = [FinkElement(B.k, values) for values in ordered_span(B)]
    for a, b in itertools.combinations_with_replacement(span, 2):
        if R.holds(a, b) != S.holds(a, b):
            return False
    return True


def _level_ends(elem: FinkElement, i: int):
    """First and last position where elem takes the value i, None when it never does."""
    at = [pos for pos, val in elem.values if val == i]
    return (at[0], at[-1]) if at else (None, None)


def relation_by_definition(kind: str, level: int, a: FinkElement, b: FinkElement) -> bool:
    """Whether a and b are related by a built-in relation, from its definition."""
    if kind == "equality":
        return a.values == b.values
    if kind == "full":
        return True
    if kind == "size_parity":
        return len(a.values) % 2 == len(b.values) % 2
    ends_a, ends_b = _level_ends(a, level), _level_ends(b, level)
    pick = {"min_level": slice(0, 1), "max_level": slice(1, 2), "minmax_level": slice(0, 2)}
    return ends_a[pick[kind]] == ends_b[pick[kind]]


def pairwise_sos_check(a: FinkElement, zero_convention: str = "support-boundary"):
    """sos_check's (ok, first violated clause) by its definition: the level
    landmarks compared pair by pair, and each band scanned position by
    position through value_at."""
    k = a.k
    ends = [_level_ends(a, i) for i in range(1, k + 1)]
    if any(lo is None for lo, _ in ends):
        return False, "range"
    for i, j in itertools.combinations(range(k), 2):
        if not (ends[i][0] < ends[j][0] and ends[j][1] < ends[i][1]):
            return False, "nesting"
    if zero_convention == "support-boundary":
        lo0, hi0 = a.min_supp, a.max_supp
    else:
        zeros = [n for n in range(a.max_supp + 2) if a.value_at(n) == 0]
        lo0, hi0 = zeros[0], zeros[-1]
    mins = [lo0] + [lo for lo, _ in ends]
    maxs = [hi0] + [hi for _, hi in ends]

    def band_ok(lo: int, hi: int, level: int) -> bool:
        lo, hi = min(lo, hi), max(lo, hi)
        return all(a.value_at(n) <= level for n in range(lo, hi + 1))

    for i in range(1, k + 1):
        if not band_ok(mins[i - 1], mins[i], i):
            return False, f"climb:{i}"
        if not band_ok(maxs[i], maxs[i - 1], i):
            return False, f"descent:{i}"
    if k not in {a.value_at(n) for n in range(mins[k], maxs[k] + 1)}:
        return False, "core"
    return True, None


def _start(s) -> int:
    return min(p for p, _ in s)


def _end(s) -> int:
    return max(p for p, _ in s)


def sorted_raws(span_raws) -> list:
    return sorted(span_raws, key=lambda s: sorted(s))


def raw_sequences(span_raws, length: int):
    """Block-ordered tuples of raw maps of the given length."""
    items = sorted_raws(span_raws)

    def rec(prefix, floor):
        if len(prefix) == length:
            yield prefix
            return
        for s in items:
            if _start(s) > floor:
                yield from rec(prefix + (s,), _end(s))

    yield from rec((), -1)


def raw_all_sequences(span_raws, len_max: int):
    """Every block sequence over the raw span up to len_max, empty included."""
    out = [()]
    for L in range(1, len_max + 1):
        out.extend(raw_sequences(span_raws, L))
    return out


def raw_extensions(span_raws, stem, len_max: int):
    """Every proper block extension of the stem through the raw span."""
    items = sorted_raws(span_raws)
    out = []
    stack = [tuple(stem)]
    while stack:
        node = stack.pop()
        if len(node) >= len_max:
            continue
        floor = _end(node[-1]) if node else -1
        for s in items:
            if _start(s) > floor:
                child = node + (s,)
                out.append(child)
                stack.append(child)
    return out


def raw_maximal_branches(span_raws, stem, len_max: int):
    """Maximal block extensions of the stem (no further pick fits)."""
    items = sorted_raws(span_raws)
    out = []

    def rec(node):
        extended = False
        if len(node) < len_max:
            floor = _end(node[-1]) if node else -1
            for s in items:
                if _start(s) > floor:
                    extended = True
                    rec(node + (s,))
        if not extended:
            out.append(node)

    rec(tuple(stem))
    return out


def condensations(B: BlockSeq, w: Window, min_len: int = 1):
    """All block sequences over [B] inside the window of length at least
    min_len (1 <= min_len <= len_max), shortest first, then lexicographic in
    span order."""
    if not 1 <= min_len <= w.len_max:
        raise FinkError(f"condensation length floor {min_len} outside 1..{w.len_max}")
    candidates = span_enumerate(B, w)
    empty = BlockSeq(B.k, ())
    for L in range(min_len, w.len_max + 1):
        yield from sequences_over(candidates, empty, L)


def flat_galvin(A: BlockSeq, a: BlockSeq, F, m: int, w: Window) -> DichotomyResult:
    """galvin_dichotomy by one span_enumerate per length-m B over [A], in
    span order.  B gives alternative 1 when no node of the stem's extension
    tree through [B] (the stem included) has a prefix in F, and alternative 2
    when every maximal branch does; the empty prefix and the stem's own
    prefixes count."""
    stem = tuple(raw(x) for x in a)

    def meets(node):
        return any(F.contains(to_seq(node[:t], A.k)) for t in range(len(node) + 1))

    for B in sequences_over(span_enumerate(A, w), BlockSeq(A.k, ()), m):
        raws = {raw(x) for x in span_enumerate(B, w)}
        if not any(map(meets, [stem] + raw_extensions(raws, stem, w.len_max))):
            return DichotomyResult(1, B)
        if all(map(meets, raw_maximal_branches(raws, stem, w.len_max))):
            return DichotomyResult(2, B)
    return DichotomyResult(None, None)


def flat_verify_finite_gowers(k: int, m: int, r: int, N: int) -> VerifyReport:
    """verify_finite_gowers by one fresh gowers_search per coloring.

    Visits every r-coloring of the window in base-r counter order, the first
    window element least significant, and stops at the first one that has no
    length-m witness.  There is no budget: for small windows only.
    """
    w = Window(k, N, max(m, 1))
    elems = list(window_elements(w))
    A = generators(k, N)
    index = {x.values: i for i, x in enumerate(elems)}
    # product varies its last place fastest: reversed, the digits count in
    # base r with the first window element least significant
    for idx, most_first in enumerate(itertools.product(range(r), repeat=len(elems))):
        digits = most_first[::-1]
        f = ColoringSpec.from_function(lambda x: digits[index[x.values]], r)
        if not gowers_search(f, A, m, w).found:
            table = {format_element(x): digits[i] for i, x in enumerate(elems)}
            return VerifyReport(False, idx + 1, table)
    return VerifyReport(True, r ** len(elems), None)


def k_for_epsilon_by_loop(epsilon: Fraction):
    """delta = epsilon/2 and the least k with (1+delta)^(k-1) > 1/delta,
    found by multiplying Fractions once per k."""
    delta = Fraction(epsilon) / 2
    k = 1
    power = Fraction(1)  # (1+delta)^(k-1)
    while power <= 1 / delta:
        k += 1
        power *= 1 + delta
    return k, delta


def _twin(name: str, *fields):
    """A frozen dataclass named as a library record: each field is a name, or
    (name, default) for one with a default."""
    spec = [(f, object) if isinstance(f, str) else (f[0], object, f[1]) for f in fields]
    return make_dataclass(name, spec, frozen=True)


# per record type of the library, its twin: the fields in order, with their
# defaults, but no validation and no methods
RECORD_TWINS = {twin.__name__: twin for twin in (
    _twin("FinkElement", "k", "values"),
    _twin("BlockSeq", "k", "elems"),
    _twin("Window", "k", "n_max", "len_max"),
    _twin("Decomposition", "parts"),
    _twin("ColoringSpec", "arity", "r", "kind", ("param", None)),
    _twin("SearchReport", "found", "witness", "color", "nodes_explored"),
    _twin("VerifyReport", "holds", "colorings_checked", "failing_coloring"),
    _twin("LevelStats", "k", "mins", "maxs"),
    _twin("SosResult", "ok", "violated"),
    _twin("EquivRelSpec", "kind", ("param", None), ("window", None)),
    _twin("CanonicalizationResult", "relation", "spec", "witness", "caveat"),
    _twin("FamilySpec", "kind", ("param", None)),
    _twin("AcceptsResult", "holds", "branch"),
    _twin("RejectsResult", "holds", "condensation"),
    _twin("ForcingVerdict", "status", ("branch", None), ("condensation", None)),
    _twin("DichotomyResult", "alternative", "witness"),
    _twin("OpenSetResult", "side", "witness"),
    _twin("CoidealPresentation", "kind", "window", ("param", None)),
    _twin("RefineResult", "side", "witness"),
    _twin("DiagonalizationReport", "ok", "violator"),
    _twin("NetFunction", "k", "delta", "exponents"),
)}
