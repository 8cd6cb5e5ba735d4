"""Independent brute-force references used by the tests.

Everything here works on raw value maps (frozensets of (position, value)
pairs) and plain tuples; it shares no enumeration, pruning or search code
with the library paths it is used to check.
"""

import itertools

from finkit import BlockSeq, FinkElement


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
