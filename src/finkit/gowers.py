"""Finite-window monochromatic searches over FIN_k spans.

The infinite theorems guarantee, for every finite coloring, a block sequence
whose whole span (or whose length-n subsequences) is monochromatic.  At
finite scale we search a window exhaustively: a hit is a genuine witness, a
miss only means the window was too small, never a refutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from .core import (
    BlockSeq,
    BudgetExceeded,
    FinkElement,
    FinkError,
    SpanState,
    Window,
    format_element,
    format_seq,
    generators,
    initial_segments,
    read_lines,
    sequences_over,
    span_enumerate,
    window_elements,
)

Colorable = Union[FinkElement, BlockSeq]


def _value_at(obj: Colorable, pos: int) -> int:
    if isinstance(obj, FinkElement):
        return obj.value_at(pos)
    for x in obj:
        if x.min_supp <= pos <= x.max_supp:
            return x.value_at(pos)
    return 0


def _key(obj: Colorable) -> str:
    return format_element(obj) if isinstance(obj, FinkElement) else format_seq(obj)


@dataclass(frozen=True)
class ColoringSpec:
    """A total coloring with r colors of elements (arity 1) or length-n sequences.

    The rule is either a built-in tag, an explicit lookup table keyed by
    canonical strings, or an arbitrary callable.  Built-ins read the support
    of the colored object (for a sequence, the union of its elements'
    supports): ``const:c``, ``min_mod``, ``max_mod``, ``size_mod``,
    ``value_at:p``.
    """

    arity: int
    r: int
    kind: str  # const | min_mod | max_mod | size_mod | value_at | table | func
    param: int = 0
    table: Optional[dict[str, int]] = None
    func: Optional[Callable[[Colorable], int]] = None

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise FinkError(f"coloring arity must be >= 1, got {self.arity}")
        if self.r < 2:
            raise FinkError(f"need at least 2 colors, got {self.r}")
        if self.kind == "const" and not 0 <= self.param < self.r:
            raise FinkError(f"constant color {self.param} outside 0..{self.r - 1}")

    def color(self, obj: Colorable) -> int:
        if self.kind == "const":
            return self.param
        if self.kind == "min_mod":
            first = obj if isinstance(obj, FinkElement) else obj.elems[0]
            return first.min_supp % self.r
        if self.kind == "max_mod":
            return obj.max_supp % self.r
        if self.kind == "size_mod":
            if isinstance(obj, FinkElement):
                return len(obj.values) % self.r
            return sum(len(x.values) for x in obj.elems) % self.r
        if self.kind == "value_at":
            return _value_at(obj, self.param) % self.r
        if self.kind == "table":
            key = _key(obj)
            if key not in self.table:
                raise FinkError(f"coloring table has no entry for {key!r}")
            return self.table[key]
        return self.func(obj)

    def check_total(self, w: Window) -> None:
        """Reject table colorings that miss part of the window's domain."""
        if self.kind != "table":
            return
        if self.arity == 1:
            domain = window_elements(w)
        else:
            domain = initial_segments(generators(w.k, w.n_max), self.arity, w)
        for obj in domain:
            key = _key(obj)
            if key not in self.table:
                raise FinkError(f"coloring not total on window: missing {key!r}")
            c = self.table[key]
            if not 0 <= c < self.r:
                raise FinkError(f"color {c} for {key!r} outside 0..{self.r - 1}")

    @staticmethod
    def constant(c: int, r: int, arity: int = 1) -> "ColoringSpec":
        return ColoringSpec(arity, r, "const", param=c)

    @staticmethod
    def from_table(table: dict[str, int], r: int, arity: int = 1) -> "ColoringSpec":
        return ColoringSpec(arity, r, "table", table=dict(table))

    @staticmethod
    def from_function(fn: Callable[[Colorable], int], r: int, arity: int = 1) -> "ColoringSpec":
        return ColoringSpec(arity, r, "func", func=fn)


def parse_coloring(text: str, r: int, arity: int = 1) -> ColoringSpec:
    """Parse the CLI syntax: const:0, min_mod, max_mod, size_mod, value_at:3, table:FILE."""
    kind, colon, param = text.partition(":")
    if kind == "const":
        return ColoringSpec.constant(int(param), r, arity)
    if kind in ("min_mod", "max_mod", "size_mod"):
        if colon:
            raise FinkError(f"coloring {kind!r} takes no parameter, got {text!r}")
        return ColoringSpec(arity, r, kind)
    if kind == "value_at":
        return ColoringSpec(arity, r, "value_at", param=int(param))
    if kind == "table":
        table = {}
        for line in read_lines(param):
            key, _, color = line.partition("\t")
            table[key] = int(color)
        return ColoringSpec.from_table(table, r, arity)
    raise FinkError(f"unknown coloring rule {text!r}")


@dataclass(frozen=True)
class SearchReport:
    found: bool
    witness: Optional[BlockSeq]
    color: Optional[int]
    nodes_explored: int


def _successor_starts(candidates: list[FinkElement], A: BlockSeq) -> list[int]:
    """Per span candidate c, where the candidates that may follow c begin.

    span_enumerate lists [A] grouped by first block, in block order.  If c's
    last block is A[t], a candidate whose first block is A[s] with s <= t
    cannot start after c: for s < t it starts inside A[s], and for s = t both
    images keep A[t]'s peaks, so it starts at or before the first peak and c
    ends at or after the last one.  Every candidate from A[t + 1] on starts
    after c.  So the next pick starts at the first candidate of A[t + 1].
    """
    block_of = {pos: i for i, x in enumerate(A.elems) for pos, _ in x.values}
    first = [len(candidates)] * (len(A) + 1)
    for idx in range(len(candidates) - 1, -1, -1):
        first[block_of[candidates[idx].min_supp]] = idx
    for i in range(len(A) - 1, -1, -1):
        first[i] = min(first[i], first[i + 1])
    return [first[block_of[c.max_supp] + 1] for c in candidates]


def gowers_search(
    f: ColoringSpec, A: BlockSeq, m: int, w: Window, *, span: Optional[list] = None
) -> SearchReport:
    """Search for B <= A of length m with f constant on the span of B.

    Depth-first over span candidates in span order, pruning a partial B as
    soon as its partial span carries two colors.  The witness is the first
    one in that order; a miss means the window is exhausted, not that the
    infinite statement fails.  A caller that searches one ambient many times
    may pass span = span_enumerate(A, w) to build it once.
    """
    if f.arity != 1:
        raise FinkError(f"gowers_search needs an arity-1 coloring, got {f.arity}")
    if not 1 <= m <= w.len_max:
        raise FinkError(f"target length {m} outside 1..{w.len_max}")
    f.check_total(w)
    candidates = span_enumerate(A, w) if span is None else span
    after = _successor_starts(candidates, A)
    k = A.k

    def grow(blocks, start, state, color, target_nodes):
        # returns (witness blocks, color) or None; target_nodes is a 1-cell counter
        if len(blocks) == m:
            return blocks, color
        floor = blocks[-1].max_supp if blocks else -1
        for idx in range(start, len(candidates)):
            c = candidates[idx]
            if c.min_supp <= floor:
                continue
            target_nodes[0] += 1
            nxt, fresh = state.extend(c)
            col = color
            ok = True
            for x in fresh:
                cx = f.color(x)
                if col is None:
                    col = cx
                elif cx != col:
                    ok = False
                    break
            if not ok:
                continue
            hit = grow(blocks + [c], after[idx], nxt, col, target_nodes)
            if hit is not None:
                return hit
        return None

    nodes = [0]
    hit = grow([], 0, SpanState(k), None, nodes)
    if hit is None:
        return SearchReport(False, None, None, nodes[0])
    blocks, color = hit
    return SearchReport(True, BlockSeq(k, tuple(blocks)), color, nodes[0])


def ramsey2_search(f: ColoringSpec, A: BlockSeq, m: int, w: Window) -> SearchReport:
    """Search for B <= A of length m with f constant on all length-n
    block sequences drawn from the span of B (n = f.arity)."""
    n = f.arity
    if n < 1:
        raise FinkError(f"sequence coloring arity must be >= 1, got {n}")
    if n > m:
        raise FinkError(f"arity {n} exceeds target length {m}")
    if m > w.len_max:
        raise FinkError(f"target length {m} exceeds window len_max={w.len_max}")
    f.check_total(w)
    candidates = span_enumerate(A, w)
    after = _successor_starts(candidates, A)
    k = A.k
    empty = BlockSeq(k, ())

    def colors_of(span_list):
        seen = set()
        for seq in sequences_over(span_list, empty, n):
            seen.add(f.color(seq))
            if len(seen) > 1:
                return seen
        return seen

    def grow(blocks, start, state, span_list, target_nodes):
        if len(blocks) == m:
            color = f.color(BlockSeq(k, tuple(blocks[:n])))
            return blocks, color
        floor = blocks[-1].max_supp if blocks else -1
        for idx in range(start, len(candidates)):
            c = candidates[idx]
            if c.min_supp <= floor:
                continue
            target_nodes[0] += 1
            nxt, fresh = state.extend(c)
            grown = span_list + fresh
            if len(colors_of(grown)) > 1:
                continue
            hit = grow(blocks + [c], after[idx], nxt, grown, target_nodes)
            if hit is not None:
                return hit
        return None

    nodes = [0]
    hit = grow([], 0, SpanState(k), [], nodes)
    if hit is None:
        return SearchReport(False, None, None, nodes[0])
    blocks, color = hit
    return SearchReport(True, BlockSeq(k, tuple(blocks)), color, nodes[0])


@dataclass(frozen=True)
class VerifyReport:
    holds: bool
    colorings_checked: int
    failing_coloring: Optional[dict[str, int]]  # canonical element -> color


def verify_finite_gowers(
    k: int,
    m: int,
    r: int,
    N: int,
    budget: int = 2**24,
) -> VerifyReport:
    """Does every r-coloring of the window [0, N) admit a length-m witness?

    Iterates all r**(window size) colorings in base-r counter order and runs
    the span search on each; the first failure is reported as an explicit
    table.  Combinations whose coloring count exceeds the budget are refused
    before anything is enumerated.  The span of the generators is built once
    and shared by every coloring's search.
    """
    w = Window(k, N, max(m, 1))
    if r < 2:
        raise FinkError(f"need at least 2 colors, got {r}")
    # The window holds size = (k+1)^N - k^N >= 2^(N-1) elements.  Past N = 64
    # no budget an int can hold admits r^size colorings, so size is not
    # computed; below it r^size is built only up to r^cap > budget.
    size = (k + 1) ** N - k**N if N <= 64 else None
    cap = budget.bit_length() + 1
    if size is None or r ** min(size, cap) > budget:
        big = size is None or size.bit_length() > 64
        shown = f"({k + 1}^{N} - {k}^{N})" if big else size
        raise BudgetExceeded(f"{r}^{shown} colorings exceed budget {budget}")
    total = r**size
    elems = list(window_elements(w))
    A = generators(k, N)
    span = span_enumerate(A, w)
    index = {x.values: i for i, x in enumerate(elems)}

    def digits_of(idx: int) -> tuple[int, ...]:
        out = []
        for _ in elems:
            idx, d = divmod(idx, r)
            out.append(d)
        return tuple(out)

    for idx in range(total):
        digits = digits_of(idx)
        f = ColoringSpec.from_function(lambda x: digits[index[x.values]], r)
        if not gowers_search(f, A, m, w, span=span).found:
            table = {format_element(x): digits[i] for i, x in enumerate(elems)}
            return VerifyReport(False, idx + 1, table)
    return VerifyReport(True, total, None)
