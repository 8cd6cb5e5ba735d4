"""Finite-window monochromatic searches over FIN_k spans.

The infinite theorems guarantee, for every finite coloring, a block sequence
whose whole span (or whose length-n subsequences) is monochromatic.  At
finite scale we search a window exhaustively: a hit is a genuine witness, a
miss only means the window was too small, never a refutation.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
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
    span_enumerate,
    successor_starts,
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
        if self.kind == "value_at" and self.param < 0:
            raise FinkError(f"value_at position {self.param} is negative")

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


def _heads(layers, limit: int, length: int):
    """The block sequences of a given length, as tuples, over the elements in
    layers[:limit]: per pick, the (element, picks ending before it) pairs it added."""
    if length == 0:
        yield ()
        return
    for layer in layers[:limit]:
        for y, before in layer:
            for head in _heads(layers, before, length - 1):
                yield head + (y,)


def _first_monochromatic(f: ColoringSpec, k: int, m: int, candidates: list, state, extend):
    """The search of gowers_search and ramsey2_search: depth-first over picks
    from span-ordered candidates, pruning a partial B as soon as the objects
    its picks added carry two colors.  extend(state, pick) returns the state
    with pick appended and the objects to color that the pick adds."""
    after = successor_starts(candidates)
    nodes = 0

    def grow(picks, start, state, color):
        nonlocal nodes
        if len(picks) == m:
            return picks, color
        for idx in range(start, len(candidates)):
            nodes += 1
            pick = candidates[idx]
            nxt, added = extend(state, pick)
            col = color
            for obj in added:
                c = f.color(obj)
                if col is None:
                    col = c
                elif c != col:
                    break
            else:
                hit = grow(picks + (pick,), after[idx], nxt, col)
                if hit is not None:
                    return hit
        return None

    hit = grow((), 0, state, None)
    if hit is None:
        return SearchReport(False, None, None, nodes)
    return SearchReport(True, BlockSeq(k, hit[0]), hit[1], nodes)


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
    return _first_monochromatic(f, A.k, m, candidates, SpanState(A.k), SpanState.extend)


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
    k = A.k

    def extend(state, pick):
        # A sequence that uses an element the pick adds ends with it; its other
        # terms lie in the span of the picks that end before that element starts.
        span, layers, ends = state
        span, fresh = span.extend(pick)
        layer = [(x, bisect_left(ends, x.min_supp)) for x in fresh]
        added = (
            BlockSeq(k, head + (x,)) for x, before in layer for head in _heads(layers, before, n - 1)
        )
        return (span, layers + (layer,), ends + (pick.max_supp,)), added

    return _first_monochromatic(f, k, m, span_enumerate(A, w), (SpanState(k), (), ()), extend)


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

    # product varies its last place fastest: reversed, the digits count in
    # base r with the first window element least significant
    for idx, most_first in enumerate(itertools.product(range(r), repeat=len(elems))):
        digits = most_first[::-1]
        f = ColoringSpec.from_function(lambda x: digits[index[x.values]], r)
        if not gowers_search(f, A, m, w, span=span).found:
            table = {format_element(x): digits[i] for i, x in enumerate(elems)}
            return VerifyReport(False, idx + 1, table)
    return VerifyReport(True, total, None)
