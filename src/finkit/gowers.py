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
    _composed_seq,
    extension_tree,
    format_element,
    format_seq,
    parse_rule,
    read_lines,
    sequences_over,
    span_enumerate,
    window_elements,
    window_generators,
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


# per coloring kind the CLI reads, its parameter as parse_rule reads it
_COLORING_KINDS = {"const": int, "min_mod": None, "max_mod": None, "size_mod": None,
                   "value_at": int, "table": str}


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
        if self.kind not in _COLORING_KINDS and self.kind != "func":
            raise FinkError(f"unknown coloring kind {self.kind!r}")
        if self.kind == "table" and self.table is None:
            raise FinkError("coloring kind 'table' needs a table")
        if self.kind == "func" and self.func is None:
            raise FinkError("coloring kind 'func' needs a function")
        if self.arity < 1:
            raise FinkError(f"coloring arity must be >= 1, got {self.arity}")
        if self.r < 2:
            raise FinkError(f"need at least 2 colors, got {self.r}")
        if self.kind == "const" and not 0 <= self.param < self.r:
            raise FinkError(f"constant color {self.param} outside 0..{self.r - 1}")
        if self.kind == "value_at" and self.param < 0:
            raise FinkError(f"value_at position {self.param} is negative")
        for key, c in (self.table or {}).items():
            if not 0 <= c < self.r:
                raise FinkError(f"color {c} for {key!r} outside 0..{self.r - 1}")

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
        """Reject table colorings that miss part of the window's domain.  The
        domain is walked lazily, so the first missing key ends the check."""
        if self.kind != "table":
            return
        if self.arity == 1:
            domain = window_elements(w)
        elif self.arity > w.len_max:
            raise FinkError(f"length {self.arity} exceeds window len_max={w.len_max}")
        else:
            span = span_enumerate(window_generators(w), w)
            domain = sequences_over(span, BlockSeq(w.k, ()), self.arity)
        for obj in domain:
            key = _key(obj)
            if key not in self.table:
                raise FinkError(f"coloring not total on window: missing {key!r}")

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
    kind, param = parse_rule("coloring", text, _COLORING_KINDS, unknown="coloring rule")
    if kind == "table":
        table = {}
        for line in read_lines(param):
            key, _, color = line.partition("\t")
            try:
                table[key] = int(color)
            except ValueError:
                raise FinkError(f"coloring table line {line!r} is not KEY<TAB>COLOR") from None
        return ColoringSpec.from_table(table, r, arity)
    return ColoringSpec(arity, r, kind, param=param or 0)


@dataclass(frozen=True)
class SearchReport:
    found: bool
    witness: Optional[BlockSeq]
    color: Optional[int]
    nodes_explored: int


def _heads(added, ends, limit: int, length: int):
    """The block sequences of a given length, as tuples, over added[:limit] (per
    pick, what it added to the SpanState); the picks' ends bound each term's head."""
    if length == 0:
        yield ()
        return
    for layer in added[:limit]:
        for y in layer:
            for head in _heads(added, ends, bisect_left(ends, y.min_supp), length - 1):
                yield head + (y,)


def _first_monochromatic(
    f: ColoringSpec, k: int, m: int, candidates: list, root, extend, leads: bool = False
):
    """The search of gowers_search and ramsey2_search: the condensation walk
    over span-ordered candidates, pruning a partial B as soon as the objects
    its picks added carry two colors.  extend(state, pick) returns the state
    with pick appended and the objects to color that the pick adds.  With
    leads, the first of those objects is the pick itself: it is colored
    before extend runs, so a pick that clashes on its own color costs no
    extend, and the colors are asked for in the same order.  The picks
    tried, one step each, are the report's nodes_explored."""
    nodes = 0

    def step(state, pick):
        nonlocal nodes
        nodes += 1
        inner, color = state
        if leads:
            c = f.color(pick)
            if color is not None and c != color:
                return None
            color = c
        inner, added = extend(inner, pick)
        for obj in itertools.islice(added, leads, None):
            c = f.color(obj)
            if color is None:
                color = c
            elif c != color:
                return None
        return inner, color

    walk = extension_tree(candidates, BlockSeq(k, ()), m, step, (root, None))
    for picks, (_, color) in walk:
        if len(picks) == m:
            return SearchReport(True, BlockSeq(k, picks), color, nodes)
    return SearchReport(False, None, None, nodes)


def gowers_search(f: ColoringSpec, A: BlockSeq, m: int, w: Window) -> SearchReport:
    """Search for B <= A of length m with f constant on the span of B.

    Depth-first over span candidates in span order, pruning a partial B as
    soon as its partial span carries two colors.  The witness is the first
    one in that order; a miss means the window is exhausted, not that the
    infinite statement fails.  The objects colored are the elements of
    span_enumerate(A, w) themselves.
    """
    if f.arity != 1:
        raise FinkError(f"gowers_search needs an arity-1 coloring, got {f.arity}")
    w.require_length(m)
    f.check_total(w)
    candidates = span_enumerate(A, w)
    # a pick's first added element is the pick: the empty sum joined with T^0
    return _first_monochromatic(
        f, A.k, m, candidates, SpanState.inside(candidates), SpanState.extend, leads=True
    )


def ramsey2_search(f: ColoringSpec, A: BlockSeq, m: int, w: Window) -> SearchReport:
    """Search for B <= A of length m with f constant on all length-n
    block sequences drawn from the span of B (n = f.arity)."""
    n = f.arity
    if n > m:
        raise FinkError(f"arity {n} exceeds target length {m}")
    w.require_length(m)
    f.check_total(w)
    k = A.k

    def extend(state, pick):
        # A sequence that uses an element the pick adds ends with it; its other
        # terms lie in the span of the picks that end before that element
        # starts, so it is block ordered by construction.
        span, ends = state
        span, fresh = span.extend(pick)
        added = (
            _composed_seq(k, head + (x,))
            for x in fresh
            for head in _heads(span.added, ends, bisect_left(ends, x.min_supp), n - 1)
        )
        return (span, ends + (pick.max_supp,)), added

    candidates = span_enumerate(A, w)
    return _first_monochromatic(f, k, m, candidates, (SpanState.inside(candidates), ()), extend)


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

    The colorings are counted in base r over the window's elements, the span
    of its generators in value-vector order (position 0 most significant),
    the first element the least significant digit.  The first one with no
    witness is reported as an explicit table, with its place in that order
    as colorings_checked (r^size when there is none).  Refused first: a
    coloring count past the budget, then a span past the span bound.

    One depth-first search over partial colorings assigns the digits from the
    most significant element down, trying colors 0..r-1, so it reaches full
    colorings in counter order.  Each candidate witness, the span of one
    length-m B over the generators, is checked when its least significant
    element gets its color; once one is monochromatic, every coloring below
    that node has a witness, and they are passed over without being visited.
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
    w.require_length(m)
    span = span_enumerate(window_generators(w), w)
    elems = sorted(span, key=lambda x: [x.value_at(p) for p in range(N)])
    index = {x.values: i for i, x in enumerate(elems)}
    root = SpanState.inside(span)
    # per element, the witnesses whose least significant element it is, each
    # as the other elements that must share its color
    attached: list[list[tuple[int, ...]]] = [[] for _ in elems]
    walk = extension_tree(span, BlockSeq(k, ()), m, lambda state, x: state.extend(x)[0], root)
    for B, state in walk:
        if len(B) == m:
            members = sorted(index[y.values] for y in state.span())
            attached[members[0]].append(tuple(members[1:]))

    digits = [0] * size
    i = size - 1  # the element whose digit was just assigned
    while True:
        c = digits[i]
        if any(all(digits[j] == c for j in rest) for rest in attached[i]):
            while digits[i] == r - 1:
                i += 1
                if i == size:
                    return VerifyReport(True, r**size, None)
            digits[i] += 1
        elif i == 0:
            table = {format_element(x): digits[j] for j, x in enumerate(elems)}
            return VerifyReport(False, sum(d * r**j for j, d in enumerate(digits)) + 1, table)
        else:
            i -= 1
            digits[i] = 0
