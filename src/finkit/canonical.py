"""Level statistics, staircase systems, and canonical equivalence relations.

At k = 1 every equivalence relation on nonempty finite sets, restricted to a
suitable span, coincides with one of five relations: min, max, (min,max),
equality, or the full relation.  The count of canonical relations for
general k has the closed form computed by t_count.  For k >= 2 only the
analogous min/max family is implemented; the classifier labels its output
with a caveat because the complete list is longer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .core import (
    BlockSeq,
    FinkElement,
    FinkError,
    Window,
    format_element,
    parse_element,
    read_lines,
    sequences_over,
    span_enumerate,
)

ZERO_CONVENTIONS = ("support-boundary", "first-zero")


@dataclass(frozen=True)
class LevelStats:
    """First and last position of each value level 1..k, None when missing."""

    k: int
    mins: tuple[Optional[int], ...]
    maxs: tuple[Optional[int], ...]

    def min_level(self, i: int) -> Optional[int]:
        return self.mins[i - 1]

    def max_level(self, i: int) -> Optional[int]:
        return self.maxs[i - 1]

    def formatted(self, zero_sentinel: bool = False) -> str:
        """One "i:min..max" chunk per level.

        With zero_sentinel a missing level prints as 0 (the sentinel some
        sources use), which collides with genuine position 0; the default
        prints '-' for absent.
        """

        def show(v: Optional[int]) -> str:
            if v is None:
                return "0" if zero_sentinel else "-"
            return str(v)

        return " ".join(
            f"{i}:{show(self.min_level(i))}..{show(self.max_level(i))}"
            for i in range(1, self.k + 1)
        )


def level_stats(a: FinkElement) -> LevelStats:
    mins: list[Optional[int]] = [None] * a.k
    maxs: list[Optional[int]] = [None] * a.k
    for pos, val in a.values:
        if mins[val - 1] is None:
            mins[val - 1] = pos
        maxs[val - 1] = pos
    return LevelStats(a.k, tuple(mins), tuple(maxs))


@dataclass(frozen=True)
class SosResult:
    ok: bool
    violated: Optional[str]  # first failed clause: range | nesting | climb:i | descent:i | core


def sos_check(a: FinkElement, zero_convention: str = "support-boundary") -> SosResult:
    """Is a a staircase system: a single rise through every level and fall back?

    Checks, in order: (range) every level 1..k is attained; (nesting) the
    level landmarks nest, min_i < min_j <= max_j < max_i for i < j; (climb /
    descent) between consecutive landmarks no value exceeds the level being
    entered or left; (core) the innermost landmark interval attains k.  The
    level-0 landmarks are the support boundary by default, or the first and
    last zero up to just past the support under the "first-zero" convention.
    """
    if zero_convention not in ZERO_CONVENTIONS:
        raise FinkError(f"unknown zero convention {zero_convention!r}")
    st = level_stats(a)
    k = a.k
    for i in range(1, k + 1):
        if st.min_level(i) is None:
            return SosResult(False, "range")
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if not st.min_level(i) < st.min_level(j):
                return SosResult(False, "nesting")
            if not st.max_level(j) < st.max_level(i):
                return SosResult(False, "nesting")
    if zero_convention == "support-boundary":
        lo0, hi0 = a.min_supp, a.max_supp
    else:
        zeros = [n for n in range(a.max_supp + 2) if a.value_at(n) == 0]
        lo0, hi0 = zeros[0], zeros[-1]
    mins = [lo0] + [st.min_level(i) for i in range(1, k + 1)]
    maxs = [hi0] + [st.max_level(i) for i in range(1, k + 1)]

    def band_ok(lo: int, hi: int, level: int) -> bool:
        lo, hi = min(lo, hi), max(lo, hi)
        return all(a.value_at(n) <= level for n in range(lo, hi + 1))

    for i in range(1, k + 1):
        if not band_ok(mins[i - 1], mins[i], i):
            return SosResult(False, f"climb:{i}")
        if not band_ok(maxs[i], maxs[i - 1], i):
            return SosResult(False, f"descent:{i}")
    if k not in {a.value_at(n) for n in range(mins[k], maxs[k] + 1)}:
        return SosResult(False, "core")
    return SosResult(True, None)


def _min_at(a: FinkElement, i: int) -> Optional[int]:
    return level_stats(a).min_level(i)


def _max_at(a: FinkElement, i: int) -> Optional[int]:
    return level_stats(a).max_level(i)


@dataclass(frozen=True)
class EquivRelSpec:
    """A decidable equivalence relation on windowed elements.

    Built-ins: equality, full, min_level:i, max_level:i, minmax_level:i,
    size_parity.  Table relations come from an edge list whose transitive
    closure is computed on load; elements the table never mentions form
    singleton classes, and pairs outside the table's window are rejected.
    """

    kind: str
    level: int = 0
    classes: Optional[dict[str, int]] = None
    window: Optional[Window] = None

    def holds(self, a: FinkElement, b: FinkElement) -> bool:
        if self.kind == "equality":
            return a == b
        if self.kind == "full":
            return True
        if self.kind == "min_level":
            return _min_at(a, self.level) == _min_at(b, self.level)
        if self.kind == "max_level":
            return _max_at(a, self.level) == _max_at(b, self.level)
        if self.kind == "minmax_level":
            return _min_at(a, self.level) == _min_at(b, self.level) and _max_at(
                a, self.level
            ) == _max_at(b, self.level)
        if self.kind == "size_parity":
            return len(a.support()) % 2 == len(b.support()) % 2
        if self.kind == "table":
            return self._class_of(a) == self._class_of(b)
        raise FinkError(f"unknown relation kind {self.kind!r}")

    def _class_of(self, a: FinkElement):
        if self.window is not None and not self.window.contains_element(a):
            raise FinkError(f"element {a} outside the relation's window")
        key = format_element(a)
        if key in self.classes:
            return self.classes[key]
        return key  # unmentioned elements sit in their own class

    def name(self, k: int) -> str:
        if self.kind == "equality":
            return "="
        if self.kind == "full":
            return "FIN^2"
        if self.kind == "size_parity":
            return "size_parity"
        if self.kind == "table":
            return "table"
        base = {"min_level": "min", "max_level": "max", "minmax_level": "(min,max)"}[
            self.kind
        ]
        return base if k == 1 else f"{base}_{self.level}"

    @staticmethod
    def from_pairs(pairs, k: int, window: Optional[Window] = None) -> "EquivRelSpec":
        """Build a table relation from (elementA, elementB) string edges."""
        parent: dict[str, str] = {}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for left, right in pairs:
            for text in (left, right):
                e = parse_element(text, k)
                if window is not None and not window.contains_element(e):
                    raise FinkError(f"table element {text!r} outside the window")
                key = format_element(e)
                parent.setdefault(key, key)
            la, rb = find(format_element(parse_element(left, k))), find(
                format_element(parse_element(right, k))
            )
            if la != rb:
                parent[la] = rb
        classes = {key: find(key) for key in parent}
        roots = sorted(set(classes.values()))
        renumber = {root: i for i, root in enumerate(roots)}
        return EquivRelSpec(
            "table",
            classes={key: renumber[root] for key, root in classes.items()},
            window=window,
        )


def parse_relation(text: str, k: int, window: Optional[Window] = None) -> EquivRelSpec:
    """Parse the CLI syntax: equality, full, min_level:1, max_level:1,
    minmax_level:1, size_parity, table:FILE (elementA<TAB>elementB lines)."""
    kind, _, param = text.partition(":")
    if kind in ("equality", "full", "size_parity"):
        return EquivRelSpec(kind)
    if kind in ("min_level", "max_level", "minmax_level"):
        level = int(param)
        if not 1 <= level <= k:
            raise FinkError(f"level {level} outside 1..{k}")
        return EquivRelSpec(kind, level=level)
    if kind == "table":
        pairs = [line.partition("\t")[::2] for line in read_lines(param)]
        return EquivRelSpec.from_pairs(pairs, k, window)
    raise FinkError(f"unknown relation {text!r}")


def relation_holds(R: EquivRelSpec, a: FinkElement, b: FinkElement) -> bool:
    return R.holds(a, b)


def restriction_equals(R: EquivRelSpec, S: EquivRelSpec, B: BlockSeq, w: Window) -> bool:
    """Do R and S agree on every pair from the span of B?"""
    span = span_enumerate(B, w)
    for a, b in itertools.combinations_with_replacement(span, 2):
        if R.holds(a, b) != S.holds(a, b):
            return False
    return True


def candidate_relations(k: int) -> list[tuple[str, EquivRelSpec]]:
    """The classifier's candidate list, in the order candidates are tried.

    For k = 1 this is the complete five-element canonical list; for k >= 2
    it is the min/max family plus the trivial relations, a proper subset of
    the full canonical list.
    """
    if k == 1:
        specs = [
            EquivRelSpec("min_level", level=1),
            EquivRelSpec("max_level", level=1),
            EquivRelSpec("minmax_level", level=1),
            EquivRelSpec("equality"),
            EquivRelSpec("full"),
        ]
    else:
        specs = (
            [EquivRelSpec("min_level", level=i) for i in range(1, k + 1)]
            + [EquivRelSpec("max_level", level=i) for i in range(1, k + 1)]
            + [EquivRelSpec("minmax_level", level=i) for i in range(1, k + 1)]
            + [EquivRelSpec("equality"), EquivRelSpec("full")]
        )
    return [(spec.name(k), spec) for spec in specs]


PARTIAL_LIST_CAVEAT = (
    "partial candidate list: the complete canonical family for k >= 2 "
    "is not enumerated here"
)


@dataclass(frozen=True)
class CanonicalizationResult:
    relation: str
    spec: EquivRelSpec
    witness: BlockSeq
    caveat: Optional[str]


def canonicalize_search(
    R: EquivRelSpec, A: BlockSeq, m: int, w: Window
) -> Optional[CanonicalizationResult]:
    """Find B <= A of length m on whose span R coincides with a candidate.

    B is scanned in span order (restricted to staircase elements when
    k >= 2); for each B the candidates are tried in list order and the first
    agreement wins.  None means the window admits no classification.
    """
    if not 1 <= m <= w.len_max:
        raise FinkError(f"target length {m} outside 1..{w.len_max}")
    k = A.k
    span = span_enumerate(A, w)
    if k >= 2:
        span = [x for x in span if sos_check(x).ok]
    cands = candidate_relations(k)
    caveat = PARTIAL_LIST_CAVEAT if k >= 2 else None
    empty = BlockSeq(k, ())

    for B in sequences_over(span, empty, m):
        for name, spec in cands:
            if restriction_equals(R, spec, B, w):
                return CanonicalizationResult(name, spec, B, caveat)
    return None


def t_count(k: int) -> int:
    """The size of the canonical list for level k, in exact integers.

    Uses k! * sum_{j<=k} 1/j! = sum_{j<=k} k!/j!, which is an integer, so no
    floating point enters.
    """
    if k < 1:
        raise FinkError(f"k must be >= 1, got {k}")

    def scaled_e(n: int) -> int:
        return sum(math.factorial(n) // math.factorial(j) for j in range(n + 1))

    ek, ek1 = scaled_e(k), scaled_e(k - 1)
    return ek * ek + k * (ek - ek1) ** 2
