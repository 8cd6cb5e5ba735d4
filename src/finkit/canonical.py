"""Level statistics, staircase systems, and canonical equivalence relations.

At k = 1 every equivalence relation on nonempty finite sets, restricted to a
suitable span, coincides with one of five relations: min, max, (min,max),
equality, or the full relation.  The count of canonical relations for
general k has the closed form computed by t_count.  For k >= 2 only the
analogous min/max family is implemented; the classifier labels its output
with a caveat because the complete list is longer.
"""

from __future__ import annotations

from typing import Optional

from .core import (
    BlockSeq,
    FinkElement,
    FinkError,
    Window,
    _Record,
    check_rule,
    condensations,
    format_element,
    parse_element,
    parse_rule,
    read_table,
    span_enumerate,
)

ZERO_CONVENTIONS = ("support-boundary", "first-zero")


class LevelStats(_Record):
    """First and last position of each value level 1..k, None when missing."""

    __slots__ = ("k", "mins", "maxs")

    def __init__(self, k: int, mins: tuple[Optional[int], ...], maxs: tuple[Optional[int], ...]) -> None:
        _Record.__init__(self, k, mins, maxs)

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


def _first_at(pairs, level: int) -> Optional[int]:
    """The first position among (position, value) pairs with the given value, None if none."""
    return next((pos for pos, val in pairs if val == level), None)


class SosResult(_Record):
    __slots__ = ("ok", "violated")

    def __init__(self, ok: bool, violated: Optional[str]) -> None:
        _Record.__init__(self, ok, violated)  # violated: the first failed clause


# sos_check's four answers: one record each, not one per call
_SOS_OK, _SOS_RANGE, _SOS_NESTING, _SOS_CLIMB = (
    SosResult(True, None), SosResult(False, "range"), SosResult(False, "nesting"),
    SosResult(False, "climb:1"))


def sos_check(a: FinkElement, zero_convention: str = "support-boundary") -> SosResult:
    """Is a a staircase system: nested level landmarks, plus climb:1 under
    "first-zero"?  Not one rise and fall: 0:1,1:2,2:1,3:3,4:2,5:1 passes.

    Checks, in order: (range) every level 1..k is attained; (nesting) the
    level landmarks nest, min_i < min_j <= max_j < max_i for i < j; (climb:1)
    from the level-0 landmark to min_1 no value exceeds 1.  The level-0
    landmarks are the support boundary by default, or the first and last
    zero up to just past the support under the "first-zero" convention.

    The staircase definition also bounds the later bands: no value above i
    between min_{i-1} and min_i (climb:i) or between max_i and max_{i-1}
    (descent:i), and k attained on min_k..max_k (core).  Nesting implies
    them: a value above i before min_i, or after max_i, would be a level-j
    landmark (j > i) outside level i's, and min_k holds k.  For the same
    reason a level-0 band can fail only inside min_1..max_1, where only
    climb:1 under "first-zero" reaches, when the first zero follows min_1.
    Every position in between is in the support, so climb:1 then fails
    exactly when min_2 precedes that zero.
    """
    if zero_convention not in ZERO_CONVENTIONS:
        raise FinkError(f"unknown zero convention {zero_convention!r}")
    # level_stats' landmarks, read inline and indexed by level; the k >= 2
    # classify calls this once per element of its span
    k = a.k
    mins: list[Optional[int]] = [None] * (k + 1)
    maxs: list[Optional[int]] = [None] * (k + 1)
    for pos, val in a.values:
        if mins[val] is None:
            mins[val] = pos
        maxs[val] = pos
    if None in mins[1:]:
        return _SOS_RANGE
    # consecutive levels nest exactly when every pair of levels does
    for i in range(1, k):
        if mins[i] >= mins[i + 1] or maxs[i + 1] >= maxs[i]:
            return _SOS_NESTING
    if zero_convention == "first-zero" and k >= 2:
        # positions strictly increase from 0, so the first zero is the first
        # index whose position runs ahead of it
        first_zero = next((i for i, (pos, _) in enumerate(a.values) if pos != i), len(a.values))
        if first_zero > mins[2]:
            return _SOS_CLIMB
    return _SOS_OK


# the relation kinds table: per kind, its name and its param as core.check_rule
# reads it; a level kind's name at k >= 2 adds the level
_LEVEL = (int, "a level")
_RELATION_KINDS = {"equality": ("=", None), "full": ("FIN^2", None),
                   "size_parity": ("size_parity", None), "table": ("table", (str, "its classes")),
                   "min_level": ("min", _LEVEL), "max_level": ("max", _LEVEL),
                   "minmax_level": ("(min,max)", _LEVEL)}
_RELATION_PARAMS = {kind: param for kind, (_, param) in _RELATION_KINDS.items()}


def _require_level(level: int, k: int) -> None:
    """The level check of parse_relation, which the searches repeat on a built spec."""
    if not 1 <= level <= k:
        raise FinkError(f"level {level} outside 1..{k}")


class EquivRelSpec(_Record):
    """A decidable equivalence relation on windowed elements.

    Built-ins: equality, full, min_level:i, max_level:i, minmax_level:i
    (param the level i), size_parity.  Table relations come from an edge
    list whose transitive closure is computed on load (param the classes:
    each mentioned element's text to its class's root text); elements the
    table never mentions form singleton classes, and elements outside the
    table's window are rejected.  Every relation is given by its key
    function: a R b iff key(a) == key(b).
    """

    __slots__ = ("kind", "param", "window")

    def __init__(self, kind: str, param=None, window: Optional[Window] = None) -> None:
        _Record.__init__(self, kind, param, window)
        self.__post_init__()

    def __post_init__(self) -> None:
        check_rule("relation", self.kind, self.param, _RELATION_PARAMS)
        if self.kind.endswith("_level") and self.param < 1:
            raise FinkError(f"relation kind {self.kind!r} needs a level >= 1, got {self.param}")

    def key(self, a: FinkElement):
        """The class of a: two elements are related exactly when their keys are equal."""
        if self.kind == "equality":
            return a.values
        if self.kind == "full":
            return 0
        if self.kind == "size_parity":
            return len(a.values) % 2
        if self.kind == "min_level":
            return _first_at(a.values, self.param)
        if self.kind == "max_level":
            return _first_at(reversed(a.values), self.param)
        if self.kind == "minmax_level":
            return _first_at(a.values, self.param), _first_at(reversed(a.values), self.param)
        if self.window is not None and not self.window.contains_element(a):  # table
            raise FinkError(f"element {a} outside the relation's window")
        text = format_element(a)
        return self.param.get(text, text)  # unmentioned: a class of its own

    def holds(self, a: FinkElement, b: FinkElement) -> bool:
        return self.key(a) == self.key(b)

    def name(self, k: int) -> str:
        base = _RELATION_KINDS[self.kind][0]
        return f"{base}_{self.param}" if k > 1 and self.kind.endswith("_level") else base

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
            keys = []
            for text in (left, right):
                e = parse_element(text, k)
                if window is not None and not window.contains_element(e):
                    raise FinkError(f"table element {text!r} outside the window")
                keys.append(format_element(e))
                parent.setdefault(keys[-1], keys[-1])
            la, rb = find(keys[0]), find(keys[1])
            if la != rb:
                parent[la] = rb
        # every root is a mentioned element, so no unmentioned text equals one
        return EquivRelSpec("table", {key: find(key) for key in parent}, window)


def parse_relation(text: str, k: int, window: Optional[Window] = None) -> EquivRelSpec:
    """Parse the CLI syntax: equality, full, min_level:1, max_level:1,
    minmax_level:1, size_parity, table:FILE (elementA<TAB>elementB lines)."""
    kind, param = parse_rule("relation", text, _RELATION_PARAMS)
    if kind == "table":
        return EquivRelSpec.from_pairs(read_table(param, "relation", "ELEMENT<TAB>ELEMENT"), k, window)
    if param is not None:
        _require_level(param, k)
    return EquivRelSpec(kind, param)


def _same_partition(r_keys: list, s_keys: list) -> bool:
    """Do two key lists over the same elements split them alike?  Exactly when
    each key determines the other: as many distinct pairs as keys on either side."""
    return len(set(r_keys)) == len(set(zip(r_keys, s_keys))) == len(set(s_keys))


def restriction_equals(R: EquivRelSpec, S: EquivRelSpec, B: BlockSeq, w: Window) -> bool:
    """Do R and S agree on every pair from the span of B?"""
    for spec in (R, S):
        if spec.kind.endswith("_level"):
            _require_level(spec.param, B.k)
    span = span_enumerate(B, w)
    return _same_partition([R.key(x) for x in span], [S.key(x) for x in span])


def candidate_relations(k: int) -> list[tuple[str, EquivRelSpec]]:
    """The classifier's candidate list, in the order candidates are tried.

    For k = 1 this is the complete five-element canonical list; for k >= 2
    it is the min/max family plus the trivial relations, a proper subset of
    the full canonical list.
    """
    specs = [
        EquivRelSpec(kind, i)
        for kind in ("min_level", "max_level", "minmax_level")
        for i in range(1, k + 1)
    ] + [EquivRelSpec("equality"), EquivRelSpec("full")]
    return [(spec.name(k), spec) for spec in specs]


PARTIAL_LIST_CAVEAT = (
    "partial candidate list: the complete canonical family for k >= 2 "
    "is not enumerated here"
)


class CanonicalizationResult(_Record):
    __slots__ = ("relation", "spec", "witness", "caveat")

    def __init__(self, relation: str, spec: EquivRelSpec, witness: BlockSeq, caveat: Optional[str]) -> None:
        _Record.__init__(self, relation, spec, witness, caveat)


def canonicalize_search(
    R: EquivRelSpec, A: BlockSeq, m: int, w: Window
) -> Optional[CanonicalizationResult]:
    """Find B <= A of length m on whose span R coincides with a candidate.

    B is scanned in span order (restricted to staircase elements when
    k >= 2); for each B the candidates are tried in list order and the first
    agreement wins.  R's and every candidate's keys are computed at most once
    per element of A's span.  The span of B is grown pick by pick inside A's
    span, and a prefix is pruned once every candidate disagrees with R on
    its span, which lies inside the span of each B through it.  A table
    relation whose window does not hold A is refused before the scan.  None
    means the window admits no classification.
    """
    w.require_length(m)
    if R.kind.endswith("_level"):
        _require_level(R.param, A.k)
    if R.window is not None and A.max_supp >= R.window.n_max:
        raise FinkError(f"ambient {A} has support past the relation's window n_max={R.window.n_max}")
    k = A.k
    span = span_enumerate(A, w)
    cands = candidate_relations(k)
    picks = [x for x in span if sos_check(x).ok] if k >= 2 else span
    caveat = PARTIAL_LIST_CAVEAT if k >= 2 else None
    # per element of A's span reached, R's key and then each candidate's; by
    # id, since span holds every element for the whole search
    keys: dict = {}

    def keys_of(x) -> tuple:
        t = keys.get(id(x))
        if t is None:
            t = keys[id(x)] = (R.key(x), *(spec.key(x) for _, spec in cands))
        return t

    def step(node, pick):
        grown, alive = node
        grown, _ = grown.extend(pick)
        columns = list(zip(*map(keys_of, grown.span())))  # per relation, its keys
        alive = [j for j in alive if _same_partition(columns[0], columns[j])]
        return (grown, alive) if alive else None

    root = list(range(1, len(cands) + 1))
    for B, _, alive in condensations(span, k, (m,), step, root, picks):
        name, spec = cands[alive[0] - 1]
        return CanonicalizationResult(name, spec, BlockSeq(k, B), caveat)
    return None


def t_count(k: int) -> int:
    """The size of the canonical list for level k, in exact integers.

    Uses e(n) = n! * sum_{j<=n} 1/j! = sum_{j<=n} n!/j!, an integer with
    e(0) = 1 and e(n) = n * e(n-1) + 1, so no floating point enters.
    """
    if k < 1:
        raise FinkError(f"k must be >= 1, got {k}")
    ek1 = 1
    for i in range(1, k):
        ek1 = ek1 * i + 1
    ek = ek1 * k + 1
    return ek * ek + k * (ek - ek1) ** 2
