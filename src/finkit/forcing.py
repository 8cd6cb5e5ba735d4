"""Combinatorial forcing against a family of finite block sequences.

A condensation B accepts a stem a when every maximal branch extending a
through the span of B picks up an initial segment lying in the family; it
rejects a when no windowed condensation of B accepts a.  The dichotomy
search returns, below a given sequence, either a condensation whose
extension tree misses the family entirely or one all of whose branches meet
it.  Branches live inside a declared window: "maximal" means extendable by
no further window element, so an undecided verdict is attributable to the
window, not to the infinite notions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    BlockSeq,
    FinkError,
    IncompatibleStem,
    Window,
    decompose,
    format_seq,
    parse_seq,
    read_lines,
    sequences_over,
    span_enumerate,
)


@dataclass(frozen=True)
class FamilySpec:
    """A decidable family of finite block sequences.

    Built-ins: ``empty`` (no members), ``all_singletons`` (every length-1
    sequence), ``min_even_first`` (nonempty, first element starts at an even
    position), ``support_ge:s`` (nonempty, every element has support size at
    least s), ``explicit`` (a finite list given by canonical strings).
    """

    kind: str
    s: int = 0
    members: frozenset[str] = frozenset()

    def contains(self, b: BlockSeq) -> bool:
        if self.kind == "empty":
            return False
        if self.kind == "all_singletons":
            return len(b) == 1
        if self.kind == "min_even_first":
            return len(b) >= 1 and b.elems[0].min_supp % 2 == 0
        if self.kind == "support_ge":
            return len(b) >= 1 and all(len(x.support()) >= self.s for x in b)
        if self.kind == "explicit":
            return format_seq(b) in self.members
        raise FinkError(f"unknown family kind {self.kind!r}")

    @staticmethod
    def explicit(seqs) -> "FamilySpec":
        return FamilySpec("explicit", members=frozenset(format_seq(b) for b in seqs))


def parse_family(text: str, k: int) -> FamilySpec:
    """Parse the CLI syntax: empty, all_singletons, min_even_first,
    support_ge:2, explicit:FILE (one canonical sequence per line)."""
    kind, _, param = text.partition(":")
    if kind in ("empty", "all_singletons", "min_even_first"):
        return FamilySpec(kind)
    if kind == "support_ge":
        return FamilySpec("support_ge", s=int(param))
    if kind == "explicit":
        return FamilySpec.explicit(parse_seq(line, k) for line in read_lines(param))
    raise FinkError(f"unknown family {text!r}")


@dataclass(frozen=True)
class AcceptsResult:
    holds: bool
    branch: Optional[BlockSeq]  # a maximal branch avoiding the family, when false


@dataclass(frozen=True)
class RejectsResult:
    holds: bool
    condensation: Optional[BlockSeq]  # an accepting condensation, when false


@dataclass(frozen=True)
class ForcingVerdict:
    """accepts and rejects are mutually exclusive; undecided carries both
    failure witnesses (an avoiding branch and an accepting condensation)."""

    status: str  # accepts | rejects | undecided
    branch: Optional[BlockSeq] = None
    condensation: Optional[BlockSeq] = None


def _require_stem(B: BlockSeq, a: BlockSeq) -> None:
    if a.k != B.k:
        raise FinkError(f"level mismatch: stem k={a.k}, sequence k={B.k}")
    for x in a:
        if decompose(x, B) is None:
            raise IncompatibleStem(f"stem element {x} is not in the span of {B}")


def _accepts(B: BlockSeq, a: BlockSeq, F: FamilySpec, w: Window) -> AcceptsResult:
    # A prefix of the stem in the family settles every branch at once.
    for t in range(len(a) + 1):
        if F.contains(a.prefix(t)):
            return AcceptsResult(True, None)
    candidates = span_enumerate(B, w)

    def walk(node: BlockSeq) -> Optional[BlockSeq]:
        extended = False
        if len(node) < w.len_max:
            floor = node.max_supp
            for c in candidates:
                if c.min_supp <= floor:
                    continue
                extended = True
                child = node.extend(c)
                if F.contains(child):
                    continue  # every branch through child is already met
                bad = walk(child)
                if bad is not None:
                    return bad
        return None if extended else node

    bad = walk(a)
    return AcceptsResult(bad is None, bad)


def accepts(B: BlockSeq, a: BlockSeq, F: FamilySpec, w: Window) -> AcceptsResult:
    """Does every maximal branch extending a through [B] meet the family?

    The stem must be empty or have all its elements in the span of B.  On
    failure the result carries one maximal branch avoiding the family.
    """
    if len(a):
        _require_stem(B, a)
    return _accepts(B, a, F, w)


def condensations(B: BlockSeq, w: Window, min_len: int = 1):
    """All block sequences over [B] inside the window, shortest first, then
    lexicographic in span order."""
    candidates = span_enumerate(B, w)
    empty = BlockSeq(B.k, ())
    for L in range(min_len, w.len_max + 1):
        yield from sequences_over(candidates, empty, L)


def rejects(
    B: BlockSeq,
    a: BlockSeq,
    F: FamilySpec,
    w: Window,
    min_len: int = 1,
) -> RejectsResult:
    """Does no windowed condensation of B (compatible with a) accept a?

    On failure the result carries the first accepting condensation.
    """
    if len(a):
        _require_stem(B, a)

    for B2 in condensations(B, w, min_len):
        if len(a) and any(decompose(x, B2) is None for x in a):
            continue
        if _accepts(B2, a, F, w).holds:
            return RejectsResult(False, B2)
    return RejectsResult(True, None)


def decides(
    B: BlockSeq,
    a: BlockSeq,
    F: FamilySpec,
    w: Window,
    min_len: int = 1,
) -> ForcingVerdict:
    """Run accepts, then rejects; report the first that holds, else undecided."""
    acc = accepts(B, a, F, w)
    if acc.holds:
        return ForcingVerdict("accepts")
    rej = rejects(B, a, F, w, min_len)
    if rej.holds:
        return ForcingVerdict("rejects", branch=acc.branch)
    return ForcingVerdict("undecided", branch=acc.branch, condensation=rej.condensation)


def _avoids_family(B: BlockSeq, a: BlockSeq, F: FamilySpec, w: Window) -> bool:
    """No windowed block sequence extending a through [B] (nor any prefix of
    a) lies in the family."""
    for t in range(len(a) + 1):
        if F.contains(a.prefix(t)):
            return False
    candidates = span_enumerate(B, w)
    stack = [a]
    while stack:
        node = stack.pop()
        if len(node) >= w.len_max:
            continue
        floor = node.max_supp
        for c in candidates:
            if c.min_supp <= floor:
                continue
            child = node.extend(c)
            if F.contains(child):
                return False
            stack.append(child)
    return True


@dataclass(frozen=True)
class DichotomyResult:
    alternative: Optional[int]  # 1, 2, or None when the window is exhausted
    witness: Optional[BlockSeq]


def galvin_dichotomy(
    A: BlockSeq,
    a: BlockSeq,
    F: FamilySpec,
    m: int,
    w: Window,
) -> DichotomyResult:
    """Search length-m condensations B <= A for one of two certificates.

    Alternative 1: no block sequence extending a over [B] lies in the
    family.  Alternative 2: every maximal branch of the extension tree meets
    it.  The first certificate found (scanning condensations in span order,
    alternative 1 checked first) is returned; if the window verifies
    neither for any B, the result reports exhaustion.
    """
    if not 1 <= m <= w.len_max:
        raise FinkError(f"target length {m} outside 1..{w.len_max}")
    if a.k != A.k:
        raise FinkError(f"level mismatch: stem k={a.k}, sequence k={A.k}")
    span = span_enumerate(A, w)
    empty = BlockSeq(A.k, ())

    for B in sequences_over(span, empty, m):
        if _avoids_family(B, a, F, w):
            return DichotomyResult(1, B)
        if _accepts(B, a, F, w).holds:
            return DichotomyResult(2, B)
    return DichotomyResult(None, None)


@dataclass(frozen=True)
class OpenSetResult:
    side: Optional[str]  # "inside" | "outside" | None when exhausted
    witness: Optional[BlockSeq]


def open_set_ramsey(F: FamilySpec, A: BlockSeq, m: int, w: Window) -> OpenSetResult:
    """Decide a basic open set against the cone below A.

    The family generates the open set of all sequences having a member as an
    initial segment.  Alternative 1 of the dichotomy puts the cone of the
    witness outside the set, alternative 2 puts it inside.
    """
    res = galvin_dichotomy(A, BlockSeq(A.k, ()), F, m, w)
    if res.alternative is None:
        return OpenSetResult(None, None)
    return OpenSetResult("outside" if res.alternative == 1 else "inside", res.witness)
