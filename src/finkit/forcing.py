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

from typing import Callable, Optional

from .core import (
    BlockSeq,
    FinkError,
    IncompatibleStem,
    Window,
    _Record,
    condensations,
    decompose,
    extension_tree,
    format_element,
    format_seq,
    parse_rule,
    parse_seq,
    read_lines,
    span_enumerate,
)


# per family kind, its parameter as parse_rule reads it
_FAMILY_KINDS = {"empty": None, "all_singletons": None, "min_even_first": None,
                 "support_ge": int, "explicit": str}


class FamilySpec(_Record):
    """A decidable family of finite block sequences; contains also takes the
    tuple of a sequence's elements.  Built-ins: ``empty`` (no members),
    ``all_singletons`` (every length-1 sequence), ``min_even_first``
    (nonempty, first element starts at an even position), ``support_ge:s``
    (nonempty, every element has support size at least s), ``explicit`` (a
    finite list given by canonical strings).
    """

    __slots__ = ("kind", "s", "members")

    def __init__(self, kind: str, s: Optional[int] = None, members: frozenset[str] = frozenset()) -> None:
        _Record.__init__(self, kind, s, members)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.kind not in _FAMILY_KINDS:
            raise FinkError(f"unknown family kind {self.kind!r}")
        if _FAMILY_KINDS[self.kind] is int and self.s is None:
            raise FinkError(f"family kind {self.kind!r} needs an integer parameter")

    def contains(self, b: BlockSeq) -> bool:
        elems = getattr(b, "elems", b)
        if self.kind == "empty":
            return False
        if self.kind == "all_singletons":
            return len(elems) == 1
        if self.kind == "min_even_first":
            return len(elems) >= 1 and elems[0].min_supp % 2 == 0
        if self.kind == "support_ge":
            return len(elems) >= 1 and all(len(x.values) >= self.s for x in elems)
        return ";".join(map(format_element, elems)) in self.members  # explicit

    @staticmethod
    def explicit(seqs) -> "FamilySpec":
        return FamilySpec("explicit", members=frozenset(format_seq(b) for b in seqs))


def parse_family(text: str, k: int) -> FamilySpec:
    """Parse the CLI syntax: empty, all_singletons, min_even_first,
    support_ge:2, explicit:FILE (one canonical sequence per line)."""
    kind, param = parse_rule("family", text, _FAMILY_KINDS)
    if kind == "explicit":
        return FamilySpec.explicit(parse_seq(line, k) for line in read_lines(param))
    return FamilySpec(kind, s=param)


class AcceptsResult(_Record):
    __slots__ = ("holds", "branch")

    def __init__(self, holds: bool, branch: Optional[BlockSeq]) -> None:
        _Record.__init__(self, holds, branch)  # branch: one avoiding the family, when false


class RejectsResult(_Record):
    __slots__ = ("holds", "condensation")

    def __init__(self, holds: bool, condensation: Optional[BlockSeq]) -> None:
        _Record.__init__(self, holds, condensation)  # condensation: an accepting one, when false


class ForcingVerdict(_Record):
    """accepts and rejects are mutually exclusive; undecided carries both
    failure witnesses (an avoiding branch and an accepting condensation)."""

    __slots__ = ("status", "branch", "condensation")

    def __init__(
        self,
        status: str,  # accepts | rejects | undecided
        branch: Optional[BlockSeq] = None,
        condensation: Optional[BlockSeq] = None,
    ) -> None:
        _Record.__init__(self, status, branch, condensation)


def _require_stem(B: BlockSeq, a: BlockSeq) -> None:
    if a.k != B.k:
        raise FinkError(f"level mismatch: stem k={a.k}, sequence k={B.k}")
    for x in a:
        if decompose(x, B) is None:
            raise IncompatibleStem(f"stem element {x} is not in the span of {B}")


def _stem_prefix_member(a: BlockSeq, F: FamilySpec) -> bool:
    """Does the stem or a prefix of it lie in the family?  One settles every
    branch at once; the tree walk checks only the nodes below the stem."""
    return any(F.contains(a.elems[:t]) for t in range(len(a) + 1))


def _walk(candidates: list, a: BlockSeq, F: FamilySpec, w: Window, seen: set):
    """The extension tree of a through the span-ordered candidates, cut below
    each family member: yields (branch, branch) per maximal branch avoiding
    the family, as element tuples, and adds True to seen per member it meets.
    Once seen holds False as well, every further child is cut."""

    def step(node, x):
        if len(seen) == 2:
            return None
        child = node + (x,)
        if F.contains(child):
            seen.add(True)
            return None
        return child

    return extension_tree(candidates, a, w.len_max, step, a.elems)


def _avoiding_branch(candidates: list, a: BlockSeq, F: FamilySpec, w: Window) -> Optional[BlockSeq]:
    """The first maximal branch extending a through the candidates that
    avoids the family, or None when every branch meets it."""
    if _stem_prefix_member(a, F):
        return None
    branch = next((node for node, _ in _walk(candidates, a, F, w, set())), None)
    return None if branch is None else BlockSeq(a.k, branch)


def _first_settled(span: list, a: BlockSeq, lengths, settle: Callable):
    """(B, verdict) for the first condensation B of A, of each length in
    turn, on which settle returns a true verdict; None if there is none.

    B runs over the condensation walk below A, whose span is span, and
    settle runs on each B as the walk yields it, B's span grown inside A's
    and never built.  It gets B's span sorted by where each element starts,
    grouped by first block as _walk needs: which nodes B's tree has, and so
    a verdict read off them, does not depend on the order of the walk."""
    for B, grown, _ in condensations(span, a.k, lengths):
        verdict = settle(sorted(grown.span(), key=lambda x: x.values[0][0]))
        if verdict:
            return BlockSeq(a.k, B), verdict
    return None


def accepts(B: BlockSeq, a: BlockSeq, F: FamilySpec, w: Window) -> AcceptsResult:
    """Does every maximal branch extending a through [B] meet the family?

    The stem must be empty or have all its elements in the span of B.  On
    failure the result carries one maximal branch avoiding the family.
    """
    _require_stem(B, a)
    branch = _avoiding_branch(span_enumerate(B, w), a, F, w)
    return AcceptsResult(branch is None, branch)


def _accepting_condensation(span: list, a: BlockSeq, F: FamilySpec, w: Window, min_len: int):
    """The first condensation of B, min_len or more long and shortest first,
    whose span holds the stem and accepts it, or None; span is B's span.
    Acceptance is not hereditary in a window, so every length is tried."""

    def settle(span_b):
        held = {x.values for x in span_b}
        return all(x.values in held for x in a) and _avoiding_branch(span_b, a, F, w) is None

    hit = _first_settled(span, a, range(min_len, w.len_max + 1), settle)
    return hit[0] if hit else None


def rejects(
    B: BlockSeq,
    a: BlockSeq,
    F: FamilySpec,
    w: Window,
    min_len: int = 1,
) -> RejectsResult:
    """Does no windowed condensation of B (compatible with a) accept a?

    Condensations shorter than min_len (1 <= min_len <= len_max) are not
    tried.  On failure the result carries the first accepting condensation.
    """
    _require_stem(B, a)
    w.require_length(min_len, "condensation length floor")
    B2 = _accepting_condensation(span_enumerate(B, w), a, F, w, min_len)
    return RejectsResult(B2 is None, B2)


def decides(
    B: BlockSeq,
    a: BlockSeq,
    F: FamilySpec,
    w: Window,
    min_len: int = 1,
) -> ForcingVerdict:
    """Run accepts, then rejects, on one span of B; report the first that
    holds, else undecided."""
    w.require_length(min_len, "condensation length floor")
    _require_stem(B, a)
    span = span_enumerate(B, w)
    branch = _avoiding_branch(span, a, F, w)
    if branch is None:
        return ForcingVerdict("accepts")
    B2 = _accepting_condensation(span, a, F, w, min_len)
    return ForcingVerdict("rejects" if B2 is None else "undecided", branch, B2)


class DichotomyResult(_Record):
    __slots__ = ("alternative", "witness")

    def __init__(self, alternative: Optional[int], witness: Optional[BlockSeq]) -> None:
        _Record.__init__(self, alternative, witness)  # alternative: 1, 2, or None when exhausted


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
    neither for any B, the result reports exhaustion.  B's extension tree
    is walked once, up to the first node that rules out each alternative:
    a member rules out 1 (a stem prefix in the family counts), a maximal
    branch avoiding the family rules out 2.
    """
    w.require_length(m)
    if a.k != A.k:
        raise FinkError(f"level mismatch: stem k={a.k}, sequence k={A.k}")
    prefix_member = _stem_prefix_member(a, F)

    def settle(span_b):
        if prefix_member:
            return 2
        seen = set()  # True: a member, False: a maximal branch avoiding F
        for _ in _walk(span_b, a, F, w, seen):
            seen.add(False)
        return None if len(seen) == 2 else 2 if True in seen else 1

    B, alternative = _first_settled(span_enumerate(A, w), a, (m,), settle) or (None, None)
    return DichotomyResult(alternative, B)


class OpenSetResult(_Record):
    __slots__ = ("side", "witness")

    def __init__(self, side: Optional[str], witness: Optional[BlockSeq]) -> None:
        _Record.__init__(self, side, witness)  # side: "inside" | "outside" | None when exhausted


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
