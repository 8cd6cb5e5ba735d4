"""Coideal constructions at finite presentation.

The two generating schemes are the peak-set preimage (a block sequence
belongs when the set of positions where its terms attain k belongs to a
given family on the integers) and the two-sided closure of a finite list of
sequences (membership via a common condensation).  The diagonalization
builder reproduces the greedy construction used to show the closure
coideals are semiselective: pick one span element per step, each starting
past the previous one.
"""

from __future__ import annotations

from typing import Callable, Optional

from .core import (
    BlockSeq,
    FinkElement,
    FinkError,
    Window,
    WindowExhausted,
    _Record,
    decompose,
    leq,
    span_enumerate,
)


def mu(A: BlockSeq) -> set[int]:
    """Positions where some term of A attains k (terms only, not span sums)."""
    return {pos for x in A for pos in x.peaks()}


def common_condensation(
    A: BlockSeq, B: BlockSeq, L: int, w: Window
) -> Optional[BlockSeq]:
    """A length-L block sequence inside both spans, or None.

    Candidates are the span elements of B that decompose over A; the greedy
    chain keeps every earliest-ending eligible candidate, which maximizes
    chain length, so None really means the window admits no such sequence.
    """
    return first_common_condensation((A,), B, L, w)


def _greedy_chain(A: BlockSeq, span: list[FinkElement], L: int) -> Optional[BlockSeq]:
    """common_condensation of A with the B whose span is given."""
    shared = [x for x in span if decompose(x, A) is not None]
    shared.sort(key=lambda x: (x.max_supp, x.min_supp, x.values))
    picks: list[FinkElement] = []
    end = -1
    for x in shared:
        if x.min_supp > end:
            picks.append(x)
            end = x.max_supp
            if len(picks) == L:
                return BlockSeq(A.k, tuple(picks))
    return None


def first_common_condensation(base, B: BlockSeq, L: int, w: Window) -> Optional[BlockSeq]:
    """The common condensation of B with the first base sequence that has one.

    B's span is built once, and only when the base is nonempty.
    """
    w.require_length(L)
    span = None
    for A in base:
        if A.k != B.k:
            raise FinkError(f"level mismatch: {A.k} vs {B.k}")
        if span is None:
            span = span_enumerate(B, w)
        found = _greedy_chain(A, span, L)
        if found is not None:
            return found
    return None


class CoidealPresentation(_Record):
    """A finitely presented coideal of block sequences over a window.

    kind "all" is the trivial coideal; "top_of" closes a finite base family
    upward and downward at once (membership = a common condensation with
    some base sequence exists); "mu_over" tests the peak set against a
    predicate on sets of integers.
    """

    __slots__ = ("kind", "window", "base", "peak_pred")

    def __init__(
        self,
        kind: str,
        window: Window,
        base: tuple[BlockSeq, ...] = (),
        peak_pred: Optional[Callable[[set[int]], bool]] = None,
    ) -> None:
        _Record.__init__(self, kind, window, base, peak_pred)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.kind not in ("all", "top_of", "mu_over"):
            raise FinkError(f"unknown coideal kind {self.kind!r}")
        if self.kind == "mu_over" and self.peak_pred is None:
            raise FinkError("coideal kind 'mu_over' needs a peak predicate")

    def contains(self, A: BlockSeq, L: int = 1) -> bool:
        """Does A belong, with a witness of length L for "top_of"?  L must lie
        in 1..len_max for every kind."""
        self.window.require_length(L)
        if self.kind == "all":
            return True
        if self.kind == "top_of":
            return first_common_condensation(self.base, A, L, self.window) is not None
        return self.peak_pred(mu(A))  # mu_over


class RefineResult(_Record):
    __slots__ = ("side", "witness")

    def __init__(self, side: Optional[str], witness: Optional[BlockSeq]) -> None:
        _Record.__init__(self, side, witness)  # side: "left" | "right" | None when exhausted


def partition_refine(A: BlockSeq, mask, L: int, w: Window) -> RefineResult:
    """Split A by the mask and find a length-L condensation of one side.

    A subsequence is itself a condensation, so the longer side truncated
    works when it has at least L terms.  Otherwise no side has one: a block
    sequence over the span of a side has at most as many terms as the side.
    """
    w.require_length(L)
    mask = list(mask)
    if len(mask) != len(A):
        raise FinkError(f"mask length {len(mask)} differs from sequence length {len(A)}")
    left = BlockSeq(A.k, tuple(x for x, bit in zip(A, mask) if not bit))
    right = BlockSeq(A.k, tuple(x for x, bit in zip(A, mask) if bit))
    for side, part in (("left", left), ("right", right)):
        if len(part) >= L:
            return RefineResult(side, part.prefix(L))
    return RefineResult(None, None)


class DiagonalizationReport(_Record):
    __slots__ = ("ok", "violator")

    def __init__(self, ok: bool, violator: Optional[FinkElement]) -> None:
        _Record.__init__(self, ok, violator)  # violator: a span element b whose tail leaves the chain


def _validate_chain(chain) -> None:
    if not chain:
        raise FinkError("empty chain")
    for i in range(len(chain) - 1):
        if not leq(chain[i + 1], chain[i]):
            raise FinkError(f"chain not decreasing at index {i + 1}")


def _chain_at(chain, n: int) -> BlockSeq:
    # indices past the last entry default to the nearest earlier one
    return chain[min(n, len(chain) - 1)]


def diagonalizes_check(
    B: BlockSeq, chain: list[BlockSeq], w: Window
) -> DiagonalizationReport:
    """Does B diagonalize the decreasing chain?

    For every span element b with n = max(supp(b)), every term of B past
    position n must decompose over the chain entry at n.
    """
    _validate_chain(chain)
    for b in span_enumerate(B, w):
        n = b.max_supp
        An = _chain_at(chain, n)
        for x in B:
            if x.min_supp > n and decompose(x, An) is None:
                return DiagonalizationReport(False, b)
    return DiagonalizationReport(True, None)


def diagonal_build(chain: list[BlockSeq], w: Window) -> BlockSeq:
    """Greedy diagonal: one span element per step, each past the previous.

    Step n picks the first eligible element, in span order, of the span of
    the chain entry at max(n, end of the previous pick); on a constant chain
    that reproduces the chain's own terms.  Clamping the index keeps every
    later pick inside the spans the checker will ask about, so built
    diagonals always pass diagonalizes_check.  Raises WindowExhausted (with
    the partial result attached) when no pick exists before the window's
    length cap.
    """
    _validate_chain(chain)
    k = chain[0].k
    picks: list[FinkElement] = []
    end = -1
    entry, span = None, []
    for step in range(w.len_max):
        An = _chain_at(chain, max(step, end))
        # the index never falls, and the entries of a decreasing chain equal
        # to An are a run, so An's span is built once, when the run starts
        if An != entry:
            entry, span = An, span_enumerate(An, w)
        pick = None
        for x in span:
            if x.min_supp > end and x.min_supp >= step:
                pick = x
                break
        if pick is None:
            partial = BlockSeq(k, tuple(picks))
            raise WindowExhausted(f"no eligible pick at step {step}", partial, step)
        picks.append(pick)
        end = pick.max_supp
    return BlockSeq(k, tuple(picks))
