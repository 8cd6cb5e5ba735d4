"""Exact algebra of FIN_k elements and block sequences.

FIN_k is the set of finitely supported functions from the nonnegative
integers into {0, 1, ..., k} that attain the value k somewhere.  An element
is stored sparsely as a sorted tuple of (position, value) pairs; the value 0
is never stored.  A block sequence is a finite tuple of elements whose
supports are strictly separated: each element ends before the next begins.

Everything here is an immutable value and every operation is pure.

Canonical text grammar::

    element   0:2,3:1          sorted "pos:val" pairs, no whitespace
    sequence  0:2,3:1;5:2      elements joined by ';', empty string = empty

The JSON mirror uses ``[[pos, val], ...]`` for an element and a list of
elements for a sequence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional


class FinkError(Exception):
    """Base error for this package."""


class InvalidElement(FinkError):
    pass


class InvalidSequence(FinkError):
    pass


class ParseError(FinkError):
    pass


class IncompatibleStem(FinkError):
    """Stem sequence is not compatible with the ambient block sequence."""


class BudgetExceeded(FinkError):
    """An exhaustive enumeration would exceed the configured budget."""


class WindowExhausted(FinkError):
    """A construction ran out of room inside the finite window."""


@dataclass(frozen=True)
class FinkElement:
    """A member of FIN_k: values sorted by position, all in 1..k, k attained."""

    k: int
    values: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InvalidElement(f"level bound must be >= 1, got {self.k}")
        if not self.values:
            raise InvalidElement("element must have nonempty support")
        last = -1
        attained = False
        for pos, val in self.values:
            if pos <= last:
                raise InvalidElement(f"positions not strictly increasing at {pos}")
            if pos < 0:
                raise InvalidElement(f"negative position {pos}")
            if not 1 <= val <= self.k:
                raise InvalidElement(f"value {val} at position {pos} outside 1..{self.k}")
            attained = attained or val == self.k
            last = pos
        if not attained:
            raise InvalidElement(f"k not attained: no value equals {self.k}")

    def support(self) -> tuple[int, ...]:
        return tuple(pos for pos, _ in self.values)

    @property
    def min_supp(self) -> int:
        return self.values[0][0]

    @property
    def max_supp(self) -> int:
        return self.values[-1][0]

    def value_at(self, n: int) -> int:
        for pos, val in self.values:
            if pos == n:
                return val
        return 0

    def peaks(self) -> tuple[int, ...]:
        """Positions where the value k is attained."""
        return tuple(pos for pos, val in self.values if val == self.k)

    def __str__(self) -> str:
        return format_element(self)


@dataclass(frozen=True)
class BlockSeq:
    """A finite block sequence: supports strictly separated, shared level k."""

    k: int
    elems: tuple[FinkElement, ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InvalidSequence(f"level bound must be >= 1, got {self.k}")
        prev_end = -1
        for x in self.elems:
            if x.k != self.k:
                raise InvalidSequence(f"element level {x.k} differs from sequence level {self.k}")
            if x.min_supp <= prev_end:
                raise InvalidSequence(
                    f"supports not separated: {x} starts at {x.min_supp}, "
                    f"previous ends at {prev_end}"
                )
            prev_end = x.max_supp

    def __len__(self) -> int:
        return len(self.elems)

    def __iter__(self) -> Iterator[FinkElement]:
        return iter(self.elems)

    @property
    def max_supp(self) -> int:
        """Largest support position, -1 for the empty sequence."""
        return self.elems[-1].max_supp if self.elems else -1

    def support(self) -> tuple[int, ...]:
        return tuple(pos for x in self.elems for pos in x.support())

    def prefix(self, n: int) -> "BlockSeq":
        return BlockSeq(self.k, self.elems[:n])

    def extend(self, x: FinkElement) -> "BlockSeq":
        return BlockSeq(self.k, self.elems + (x,))

    def __str__(self) -> str:
        return format_seq(self)


@dataclass(frozen=True)
class Window:
    """Finite truncation: positions in [0, n_max), sequence lengths <= len_max."""

    k: int
    n_max: int
    len_max: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.n_max < 1 or self.len_max < 1:
            raise FinkError(f"window parameters must be >= 1, got {self}")

    def contains_element(self, x: FinkElement) -> bool:
        return x.max_supp < self.n_max

    def contains_seq(self, a: BlockSeq) -> bool:
        return len(a) <= self.len_max and all(self.contains_element(x) for x in a)

    def require_inside(self, a: BlockSeq, what: str = "sequence") -> None:
        """Supports must fit; len_max caps constructed sequences, not inputs."""
        for x in a:
            if not self.contains_element(x):
                raise FinkError(
                    f"{what} {a!s} has support past window n_max={self.n_max}"
                )


@dataclass(frozen=True)
class Decomposition:
    """How an element arises from generators: (generator index, tetris exponent) pairs."""

    parts: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        last = -1
        for idx, exp in self.parts:
            if idx <= last:
                raise FinkError("generator indices must be strictly increasing")
            if exp < 0:
                raise FinkError("tetris exponents must be nonnegative")
            last = idx
        if self.parts and all(exp != 0 for _, exp in self.parts):
            raise FinkError("some tetris exponent must be 0")


def validate_element(raw, k: int) -> FinkElement:
    """Canonicalize raw (position, value) pairs into a FinkElement.

    Pairs may arrive unsorted; duplicates, values outside 1..k and a missing
    peak value k are rejected.
    """
    pairs = sorted((int(p), int(v)) for p, v in raw)
    seen = set()
    for pos, _ in pairs:
        if pos in seen:
            raise InvalidElement(f"duplicate position {pos}")
        seen.add(pos)
    return FinkElement(k, tuple(pairs))


def tetris(p: FinkElement, j: int = 1) -> Optional[FinkElement]:
    """Pointwise max(p(n) - j, 0).  Returns None when everything vanishes.

    For j < k the result lives at level k - j (which it attains, since p
    attains k).
    """
    if j < 0:
        raise FinkError(f"tetris exponent must be >= 0, got {j}")
    if j == 0:
        return p
    if j >= p.k:
        return None
    vals = tuple((pos, val - j) for pos, val in p.values if val > j)
    return FinkElement(p.k - j, vals)


def block_sum(xs, k: Optional[int] = None) -> FinkElement:
    """Pointwise sum of elements with pairwise disjoint supports.

    The result lives at level k (largest summand level when omitted) and must
    attain it; overlapping supports are rejected.
    """
    xs = list(xs)
    if not xs:
        raise InvalidElement("empty sum")
    if k is None:
        k = max(x.k for x in xs)
    merged: dict[int, int] = {}
    for x in xs:
        for pos, val in x.values:
            if pos in merged:
                raise InvalidElement(f"overlapping supports at position {pos}")
            merged[pos] = val
    return validate_element(merged.items(), k)


def generators(k: int, n: int) -> BlockSeq:
    """The first n unit generators: value k at position i, zero elsewhere."""
    return BlockSeq(k, tuple(FinkElement(k, ((i, k),)) for i in range(n)))


def _tetris_images(x: FinkElement) -> list[tuple[tuple[int, int], ...]]:
    """The values of T^0(x), ..., T^(k-1)(x): the images a span may use."""
    return [tetris(x, j).values for j in range(x.k)]


def _join(sums: list, images: list) -> list:
    """Partial block sums extended by one more block, given its tetris images.

    A sum is (values, has a zero exponent); the block starts after every
    position in sums, so joining keeps positions sorted.  Sums come outermost
    and the exponent innermost: extending sums listed in exponent-vector
    order keeps that order.
    """
    return [
        (values + image, zero or j == 0)
        for values, zero in sums
        for j, image in enumerate(images)
    ]


class SpanState:
    """The span of a block sequence grown one block at a time.

    Holds every partial sum over the blocks so far, the empty one included;
    sums with a zero exponent are span elements, the rest may still become
    one when a later block joins with exponent 0.
    """

    __slots__ = ("k", "sums")

    def __init__(self, k: int, sums: tuple = (((), False),)):
        self.k = k
        self.sums = sums

    def extend(self, block: FinkElement) -> tuple["SpanState", list[FinkElement]]:
        """The state with block appended, and the span elements it adds."""
        sums = _join(self.sums, _tetris_images(block))
        fresh = [FinkElement(self.k, values) for values, zero in sums if zero]
        return SpanState(self.k, self.sums + tuple(sums)), fresh


def span_enumerate(A: BlockSeq, w: Window) -> list[FinkElement]:
    """The span [A]: every block sum of tetris images with some exponent 0.

    Deterministic order: lexicographic on (generator index set, exponent
    vector), where index sets are nonempty increasing subsets of range(len(A))
    and exponents run over 0..k-1 (the exponent k would contribute the zero
    function and break decomposition uniqueness).  Distinct selections always
    yield distinct elements, so the result is duplicate free.

    Built in one depth-first pass over the index sets, which visits them in
    exactly that order.  The tetris images of each block are computed once;
    an index set's sums are its parent's sums joined with every image of the
    newly added block.  Supports are separated, so joining keeps positions
    sorted, and every element is still checked by the FinkElement constructor.
    """
    w.require_inside(A, "block sequence")
    k = A.k
    images = [_tetris_images(x) for x in A.elems]
    out: list[FinkElement] = []

    def walk(prefix: list, start: int) -> None:
        for i in range(start, len(images)):
            sums = _join(prefix, images[i])
            out.extend(FinkElement(k, values) for values, zero in sums if zero)
            walk(sums, i + 1)

    walk([((), False)], 0)
    return out


def decompose(x: FinkElement, A: BlockSeq) -> Optional[Decomposition]:
    """The unique way x arises from A's generators, or None if x is not in [A].

    For each generator meeting supp(x) the exponent is forced by the
    generator's peak; the supports of the selected generators must cover
    supp(x) and some exponent must be 0.
    """
    if x.k != A.k:
        raise FinkError(f"level mismatch: element k={x.k}, sequence k={A.k}")
    k = A.k
    parts = []
    covered: set[int] = set()
    xsupp = set(x.support())
    for i, gen in enumerate(A.elems):
        if xsupp.isdisjoint(gen.support()):
            continue
        peak = gen.peaks()[0]
        j = k - x.value_at(peak)
        if not 0 <= j <= k - 1:
            return None
        for pos, val in gen.values:
            if x.value_at(pos) != max(val - j, 0):
                return None
        parts.append((i, j))
        covered.update(gen.support())
    if not parts or not xsupp <= covered:
        return None
    if all(j != 0 for _, j in parts):
        return None
    return Decomposition(tuple(parts))


def recompose(d: Decomposition, A: BlockSeq) -> FinkElement:
    """Rebuild the element a decomposition describes."""
    return block_sum([tetris(A.elems[i], j) for i, j in d.parts], A.k)


def leq(A: BlockSeq, B: BlockSeq) -> bool:
    """The condensation order: every element of A lies in the span of B."""
    if A.k != B.k:
        raise FinkError(f"level mismatch: {A.k} vs {B.k}")
    return all(decompose(x, B) is not None for x in A)


def sequences_over(candidates: list[FinkElement], stem: BlockSeq, n: int):
    """DFS over block-ordered picks from candidates, extending stem to length n.

    Candidates are tried in list order at every level, so the output is
    lexicographic with respect to that order.
    """
    if len(stem) == n:
        yield stem
        return
    floor = stem.max_supp
    for c in candidates:
        if c.min_supp > floor:
            yield from sequences_over(candidates, stem.extend(c), n)


def initial_segments(A: BlockSeq, n: int, w: Window) -> list[BlockSeq]:
    """All length-n block sequences whose elements lie in [A].

    n = 0 yields just the empty sequence.  Enumeration order follows the
    span order, depth first.
    """
    if n > w.len_max:
        raise FinkError(f"length {n} exceeds window len_max={w.len_max}")
    if n == 0:
        return [BlockSeq(A.k, ())]
    return list(sequences_over(span_enumerate(A, w), BlockSeq(A.k, ()), n))


def neighborhood(a: BlockSeq, A: BlockSeq, n: int, w: Window) -> list[BlockSeq]:
    """All length-n block sequences extending a with new elements from [A].

    New elements must start past max(supp(a)); a itself need not lie in [A].
    """
    if a.k != A.k:
        raise FinkError(f"level mismatch: {a.k} vs {A.k}")
    if n < len(a):
        raise FinkError(f"target length {n} below stem length {len(a)}")
    if n > w.len_max:
        raise FinkError(f"length {n} exceeds window len_max={w.len_max}")
    return list(sequences_over(span_enumerate(A, w), a, n))


def window_elements(w: Window) -> Iterator[FinkElement]:
    """Every element supported inside [0, n_max), by lex order of value vectors."""
    for vec in itertools.product(range(w.k + 1), repeat=w.n_max):
        if w.k in vec:
            yield FinkElement(w.k, tuple((i, v) for i, v in enumerate(vec) if v))


# -- text format ------------------------------------------------------------


def format_element(x: FinkElement) -> str:
    return ",".join(f"{pos}:{val}" for pos, val in x.values)


def format_seq(a: BlockSeq) -> str:
    return ";".join(format_element(x) for x in a.elems)


def _parse_pairs(text: str, what: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(","):
        left, sep, right = chunk.partition(":")
        if not sep:
            raise ParseError(f"bad {what} pair {chunk!r} in {text!r}")
        try:
            pairs.append((int(left), int(right)))
        except ValueError:
            raise ParseError(f"bad {what} pair {chunk!r} in {text!r}") from None
    return pairs


def parse_element(text: str, k: int) -> FinkElement:
    """Parse the "pos:val,pos:val" grammar (unsorted input is canonicalized)."""
    text = text.strip()
    if not text:
        raise ParseError("empty element string")
    try:
        return validate_element(_parse_pairs(text, "element"), k)
    except InvalidElement as e:
        raise ParseError(str(e)) from None


def parse_seq(text: str, k: int) -> BlockSeq:
    """Parse ';'-separated elements; the empty string is the empty sequence."""
    text = text.strip()
    if not text:
        return BlockSeq(k, ())
    try:
        return BlockSeq(k, tuple(parse_element(part, k) for part in text.split(";")))
    except InvalidSequence as e:
        raise ParseError(str(e)) from None


def read_lines(path: str) -> list[str]:
    """The stripped lines of a text file, skipping blank and '#' comment lines."""
    with open(path, encoding="utf-8") as fh:
        return [line for line in map(str.strip, fh) if line and not line.startswith("#")]


def element_to_json(x: FinkElement) -> list[list[int]]:
    return [[pos, val] for pos, val in x.values]


def element_from_json(data, k: int) -> FinkElement:
    return validate_element([(p, v) for p, v in data], k)


def seq_to_json(a: BlockSeq) -> list[list[list[int]]]:
    return [element_to_json(x) for x in a.elems]


def seq_from_json(data, k: int) -> BlockSeq:
    return BlockSeq(k, tuple(element_from_json(e, k) for e in data))
