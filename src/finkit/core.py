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
"""

from __future__ import annotations

import bisect
import itertools
from typing import Callable, Iterator, Optional


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
    """A construction ran out of room inside the finite window, at step,
    with what it had built so far as partial.

    Built and raised in one expression, so the raising frame holds no
    reference to it: a local would make a cycle through its traceback."""

    def __init__(
        self, message: str, partial: Optional[BlockSeq] = None, step: Optional[int] = None
    ) -> None:
        super().__init__(message)
        self.partial = partial
        self.step = step


class _Record:
    """An immutable record: the value, spec and result types of the package.

    Each subclass lists its fields, in order, as __slots__ and sets them in
    its own __init__, with _Record.__init__ or the slots' own setters; after
    that no attribute can be set or deleted.  A record equals only a record
    of its own class with equal fields, and hashes and prints by its fields
    in order.
    """

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class FinkElement(_Record):
    """A member of FIN_k: values sorted by position, all in 1..k, k attained."""

    __slots__ = ("k", "values")

    def __init__(self, k: int, values: tuple[tuple[int, int], ...]) -> None:
        _set_k(self, k)
        _set_values(self, values)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InvalidElement(f"level bound must be >= 1, got {self.k}")
        if not self.values:
            raise InvalidElement("element must have nonempty support")
        last = -1
        attained = False
        for pos, val in self.values:
            if pos < 0:
                raise InvalidElement(f"negative position {pos}")
            if pos <= last:
                raise InvalidElement(f"positions not strictly increasing at {pos}")
            if not 1 <= val <= self.k:
                raise InvalidElement(f"value {val} at position {pos} outside 1..{self.k}")
            attained = attained or val == self.k
            last = pos
        if not attained:
            raise InvalidElement(f"k not attained: no value equals {self.k}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.k, self.values) == (other.k, other.values)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.k, self.values))

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


_set_k, _set_values = FinkElement.k.__set__, FinkElement.values.__set__


def _composed_element(k: int, values: tuple) -> FinkElement:
    """A FinkElement whose values are valid by construction, built without
    re-running the checks of __post_init__: a sum of a validated A's tetris
    images with some exponent 0 (see span_enumerate)."""
    x = object.__new__(FinkElement)
    _set_k(x, k)
    _set_values(x, values)
    return x


class BlockSeq(_Record):
    """A finite block sequence: supports strictly separated, shared level k."""

    __slots__ = ("k", "elems")

    def __init__(self, k: int, elems: tuple[FinkElement, ...]) -> None:
        _set_seq_k(self, k)
        _set_elems(self, elems)
        self.__post_init__()

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

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.k, self.elems) == (other.k, other.elems)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.k, self.elems))

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

    def __str__(self) -> str:
        return format_seq(self)


_set_seq_k, _set_elems = BlockSeq.k.__set__, BlockSeq.elems.__set__


class Window(_Record):
    """Finite truncation: positions in [0, n_max), sequence lengths <= len_max."""

    __slots__ = ("k", "n_max", "len_max")

    def __init__(self, k: int, n_max: int, len_max: int) -> None:
        _Record.__init__(self, k, n_max, len_max)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.k < 1 or self.n_max < 1 or self.len_max < 1:
            raise FinkError(f"window parameters must be >= 1, got {self}")

    def contains_element(self, x: FinkElement) -> bool:
        return x.max_supp < self.n_max

    def require_length(self, n: int, what: str = "target length") -> None:
        """Lengths of constructed sequences lie in 1..len_max."""
        if not 1 <= n <= self.len_max:
            raise FinkError(f"{what} {n} outside 1..{self.len_max}")


class Decomposition(_Record):
    """How an element arises from generators: (generator index, tetris exponent) pairs."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[tuple[int, int], ...]) -> None:
        _Record.__init__(self, parts)
        self.__post_init__()

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


def _composed_seq(k: int, elems: tuple) -> BlockSeq:
    """A BlockSeq of level-k elements already known to be block ordered,
    built without re-running the checks of __post_init__."""
    a = object.__new__(BlockSeq)
    _set_seq_k(a, k)
    _set_elems(a, elems)
    return a


def generators(k: int, n: int) -> BlockSeq:
    """The first n unit generators: value k at position i, zero elsewhere."""
    return BlockSeq(k, tuple(FinkElement(k, ((i, k),)) for i in range(n)))


def _tetris_images(x: FinkElement) -> list[tuple[tuple[int, int], ...]]:
    """The values of T^0(x), ..., T^(k-1)(x): the images a span may use.

    Read off x.values as tetris computes them; each image attains its own
    level k - j, so none is empty.  T^0(x) is x.values itself, so sums
    share x's pairs instead of copies."""
    return [x.values] + [tuple((p, v - j) for p, v in x.values if v > j) for j in range(1, x.k)]


class SpanState:
    """The span of a block sequence grown one block at a time, inside the
    already built span of an ambient A that the blocks condense.

    Holds every partial sum over the blocks so far, the empty one included,
    as one chunk per block; sums with a zero exponent are span elements, the
    rest may still become one when a later block joins with exponent 0.  A
    span element is not built again: it is looked up, by its values, among
    the elements of A's span, which span_enumerate built once from A.
    The elements each block added are kept too, one list per block.
    """

    __slots__ = ("elements", "sums", "added")

    def __init__(self, elements: dict, sums: tuple = ((((), False),),), added: tuple = ()):
        self.elements = elements
        self.sums = sums
        self.added = added

    @classmethod
    def inside(cls, span: list[FinkElement]) -> "SpanState":
        """The empty state, growing inside span = span_enumerate(A, w)."""
        return cls({x.values: x for x in span})

    def extend(self, block: FinkElement) -> tuple["SpanState", list[FinkElement]]:
        """The state with block appended, and the span elements it adds, in
        the order its sums list them.

        Raises FinkError when an added element lies outside A's span, which
        cannot happen while the blocks so far condense A.
        """
        # A sum is (its images joined, has a zero exponent).  The block starts
        # after every position in the sums so far, so joining keeps positions
        # sorted; sums outermost and the exponent innermost keep the sums in
        # exponent-vector order.
        images = _tetris_images(block)
        sums = [
            (joined + image, zero or j == 0)
            for joined, zero in itertools.chain.from_iterable(self.sums)
            for j, image in enumerate(images)
        ]
        try:
            fresh = [self.elements[values] for values, zero in sums if zero]
        except KeyError:
            raise FinkError(f"block {block} takes the span outside the ambient span") from None
        return SpanState(self.elements, self.sums + (sums,), self.added + (fresh,)), fresh

    def span(self) -> Iterator[FinkElement]:
        """The span of the blocks so far: what each block added, block by block."""
        return itertools.chain.from_iterable(self.added)


# A span is listed element by element; a larger one is refused before it is built.
SPAN_MAX_ELEMENTS = 2**20


def _admit_span_size(k: int, n: int) -> None:
    """Refuse the span of n blocks at level k if it has more than
    SPAN_MAX_ELEMENTS elements."""
    # each block is absent or takes one of k exponents, and some exponent is 0,
    # so the span has at least 2^n - 1 elements: a long A needs no power
    if n > SPAN_MAX_ELEMENTS.bit_length() or (k + 1) ** n - k**n > SPAN_MAX_ELEMENTS:
        raise FinkError(f"the span of {n} blocks at k={k} has more than {SPAN_MAX_ELEMENTS} elements")


def _admit_span(A: BlockSeq, w: Window) -> None:
    """The one check before a span is built: A's level is the window's, then
    the span's size, then that A's supports fit the window (len_max caps
    constructed sequences, not A)."""
    if A.k != w.k:
        raise FinkError(f"sequence level {A.k} differs from window level {w.k}")
    _admit_span_size(A.k, len(A))
    if A.max_supp >= w.n_max:  # the blocks are separated, so the last ends last
        raise FinkError(f"block sequence {A} has support past window n_max={w.n_max}")


def window_generators(w: Window) -> BlockSeq:
    """The window's n_max generators, whose span is the default ambient; one
    whose span is past the bound is refused before a generator is built."""
    _admit_span_size(w.k, w.n_max)
    return generators(w.k, w.n_max)


def span_enumerate(A: BlockSeq, w: Window) -> list[FinkElement]:
    """The span [A]: every block sum of tetris images with some exponent 0.

    Deterministic order: lexicographic on (generator index set, exponent
    vector), where index sets are nonempty increasing subsets of range(len(A))
    and exponents run over 0..k-1 (the exponent k would contribute the zero
    function and break decomposition uniqueness).  Distinct selections always
    yield distinct elements, so the result is duplicate free.

    Built in one pass over the blocks (see _span_walk).  A is validated at
    the boundary, and each element is composed from its images, not checked
    again: each image attains its own level, the blocks' supports are
    separated and some exponent is 0, so every sum is in FIN_k.  Refused
    first: a span past SPAN_MAX_ELEMENTS elements, then an A past the window.
    """
    _admit_span(A, w)
    images = [_tetris_images(x) for x in A.elems]
    return [_composed_element(A.k, values) for values in _span_walk(images, images)]


def span_texts(A: BlockSeq, w: Window) -> list[str]:
    """The texts format_element gives the elements of span_enumerate(A, w), in
    that order, built without a FinkElement per element.

    Each tetris image of each block is formatted once, as "pos:val" pairs,
    and an element's text is its images' texts joined by commas.  Valid by
    construction, and refused on the same terms, as in span_enumerate.
    """
    _admit_span(A, w)
    images = [
        [",".join(f"{p}:{v}" for p, v in image) for image in _tetris_images(x)] for x in A.elems
    ]
    return _span_walk(images, [[text + "," for text in texts] for texts in images])


def _span_walk(images: list, heads: list) -> list:
    """The span's sums with some exponent 0, in span order, built from the
    last block back with one list comprehension per block.

    images[s] holds block s's k tetris images, in whatever form the caller
    joins with +: values tuples or text.  heads[s] holds the same images as
    they stand in front of a later block's part (for text, with the comma
    between the two).  The index sets over the blocks from s on are, in span
    order: {s}; {s} joined in front of each index set over the blocks after
    s; then those index sets themselves.  Each index set is a group of sums,
    one per exponent vector in product order, so whether a sum has some
    exponent 0 depends only on its place in its group.  At k = 1 each group
    is one sum with exponent 0, so the sums are one flat list, built in
    reverse span order so that each block only appends to it.
    """
    if not images:
        return []
    k = len(images[0])
    if k == 1:
        sums: list = []
        for (image,), (head,) in zip(reversed(images), reversed(heads)):
            # the sums so far with the image in front, then the image alone;
            # islice stops at the sums there were before this block
            sums.extend(map(head.__add__, itertools.islice(sums, len(sums))))
            sums.append(image)
        sums.reverse()
        return sums
    groups: list = []
    for block, ahead in zip(reversed(images), reversed(heads)):
        joined = [[head + tail for head in ahead for tail in group] for group in groups]
        groups = [block] + joined + groups
    # per group size k^t, which exponent vectors have some 0
    zeros = {k: [True] + [False] * (k - 1)}
    for t in range(1, len(images)):
        zeros[k ** (t + 1)] = [True] * k**t + zeros[k**t] * (k - 1)
    return [s for group in groups for s in itertools.compress(group, zeros[len(group)])]


def decompose(x: FinkElement, A: BlockSeq) -> Optional[Decomposition]:
    """The unique way x arises from A's generators, or None if x is not in [A].

    For each generator meeting supp(x) the exponent is forced: x's largest
    value on the generator's support is k minus it.  Every position of x
    must lie on a selected generator, and some exponent must be 0.
    """
    if x.k != A.k:
        raise FinkError(f"level mismatch: element k={x.k}, sequence k={A.k}")
    rest = dict(x.values)
    parts = []
    for i, gen in enumerate(A.elems):
        got = [rest.pop(pos, 0) for pos, _ in gen.values]
        j = A.k - max(got)
        if j == A.k:  # gen misses x
            continue
        if any(v != max(val - j, 0) for v, (_, val) in zip(got, gen.values)):
            return None
        parts.append((i, j))
    return None if rest or all(j for _, j in parts) else Decomposition(tuple(parts))


def recompose(d: Decomposition, A: BlockSeq) -> FinkElement:
    """Rebuild the element a decomposition describes."""
    return block_sum([tetris(A.elems[i], j) for i, j in d.parts], A.k)


def leq(A: BlockSeq, B: BlockSeq) -> bool:
    """The condensation order: every element of A lies in the span of B."""
    if A.k != B.k:
        raise FinkError(f"level mismatch: {A.k} vs {B.k}")
    return all(decompose(x, B) is not None for x in A)


def successor_starts(candidates: list[FinkElement]) -> list[int]:
    """Per candidate c, the index of the first candidate that may follow c.

    Computed for any list as one past the last candidate that starts at or
    before c.max_supp (0 when there is none).  On candidates in span order,
    that is, grouped by first block in block order (a sublist of a
    span_enumerate listing qualifies), it is that first index.  Say c ends in
    block A[t].  A candidate whose first block is A[s], s <= t, starts at or
    before A[s]'s first peak (tetris images keep the peaks), so not after c,
    which ends at or after A[t]'s last peak; every candidate from A[t + 1] on
    starts after c.
    """
    firsts = [c.values[0][0] for c in candidates]
    ends = [c.values[-1][0] for c in candidates]
    # per start position, one past its last candidate; then, over the sorted
    # positions, one past the last candidate starting at or before each
    past = dict(zip(firsts, range(1, len(firsts) + 1)))
    lows = sorted(past)
    reach = list(itertools.accumulate(map(past.__getitem__, lows), max, initial=0))
    # one bisection, and one int object, per distinct end
    start = {end: reach[bisect.bisect_right(lows, end)] for end in set(ends)}
    return list(map(start.__getitem__, ends))


def extension_tree(
    candidates: list[FinkElement], stem: BlockSeq, max_len: int, step: Callable, root
) -> Iterator[tuple[tuple, object]]:
    """Walk the block-ordered extension tree of stem through candidates, depth first.

    Candidates must be in span order (see successor_starts); the first level
    holds those that start after stem ends, which need not lie in their span.
    A node is the tuple of its elements, stem's first, and carries a state:
    stem's is root, and step(state, child) returns the child's state, or None
    to leave out the child and everything below it.  Children are tried in
    candidate order.  Yields (node, state) for each maximal node kept: one of
    max_len elements, or one that no candidate extends.  The walk is lazy,
    so a caller may stop at any yield.
    """
    floor = stem.max_supp
    if len(stem) >= max_len or all(c.min_supp <= floor for c in candidates):
        yield stem.elems, root
        return
    after = successor_starts(candidates)
    total = len(candidates)
    # per node on the current path: its elements, its state, its untried picks
    stack = [(stem.elems, root, (i for i in range(total) if candidates[i].min_supp > floor))]
    while stack:
        node, state, picks = stack[-1]
        for i in picks:
            pick = candidates[i]
            child = step(state, pick)
            if child is None:
                continue
            if len(node) + 1 == max_len or after[i] == total:
                yield node + (pick,), child
            else:
                stack.append((node + (pick,), child, iter(range(after[i], total))))
                break
        else:
            stack.pop()


def sequences_over(candidates: list[FinkElement], stem: BlockSeq, n: int):
    """The length-n nodes of the extension tree of stem through candidates.

    Candidates must be in span order (see successor_starts).  They are tried
    in list order at every level, so the output is lexicographic with respect
    to that order.  At n == len(stem) the one node is stem itself.
    """
    if n < len(stem):
        raise FinkError(f"target length {n} below stem length {len(stem)}")
    for node, _ in extension_tree(candidates, stem, n, lambda state, child: state, True):
        if len(node) == n:
            yield BlockSeq(stem.k, node)


def condensations(span: list, k: int, lengths, step=None, root=None, picks=None):
    """The condensation walk below A, where span = span_enumerate(A, w): for
    each m in lengths in turn, yields (B's terms, B's SpanState, state) per
    length-m B over picks (a sublist of span in span order; default span),
    in the order of sequences_over.  B's span grows inside A's, never built.
    A node carries (B's SpanState, state), the empty B's (a SpanState of no
    blocks, root); step(node, pick) returns the child's, or None to prune
    it.  The step grows the SpanState itself, so it may veto a pick first;
    the default grows it and keeps the state.  The walk is lazy."""
    top = (SpanState.inside(span), root)
    step = step or (lambda node, pick: (node[0].extend(pick)[0], node[1]))
    for m in lengths:
        walk = extension_tree(span if picks is None else picks, BlockSeq(k, ()), m, step, top)
        for B, (grown, state) in walk:
            if len(B) == m:
                yield B, grown, state


def initial_segments(A: BlockSeq, n: int, w: Window) -> list[BlockSeq]:
    """All length-n block sequences whose elements lie in [A].

    n = 0 yields just the empty sequence.  Enumeration order follows the
    span order, depth first.
    """
    return neighborhood(BlockSeq(A.k, ()), A, n, w)


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


def parse_rule(rule: str, text: str, kinds: dict, unknown: str = "") -> tuple[str, object]:
    """Read a CLI rule: a bare kind such as size_mod, or kind:param such as
    const:1 or table:FILE.  kinds maps each kind to its parameter: None for
    none, int for an integer, str for a file path as written.  Returns (kind,
    param), param None for a bare kind.  rule names the rule in the errors,
    unknown (default: rule) in the one for a kind outside kinds."""
    kind, colon, param = text.partition(":")
    if kind not in kinds:
        raise FinkError(f"unknown {unknown or rule} {text!r}")
    if kinds[kind] is None:
        if colon:
            raise FinkError(f"{rule} {kind!r} takes no parameter, got {text!r}")
        return kind, None
    if kinds[kind] is str:
        return kind, param
    try:
        return kind, int(param)
    except ValueError:
        raise FinkError(f"{rule} {kind!r} needs an integer parameter, got {text!r}") from None


def read_lines(path: str) -> list[str]:
    """The stripped lines of a text file, skipping blank and '#' comment lines."""
    with open(path, encoding="utf-8") as fh:
        return [line for line in map(str.strip, fh) if line and not line.startswith("#")]

