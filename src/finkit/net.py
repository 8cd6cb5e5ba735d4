"""Exact dictionary between FIN_k and the delta-net of the positive sphere of c0.

The net consists of finitely supported functions taking values among the
powers (1+delta)^(-e) for e in 0..k-1 and attaining 1 somewhere.  Carrying
the exponents instead of the values makes the correspondence with FIN_k a
pure integer relabeling (value at a position = k - exponent), so no
logarithm is ever evaluated and the round trip is exact.
"""

from __future__ import annotations

from fractions import Fraction

from .core import FinkElement, FinkError, ParseError, _parse_pairs, _Record


class NetFunction(_Record):
    """A net function stored as sorted (position, exponent) pairs.

    h(position) = (1+delta)^(-exponent); exponents lie in 0..k-1 and some
    exponent is 0, so h attains the value 1.
    """

    __slots__ = ("k", "delta", "exponents")

    def __init__(self, k: int, delta: Fraction, exponents: tuple[tuple[int, int], ...]) -> None:
        _Record.__init__(self, k, delta, exponents)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.k < 1:
            raise FinkError(f"level bound must be >= 1, got {self.k}")
        if self.delta <= 0:
            raise FinkError(f"delta must be positive, got {self.delta}")
        if not self.exponents:
            raise FinkError("net function must have nonempty support")
        last = -1
        attains_one = False
        for pos, e in self.exponents:
            if pos <= last or pos < 0:
                raise FinkError(f"positions must be strictly increasing, bad {pos}")
            if not 0 <= e <= self.k - 1:
                raise FinkError(f"exponent {e} at {pos} outside 0..{self.k - 1}")
            attains_one = attains_one or e == 0
            last = pos
        if not attains_one:
            raise FinkError("net function never attains the value 1 (no exponent 0)")

    def support(self) -> tuple[int, ...]:
        return tuple(pos for pos, _ in self.exponents)

    def value_at(self, pos: int) -> Fraction:
        for p, e in self.exponents:
            if p == pos:
                return Fraction(1) / (1 + self.delta) ** e
        return Fraction(0)


def theta(h: NetFunction) -> FinkElement:
    """Relabel exponents to levels: position with exponent e maps to k - e."""
    return FinkElement(h.k, tuple((pos, h.k - e) for pos, e in h.exponents))


def theta_inv(p: FinkElement, delta: Fraction) -> NetFunction:
    """Inverse relabeling: level v becomes exponent k - v."""
    return NetFunction(
        p.k, Fraction(delta), tuple((pos, p.k - val) for pos, val in p.values)
    )


# k_for_epsilon refuses an epsilon whose exact comparison would need a power
# of more than this many bits: 1/3679 is answered, 1/3680 is refused.
KFOR_MAX_BITS = 2**20


def k_for_epsilon(epsilon: Fraction) -> tuple[int, Fraction]:
    """delta = epsilon/2 and the least k with (1+delta)^(k-1) > 1/delta.

    With delta = p/q in lowest terms the test is p * (p+q)^(k-1) > q^k, an
    exact integer comparison that only turns from false to true as k grows.
    Galloping over k = 2, 3, 5, 9, ... (squaring the powers) brackets the
    least k, and bisection by the same powers pins it down.  An epsilon whose
    galloping would build a power of more than KFOR_MAX_BITS bits is refused
    before that power is built.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise FinkError(f"epsilon must be positive, got {epsilon}")
    delta = epsilon / 2
    p, q = delta.numerator, delta.denominator

    def holds(a: int, b: int) -> bool:  # a = (p+q)^e, b = q^e: is k = e + 1 enough?
        return p * a > q * b

    if holds(1, 1):
        return 1, delta
    # steps[i] = ((p+q)^(2^i), q^(2^i)); galloping stops at the first e = 2^i that holds
    steps = [(p + q, q)]
    while not holds(*steps[-1]):
        a, b = steps[-1]
        if 2 * a.bit_length() > KFOR_MAX_BITS:
            raise FinkError(f"epsilon {epsilon} needs powers past the bound of {KFOR_MAX_BITS} bits")
        steps.append((a * a, b * b))
    # bisection keeps e failing and e + 2^(i+1) holding; at the end e + 1 is the least e that holds
    e, a, b = 0, 1, 1
    for i in range(len(steps) - 2, -1, -1):
        a2, b2 = a * steps[i][0], b * steps[i][1]
        if not holds(a2, b2):
            e, a, b = e + 2**i, a2, b2
    return e + 2, delta


def parse_net_function(text: str, k: int, delta: Fraction) -> NetFunction:
    """Parse "pos:exp,pos:exp" with exponents in 0..k-1 (0 is stored here,
    unlike the element grammar where value 0 is never written)."""
    text = text.strip()
    if not text:
        raise ParseError("empty net function string")
    pairs = sorted(_parse_pairs(text, "exponent"))
    try:
        return NetFunction(k, Fraction(delta), tuple(pairs))
    except FinkError as e:
        raise ParseError(str(e)) from None


def format_net_function(h: NetFunction) -> str:
    return ",".join(f"{pos}:{e}" for pos, e in h.exponents)
