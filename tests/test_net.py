from fractions import Fraction

import pytest

from finkit import (
    FinkError,
    NetFunction,
    ParseError,
    Window,
    format_net_function,
    k_for_epsilon,
    parse_element,
    parse_net_function,
    theta,
    theta_inv,
    window_elements,
)
from finkit.net import KFOR_MAX_BITS
from oracles import k_for_epsilon_by_loop

HALF = Fraction(1, 2)


def test_theta_examples():
    h = NetFunction(2, HALF, ((0, 0), (2, 1)))
    assert str(theta(h)) == "0:2,2:1"
    single = NetFunction(3, HALF, ((5, 0),))
    assert str(theta(single)) == "5:3"


def test_net_function_requires_a_unit():
    with pytest.raises(FinkError):
        NetFunction(2, HALF, ((0, 1),))
    with pytest.raises(FinkError):
        NetFunction(2, HALF, ((0, 0), (1, 2)))
    with pytest.raises(FinkError):
        NetFunction(2, Fraction(-1, 2), ((0, 0),))
    with pytest.raises(FinkError):
        NetFunction(2, HALF, ())


def test_theta_inv_examples():
    p = parse_element("0:2,2:1", 2)
    h = theta_inv(p, HALF)
    assert h.exponents == ((0, 0), (2, 1))
    assert theta(h) == p
    q = parse_element("5:3", 3)
    assert theta_inv(q, HALF).exponents == ((5, 0),)


def test_net_values_are_exact_powers():
    h = NetFunction(2, HALF, ((0, 0), (2, 1)))
    assert h.value_at(0) == 1
    assert h.value_at(2) == Fraction(2, 3)
    assert h.value_at(1) == 0


def test_round_trip_small_windows():
    for k, n in ((1, 5), (2, 5), (3, 4)):
        w = Window(k, n, n)
        seen = set()
        for p in window_elements(w):
            h = theta_inv(p, Fraction(1, 3))
            assert h.support() == p.support()
            assert theta(h) == p
            assert h.exponents not in seen  # injectivity of the inverse
            seen.add(h.exponents)


def test_k_for_epsilon_examples():
    assert k_for_epsilon(Fraction(1)) == (3, Fraction(1, 2))
    assert k_for_epsilon(Fraction(2)) == (2, Fraction(1))
    with pytest.raises(FinkError):
        k_for_epsilon(Fraction(0))
    with pytest.raises(FinkError):
        k_for_epsilon(Fraction(-1, 2))


def test_k_for_epsilon_minimality():
    for eps in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5)):
        k, delta = k_for_epsilon(eps)
        assert delta == eps / 2
        assert (1 + delta) ** (k - 1) > 1 / delta
        if k >= 2:
            assert (1 + delta) ** (k - 2) <= 1 / delta


def test_k_for_epsilon_equals_the_loop():
    epsilons = {Fraction(a, b) for a in range(1, 30) for b in range(1, 60)}
    epsilons |= {Fraction(1, 200), Fraction(1, 400), Fraction(7, 1000)}
    for eps in sorted(epsilons):
        assert k_for_epsilon(eps) == k_for_epsilon_by_loop(eps)


def test_k_for_epsilon_refuses_past_the_power_bound():
    assert KFOR_MAX_BITS == 2**20
    assert k_for_epsilon(Fraction(1, 3679))[0] > 1
    for eps in (Fraction(1, 3680), Fraction(1, 10**9), Fraction(1, 10**60)):
        with pytest.raises(FinkError, match=f"past the bound of {KFOR_MAX_BITS} bits"):
            k_for_epsilon(eps)


def test_parse_and_format():
    h = parse_net_function("2:1,0:0", 2, HALF)
    assert format_net_function(h) == "0:0,2:1"
    with pytest.raises(ParseError):
        parse_net_function("", 2, HALF)
    with pytest.raises(ParseError):
        parse_net_function("0:1", 2, HALF)  # no unit exponent
    with pytest.raises(ParseError):
        parse_net_function("0-1", 2, HALF)
    with pytest.raises(ParseError, match=r"bad exponent pair '3' in '3'"):
        parse_net_function("3", 2, HALF)
    with pytest.raises(ParseError, match=r"bad exponent pair 'x:2' in '0:1,x:2'"):
        parse_net_function("0:1,x:2", 2, HALF)
