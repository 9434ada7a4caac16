"""Cyclotomic field arithmetic: polynomials, roots of unity, embeddings."""

import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from danaut import (
    CycElem,
    cyc_root_of_unity,
    cyclotomic_polynomial,
    euler_phi,
    rational_nth_root,
    zeta,
)
from danaut.cyclotomic import canonical_scalar


def test_cyclotomic_polynomials_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomials_against_sympy():
    x = sympy.Symbol("x")
    for n in range(1, 41):
        expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert list(cyclotomic_polynomial(n)) == [int(c) for c in expected]


def test_euler_phi():
    assert [euler_phi(n) for n in (1, 2, 3, 4, 6, 12, 24, 360)] == [
        1, 1, 2, 2, 2, 4, 8, 96,
    ]


def test_zeta_powers():
    assert zeta(4) ** 2 == -1
    assert zeta(6) ** 3 == -1
    assert zeta(6) ** 6 == 1
    assert zeta(5) ** 5 == 1
    assert zeta(8) ** 4 == -1


def test_inverse_and_field_ops():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.choice([3, 4, 5, 6, 8, 12])
        coords = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(euler_phi(n))]
        w = CycElem(n, coords)
        if w.is_zero():
            continue
        assert w * w.inverse() == 1


def test_embedding_compatibility():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.choice([2, 3, 4, 6])
        mult = rng.choice([2, 3, 4])
        m = n * mult
        a = CycElem(n, [Fraction(rng.randint(-3, 3)) for _ in range(euler_phi(n))])
        b = CycElem(n, [Fraction(rng.randint(-3, 3)) for _ in range(euler_phi(n))])
        assert a + b == a.lift(m) + b.lift(m)
        assert a * b == a.lift(m) * b.lift(m)
    # zeta_n lifts to zeta_m^(m/n)
    assert zeta(3).lift(12) == zeta(12) ** 4


def test_rational_detection():
    w = zeta(8) ** 8
    assert type(w) is Fraction and w == 1
    assert CycElem(8, zeta(8, 8).coords).is_rational()
    assert not zeta(8).is_rational()


def test_root_of_unity_examples():
    # fourth roots of 1: a generator plus the full set
    w = cyc_root_of_unity(Fraction(1), 4)
    assert w == zeta(4)
    roots = [w * zeta(4, j) for j in range(4)]
    assert len(roots) == 4
    for r in (Fraction(1), Fraction(-1)):
        assert any(x == r for x in roots)
    assert any(x == zeta(4) for x in roots)
    assert any(x == -zeta(4) for x in roots)
    # square root of -1
    assert cyc_root_of_unity(Fraction(-1), 2) == zeta(4)
    # rational radical
    assert cyc_root_of_unity(Fraction(8), 3) == 2
    assert cyc_root_of_unity(Fraction(9, 4), 2) == Fraction(3, 2)
    assert cyc_root_of_unity(Fraction(-8), 3) == -2


def test_rational_roots_of_plus_minus_one_are_fractions():
    """zeta_1 and zeta_2 are rational, so a root of +-1 that equals +-1 is a
    Fraction, as every other scalar result is; the primitive roots stay
    CycElem."""
    for c, n, root in ((1, 1, 1), (1, 2, -1), (-1, 1, -1)):
        w = cyc_root_of_unity(c, n)
        assert type(w) is Fraction and w == root
    for c, n in ((1, 2), (1, 4), (1, 6), (-1, 1), (-1, 3)):
        w = cyc_root_of_unity(c, n)
        roots = [w * zeta(n, j) for j in range(n)]
        assert len(roots) == n and all(x**n == c for x in roots)
        assert all(type(x) is Fraction for x in roots if x in (1, -1))
        assert all(isinstance(x, CycElem) for x in roots if x not in (1, -1))
    assert isinstance(cyc_root_of_unity(1, 3), CycElem)


def test_root_of_unity_refusals():
    """A root r*zeta exists exactly when |c| is a rational n-th power: -4
    has the square root 2*zeta4, and -2 has none in the repertoire."""
    assert cyc_root_of_unity(Fraction(2), 2) is None
    assert cyc_root_of_unity(Fraction(-4), 2) == 2 * zeta(4)
    assert cyc_root_of_unity(Fraction(-2), 2) is None
    assert rational_nth_root(Fraction(5), 2) is None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.fractions(max_denominator=50).filter(lambda q: q != 0), st.integers(1, 12),
       st.sampled_from([1, 1, 2, 3, 6]), st.booleans())
def test_root_of_unity_against_sympy(q, n, cofactor, negate):
    """c = +-cofactor * q^n: cyc_root_of_unity returns None exactly when |c|
    is not a rational n-th power (sympy's integer_nthroot on numerator and
    denominator), and otherwise a w with w^n = c."""
    c = (-1 if negate else 1) * cofactor * q**n
    power = all(sympy.integer_nthroot(abs(k), n)[1] for k in (c.numerator, c.denominator))
    w = cyc_root_of_unity(c, n)
    assert (w is not None) == power, (c, n)
    if w is not None:
        assert w**n == c, (c, n, w)


def test_all_roots_verify():
    for c, n in [(Fraction(1), 6), (Fraction(-1), 3), (Fraction(8), 3)]:
        root = cyc_root_of_unity(c, n)
        for w in [root * zeta(n, j) for j in range(n)]:
            if isinstance(w, CycElem):
                assert w**n == c
            else:
                assert Fraction(w) ** n == c


def test_exact_roots_of_huge_rationals():
    rng = random.Random(400)
    for n in range(1, 8):
        for digits in (1, 17, 41, 400):
            b = rng.randint(1, 10**digits)
            q = Fraction(b, b + 1)
            assert rational_nth_root(q**n, n) == q
            if n % 2:
                assert rational_nth_root(-(q**n), n) == -q
            if n > 1 and b > 1:
                assert rational_nth_root(Fraction(b**n + 1, (b + 1) ** n), n) is None
    assert rational_nth_root(Fraction(10**400), 2) == 10**200
    assert rational_nth_root(Fraction(10**400 + 1), 1) == 10**400 + 1


@st.composite
def _cyc_elems(draw):
    """A CycElem of small order; some rational-valued, some zero."""
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]))
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    coords = draw(st.lists(coord, min_size=euler_phi(n), max_size=euler_phi(n)))
    shape = draw(st.sampled_from(["any", "any", "rational", "zero"]))
    if shape != "any":
        coords[1:] = [0] * (len(coords) - 1)
    if shape == "zero":
        coords[0] = 0
    return CycElem(n, coords)


def _promoted(x):
    return x if isinstance(x, CycElem) else CycElem(1, (x,))


def _same_scalar(result, expected):
    """Equal values, and canonical: a Fraction exactly when rational-valued."""
    assert type(result) in (Fraction, CycElem), type(result)
    assert type(result) is Fraction or not result.is_rational()
    assert result == expected


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    _cyc_elems(),
    st.one_of(st.integers(-4, 4), st.fractions(min_value=-5, max_value=5, max_denominator=6)),
)
def test_mixed_scalar_operators_match_cyclotomic_path(a, q):
    """Mixed CycElem/rational operators agree with q promoted to an order-1 CycElem."""
    Q = CycElem(1, (q,))
    _same_scalar(a + q, a + Q)
    _same_scalar(q + a, Q + a)
    _same_scalar(a - q, a - Q)
    _same_scalar(q - a, Q - a)
    _same_scalar(a * q, a * Q)
    _same_scalar(q * a, Q * a)
    _same_scalar(-a, CycElem(1, (-1,)) * a)
    if q:
        _same_scalar(a / q, a / Q)
    else:
        with pytest.raises(ZeroDivisionError):
            a / q
    if a:
        _same_scalar(q / a, Q / a)
    else:
        with pytest.raises(ZeroDivisionError):
            q / a
    for k in range(-3 if a else 0, 5):
        expected, base = Fraction(1), a if k >= 0 else a.inverse()
        for _ in range(abs(k)):
            expected = _promoted(expected) * base
        _same_scalar(a**k, expected)
    assert bool(a) == (not a.is_zero())


def _scan_root_power(x):
    """Reference: try every exponent a < n in turn, as a plain scan."""
    n = x.order
    for a in range(n):
        w = zeta(n, a).coords
        i0 = next(i for i, c in enumerate(w) if c)
        if x.coords[i0]:
            r = x.coords[i0] / w[i0]
            if tuple(r * c for c in w) == x.coords:
                return r, a
    return None


_small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(list(range(1, 31)) + [105]), st.data())
def test_as_root_power_matches_exponent_scan(n, data):
    """The zeta^-1 search and the scan agree: least exponent, signed r, or None."""
    kind = data.draw(st.sampled_from(["root", "root", "two roots", "random", "zero"]))
    phi = euler_phi(n)
    if kind == "zero":
        x = CycElem(n, [0] * phi)
    elif kind == "random":
        x = CycElem(n, data.draw(st.lists(_small_fractions, min_size=phi, max_size=phi)))
    else:
        coords = [Fraction(0)] * phi
        for _ in range(1 if kind == "root" else 2):
            r = data.draw(_small_fractions.filter(bool))
            w = zeta(n, data.draw(st.integers(0, 3 * n)))  # exponents past phi(n) and n
            coords = [c + r * v for c, v in zip(coords, w.coords)]
        x = CycElem(n, coords)
    got = x.as_root_power()
    assert got == _scan_root_power(x)
    if kind == "root":
        r, a = got
        assert type(r) is Fraction and 0 <= a < n
        assert x == r * zeta(n, a)


_ORDERS = list(range(1, 31)) + [105]


@lru_cache(maxsize=None)
def _zeta_power_by_sympy(n, a):
    """Power-basis coordinates of zeta_n^a: z^(a mod n) reduced mod Phi_n by sympy."""
    z = sympy.Symbol("z")
    rem = sympy.Poly(sympy.rem(z ** (a % n), sympy.cyclotomic_poly(n, z), z), z)
    coords = [Fraction(int(c)) for c in reversed(rem.all_coeffs())]
    return tuple(coords + [Fraction(0)] * (euler_phi(n) - len(coords)))


def _coordinate_first(n, r, a):
    """r * zeta_n^a built through CycElem(n, coords), never by exponent."""
    return CycElem(n, [r * c for c in _zeta_power_by_sympy(n, a)])


def _same_form(got, want):
    """Same canonical scalar: same type, order, coordinates and root-power form."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, CycElem):
        assert got.order == want.order
        assert got.coords == want.coords
        assert got.as_root_power() == want.as_root_power()
    else:
        assert got == want


@st.composite
def _root_power_inputs(draw, orders=_ORDERS):
    """(n, r, a): an order, a nonzero rational and an exponent past +-n."""
    n = draw(st.sampled_from(orders))
    r = draw(_small_fractions.filter(bool))
    return n, r, draw(st.integers(-3 * n, 3 * n))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_root_power_inputs(), st.data())
def test_exponent_form_matches_coordinate_form(xin, data):
    """r * zeta_n^a kept by exponent behaves exactly like its coordinates."""
    n, r, a = xin
    # the second operand's order keeps lcm(n, m) small enough for coordinates
    m, s, b = data.draw(_root_power_inputs([d for d in _ORDERS if lcm(n, d) <= 210]))
    X, Xc = zeta(n, a), _coordinate_first(n, Fraction(1), a)
    x, xc = r * X, canonical_scalar(_coordinate_first(n, r, a))
    y, yc = s * zeta(m, b), canonical_scalar(_coordinate_first(m, s, b))

    # the root power itself, possibly rational-valued
    assert X.is_rational() == Xc.is_rational()
    _same_form(canonical_scalar(X), canonical_scalar(Xc))
    _same_form(X.inverse(), Xc.inverse())
    assert X == Xc and Xc == X
    for k in (1, 2, 3):
        _same_form(X.lift(n * k), Xc.lift(n * k))
    _same_form(x, xc)
    if isinstance(x, CycElem):
        # least exponent, r carrying the sign: zeta^(N/2) = -1 at even N
        a0 = a % n
        least = (-r, a0 - n // 2) if n % 2 == 0 and 2 * a0 >= n else (r, a0)
        assert x.as_root_power() == least
        _same_form(x.inverse(), xc.inverse())

    # arithmetic on two root powers, and mixed with the coordinate form
    want = (xc + yc, xc - yc, xc * yc, xc / yc, xc == yc)
    for u, v in ((x, y), (x, yc), (xc, y)):
        for got, ref in zip((u + v, u - v, u * v, u / v), want):
            _same_form(got, ref)
        assert (u == v) == want[-1]
    for q in (s, 2):
        _same_form(x * q, xc * q)
        _same_form(q * x, q * xc)
        _same_form(x / q, xc / q)
        _same_form(q / x, q / xc)
    for k in range(-3, 6):
        _same_form(x**k, xc**k)


def test_sum_of_like_root_powers_stays_by_exponent(monkeypatch):
    """r1*zeta^a + r2*zeta^a is (r1 + r2)*zeta^a, or 0, without coordinates."""
    from danaut import cyclotomic

    calls = []
    for name in ("_zeta_power_coords", "cyclotomic_polynomial"):
        real = getattr(cyclotomic, name)
        monkeypatch.setattr(
            cyclotomic, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
        )
    n = 100000
    x = Fraction(3, 2) * zeta(n, 7)
    sums = [
        x + Fraction(-1, 3) * zeta(n, 7),
        x + Fraction(3, 2) * zeta(n, 7 + n // 2),  # zeta^(a + n/2) = -zeta^a
        x - x,
        zeta(n // 2, 3) + zeta(n, 6),  # lifted to order n by exponent
    ]
    assert calls == []
    # read the exponent form directly: on a coordinate-form element of order n
    # as_root_power would search up to n - phi(n) powers of zeta^-1
    assert [getattr(s, "_rp", s) for s in sums] == [
        (Fraction(7, 6), 7), Fraction(0), Fraction(0), (Fraction(2), 6)
    ]
    assert type(sums[1]) is type(sums[2]) is Fraction
    monkeypatch.undo()
    # the same sums by coordinates, at orders where they are cheap to build
    for n in (4, 12, 15):
        for a in range(-n, 2 * n, 5):
            for r, s in ((Fraction(3, 2), Fraction(-1, 3)), (Fraction(2), Fraction(-2))):
                want = _coordinate_first(n, r, a) + _coordinate_first(n, s, a)
                _same_form(r * zeta(n, a) + s * zeta(n, a), want)
                _same_form(r * zeta(n, a) + s * zeta(n, a + n), want)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_root_power_inputs(_ORDERS + [120, 210]), st.data())
def test_zeta_inverse_search_matches_exponent_form(xin, data):
    """Coordinates of r * zeta^a give back the exponent form; other sums give None.

    r*zeta^a + s*zeta^b with zeta^(b-a) != +-1 is a rational times a root of
    unity only if |r| = |s| (Mann's theorem on vanishing sums of roots of
    unity), so with |r| != |s| such a sum must give None.
    """
    n, r, a = xin
    x = _coordinate_first(n, r, a)
    assert x._rp is None
    sign, least = zeta(n, a).as_root_power()  # read from the exponent form
    assert x.as_root_power() == (sign * r, least)
    s = data.draw(_small_fractions.filter(lambda s: s and abs(s) != abs(r)))
    b = data.draw(st.integers(0, n - 1).filter(lambda b: 2 * (b - a) % n))
    y = CycElem(n, [u + v for u, v in zip(x.coords, _coordinate_first(n, s, b).coords)])
    assert y.as_root_power() is None


def test_zeta_inverse_search_memory_at_order_1200():
    """One phi(n)-vector at a time: the worst exponent stays far under 1 MiB."""
    n = 1200
    x = CycElem(n, zeta(n, n - 1).coords)  # n - phi(n) = 880 steps of zeta^-1
    tracemalloc.start()
    try:
        got = x.as_root_power()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (Fraction(-1), n // 2 - 1)
    assert peak < 2**20, peak
