"""Exact multivariate polynomial arithmetic and the one-relation normal form."""

import random
import re
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from danaut import (
    CycElem,
    MultiPoly,
    as_univar,
    derivative,
    from_univar,
    normal_form,
    parse_poly,
    perfect_power_root,
    poly_str,
    reduce_by_rule,
    substitute,
    univar_gcd,
    zeta,
)
from danaut.poly import _tokenize, divide_by_monomial, free_symbols, weighted_parts
from conftest import random_poly, variety

V2 = ("y1", "y2")
VZ = ("z",)


def P(text, vars=("y1", "y2", "z")):
    return parse_poly(text, vars)


def test_arithmetic_examples():
    y1 = MultiPoly.variable(V2, "y1")
    assert (y1 + 1) * (y1 - 1) == y1**2 - 1
    f = P("z^3+z+y1-y2")
    assert (f - f).is_zero()
    z = MultiPoly.variable(VZ, "z")
    assert (z**2 + 1) * (z**2 + 1) == z**4 + 2 * z**2 + 1


def test_context_mismatch_errors():
    with pytest.raises(ValueError):
        MultiPoly.variable(V2, "y1") + MultiPoly.variable(VZ, "z")


def test_monomial_divisors_are_monic_monomials():
    y1 = MultiPoly.variable(V2, "y1")
    f = y1**3
    for bad in (y1 * 2, y1 + 1, y1 * Fraction(1, 2)):
        with pytest.raises(ValueError, match="monic monomial"):
            divide_by_monomial(f, bad)
        with pytest.raises(ValueError, match="monic monomial"):
            reduce_by_rule(f, bad, y1)
    assert divide_by_monomial(f, y1) == y1**2
    assert reduce_by_rule(f, y1**2, y1 + 1) == y1 * 2 + 1


def test_substitution_examples():
    z = MultiPoly.variable(VZ, "z")
    assert substitute(z**2, {"z": z + 1}) == z**2 + 2 * z + 1
    f = P("z^3 + z*(y1+1) + 1")
    ident = {name: MultiPoly.variable(f.vars, name) for name in f.vars}
    assert substitute(f, ident) == f
    # sign bookkeeping: z^4 + b z under z -> -z
    vb = ("b", "z")
    g = parse_poly("z^4 + b*z", vb)
    images = {"z": -MultiPoly.variable(vb, "z"), "b": MultiPoly.variable(vb, "b")}
    assert substitute(g, images) == parse_poly("z^4 - b*z", vb)


def test_substitution_missing_image():
    f = P("y1*z")
    with pytest.raises(ValueError):
        substitute(f, {"z": MultiPoly.variable(f.vars, "z")})


def test_ring_axioms_randomized():
    rng = random.Random(20240601)
    vars = ("y1", "y2", "y3", "z")
    for _ in range(200):
        f = random_poly(rng, vars, max_deg=5, nterms=3)
        g = random_poly(rng, vars, max_deg=5, nterms=3)
        h = random_poly(rng, vars, max_deg=5, nterms=2)
        assert f + g == g + f
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_multiplication_against_sympy():
    rng = random.Random(99)
    xs = sympy.symbols("y1 y2 z")
    for _ in range(10):
        f = random_poly(rng, ("y1", "y2", "z"), max_deg=4, nterms=4)
        g = random_poly(rng, ("y1", "y2", "z"), max_deg=4, nterms=4)

        def to_sympy(p):
            expr = 0
            for exps, c in p.terms.items():
                t = sympy.Rational(c.numerator, c.denominator)
                for x, e in zip(xs, exps):
                    t *= x**e
                expr += t
            return sympy.expand(expr)

        assert to_sympy(f * g) == sympy.expand(to_sympy(f) * to_sympy(g))


def test_univar_gcd_examples():
    z = MultiPoly.variable(VZ, "z")
    assert univar_gcd(z**2 - 1, z - 1) == z - 1
    assert univar_gcd(z**4 + 2 * z**2 + 1, 4 * z**3 + 4 * z) == z**2 + 1
    assert univar_gcd(z**3 + 1, 3 * z**2) == MultiPoly.const(VZ, 1)


def test_univar_gcd_divides_both():
    rng = random.Random(3)
    z = MultiPoly.variable(VZ, "z")
    for _ in range(25):
        a = from_univar(VZ, [Fraction(rng.randint(-3, 3)) for _ in range(4)] + [1])
        b = from_univar(VZ, [Fraction(rng.randint(-3, 3)) for _ in range(3)] + [1])
        g = univar_gcd(a, b)
        for p in (a, b):
            # exact division: remainder of p by g is zero
            rem = p
            gc = as_univar(g)
            while not rem.is_zero() and rem.degree_in("z") >= len(gc) - 1:
                lead = as_univar(rem)
                q = lead[-1] / gc[-1]
                shift = len(lead) - len(gc)
                rem = rem - g * q * z**shift
            assert rem.is_zero()


def test_univar_gcd_rejects_multivariate():
    with pytest.raises(ValueError):
        univar_gcd(P("y1*z"), P("z"))


def test_perfect_power_root_examples():
    z = MultiPoly.variable(VZ, "z")
    # oracle: expand (z+1)^2 by hand
    assert (z + 1) ** 2 == z**2 + 2 * z + 1
    assert perfect_power_root(z**2 + 2 * z + 1, 2) == z + 1
    assert perfect_power_root(z**4, 2) == z**2
    # brute-force oracle over monic linear candidates: (z+c)^3 needs 3c = 0,
    # hence c = 0, but z^3 != z^3 + 1
    assert perfect_power_root(z**3 + 1, 3) is None


def test_perfect_power_root_roundtrip():
    rng = random.Random(17)
    for _ in range(50):
        deg = rng.randint(1, 4)
        l = rng.randint(1, 3)
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(deg)] + [Fraction(1)]
        Q = from_univar(VZ, coeffs)
        Pp = Q**l
        root = perfect_power_root(Pp, l)
        assert root is not None
        assert root**l == Pp


_ZS = sympy.Symbol("z")
_kernel_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def _sympy_univar(coeffs):
    """A sympy Poly over QQ from Fraction coefficients, low to high."""
    rats = [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)]
    return sympy.Poly(rats or [0], _ZS, domain="QQ")


def _exact(coeffs, kinds=(int, Fraction)):
    coeffs = list(coeffs)
    assert all(type(c) in kinds for c in coeffs), coeffs
    return coeffs


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_dense_kernel_routines_match_sympy(data):
    """univar_gcd, perfect_power_root and CycElem.inverse, which run on the
    dense coefficient-list kernel, agree with sympy; no float ever appears."""
    from danaut.cyclotomic import cyclotomic_polynomial
    from danaut.dense import div_mod, ext_gcd, mul

    def draw_poly(max_deg, monic=False):
        coeffs = data.draw(st.lists(_kernel_coeffs, min_size=1, max_size=max_deg + 1))
        return coeffs + [Fraction(1)] if monic else coeffs

    # gcd of two polynomials sharing a drawn monic factor
    common = from_univar(VZ, draw_poly(2, monic=True))
    f = from_univar(VZ, draw_poly(3)) * common
    g = from_univar(VZ, draw_poly(3)) * common
    a, b = as_univar(f), as_univar(g)
    r, s = ext_gcd(a, b)
    _exact(r), _exact(s)
    quot, rem = div_mod(a, b) if b else ([], [])
    _exact(quot), _exact(rem), _exact(mul(a, b), kinds=(Fraction,))
    expected = sympy.gcd(_sympy_univar(a), _sympy_univar(b))
    got = _sympy_univar(as_univar(univar_gcd(f, g)))
    assert got == (expected.monic() if not expected.is_zero else expected)

    # l-th roots: of an exact power, and of a perturbed one
    l = data.draw(st.integers(1, 3))
    Q = from_univar(VZ, draw_poly(3, monic=True))
    Pp = Q**l
    if data.draw(st.booleans()):
        Pp = Pp + data.draw(_kernel_coeffs)
    root = perfect_power_root(Pp, l)
    _, factors = sympy.factor_list(_sympy_univar(as_univar(Pp)))
    assert (root is not None) == all(e % l == 0 for _, e in factors)
    if root is not None:
        coeffs = _exact(as_univar(root))
        assert _sympy_univar(coeffs) ** l == _sympy_univar(as_univar(Pp))

    # products and inverses of coordinate-form cyclotomic elements modulo Phi_n
    n = data.draw(st.sampled_from([3, 4, 5, 7, 8, 9, 12, 15]))
    phi = len(cyclotomic_polynomial(n)) - 1
    coords, other = (
        data.draw(st.lists(_kernel_coeffs, min_size=phi, max_size=phi)) for _ in range(2)
    )
    if not any(coords):
        coords[1] = Fraction(1)
    x = CycElem(n, coords)
    product = x * CycElem(n, other)
    if isinstance(product, CycElem):
        _exact(product.coords, kinds=(Fraction,))
    inv = _exact(x.inverse().coords, kinds=(Fraction,))
    phin = sympy.Poly(list(reversed(cyclotomic_polynomial(n))), _ZS, domain="QQ")
    expected = sympy.invert(_sympy_univar(coords), phin)
    assert _sympy_univar(inv) == expected
    assert x * x.inverse() == 1


def test_perfect_power_root_bad_index():
    z = MultiPoly.variable(VZ, "z")
    with pytest.raises(ValueError):
        perfect_power_root(z**4, 3)


# -- normal form ---------------------------------------------------------------


def test_normal_form_examples():
    e2 = variety([2], True, "z^3+(y1+1)z+1")
    f = parse_poly("x*y1^2", e2.vars)
    assert normal_form(f, e2) == parse_poly("z^3+(y1+1)z+1", e2.vars)

    e4 = variety([2, 2], True, "z^3+z+y1-y2")
    g = parse_poly("y1^3", e4.vars)
    assert normal_form(g, e4) == g  # no reducible monomial
    h = parse_poly("x^2*y1^2*y2^2", e4.vars)
    expected = parse_poly("x*(z^3+z+y1-y2)", e4.vars)
    assert normal_form(h, e4) == expected
    assert max(exps[e4.vars.index("x")] for exps in normal_form(h, e4).terms) == 1


def test_normal_form_properties():
    rng = random.Random(42)
    e4 = variety([2, 2], True, "z^3+z+y1-y2")
    defining = e4.defining_polynomial
    assert normal_form(defining, e4).is_zero()
    for _ in range(40):
        f = random_poly(rng, e4.vars, max_deg=3, nterms=3)
        g = random_poly(rng, e4.vars, max_deg=2, nterms=2)
        nf = normal_form(f, e4)
        assert normal_form(nf, e4) == nf  # idempotent
        lhs = normal_form(f * g, e4)
        rhs = normal_form(normal_form(f, e4) * normal_form(g, e4), e4)
        assert lhs == rhs  # homomorphism modulo the ideal
        # no result monomial is divisible by the lead monomial
        lead = {"x": 1, "y1": 2, "y2": 2}
        for exps in nf.terms:
            assert not all(
                exps[e4.vars.index(k)] >= v for k, v in lead.items()
            )


def test_normal_form_without_unit_regime_rewrites_z_power():
    """With no unit weight the z^d rule gives the representative of z-degree < d."""
    Y = variety([2, 3], False, "z^4+1")
    y1, y2, z = _SYMS
    relation = y1**2 * y2**3 - z**4 - 1
    rng = random.Random(13)
    for _ in range(20):
        f = random_poly(rng, Y.vars, max_deg=7, nterms=4)
        nf = normal_form(f, Y)
        assert nf.degree_in("z") < 4
        assert normal_form(nf, Y) == nf
        # a single generator is a Groebner basis: f - nf is in the ideal
        # exactly when dividing it by the relation leaves no remainder
        assert sympy.rem(_to_sympy(f - nf), relation, *_SYMS) == 0
    assert normal_form(P("z^4"), Y) == P("y1^2*y2^3 - 1")


def test_parse_and_print_roundtrip():
    rng = random.Random(8)
    for _ in range(25):
        f = random_poly(rng, ("y1", "y2", "z"), max_deg=4, nterms=4)
        assert parse_poly(poly_str(f), ("y1", "y2", "z")) == f


def test_derivative():
    f = P("z^3 + y1*z + 1")
    assert derivative(f, "z") == P("3z^2 + y1")
    assert derivative(f, "y2").is_zero()


# -- the rational multiplication kernel ----------------------------------------

_POLY_VARS = ("y1", "y2", "z")
_SYMS = sympy.symbols("y1 y2 z")


def _to_sympy(p):
    return sum(
        (
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(x**e for x, e in zip(_SYMS, exps)))
            for exps, c in p.terms.items()
        ),
        sympy.Integer(0),
    )


_small_terms = st.dictionaries(
    st.tuples(*(st.integers(0, 2) for _ in _POLY_VARS)),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
    max_size=5,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_small_terms, _small_terms, _small_terms)
def test_rational_kernel_against_sympy(tf, tg, th):
    f, g, h = (MultiPoly(_POLY_VARS, t) for t in (tf, tg, th))
    # (f+g)*(f-g) - (f*f - g*g) exercises sums and products that cancel to zero
    for result, expected in (
        (f * g, _to_sympy(f) * _to_sympy(g)),
        (f + g * h, _to_sympy(f) + _to_sympy(g) * _to_sympy(h)),
        ((f + g) * (f - g) - (f * f - g * g), sympy.Integer(0)),
        (f * (g - g), sympy.Integer(0)),
    ):
        assert sympy.expand(_to_sympy(result) - expected) == 0
        assert all(type(c) is Fraction and c != 0 for c in result.terms.values())
        assert result == MultiPoly(_POLY_VARS, dict(result.terms))
        _assert_canonical(result)
    assert f * g == g * f
    assert (f - f).terms == {}


def test_cyclotomic_products_stay_canonical():
    w = zeta(3)
    y = MultiPoly.variable(_POLY_VARS, "y1")
    # zeta3 * zeta3^2 = 1 demotes to a rational coefficient
    prod = (y * w) * (y * (w * w))
    assert prod.terms == {(2, 0, 0): Fraction(1)}
    assert type(prod.terms[(2, 0, 0)]) is Fraction
    _assert_canonical(prod)  # stored as numerators once the cyclotomic part cancels
    assert (y * w) * y - y * (y * w) == 0


_BIG_DENOMINATORS = (1, 2, 3, 7, 10**9 + 7, 998244353, 2**61 - 1, 10**12)
_big_rationals = st.builds(
    Fraction,
    st.integers(-(10**15), 10**15),
    st.sampled_from(_BIG_DENOMINATORS),
)
_big_terms = st.dictionaries(
    st.tuples(*(st.integers(0, 2) for _ in _POLY_VARS)), _big_rationals, max_size=5
)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_big_terms, _big_terms, st.sampled_from(_BIG_DENOMINATORS[1:]))
def test_rational_kernel_big_coprime_denominators(tf, tg, den):
    f, g = MultiPoly(_POLY_VARS, tf), MultiPoly(_POLY_VARS, tg)
    # scaling by den and 1/den cancels denominators across the two operands
    for result, expected in (
        (f * g, _to_sympy(f) * _to_sympy(g)),
        ((f * den) * (g * Fraction(1, den)), _to_sympy(f) * _to_sympy(g)),
        ((f + g) * (f - g) - f * f + g * g, sympy.Integer(0)),
    ):
        assert sympy.expand(_to_sympy(result) - expected) == 0
        assert all(type(c) is Fraction and c != 0 for c in result.terms.values())
        _assert_canonical(result)


# -- numerators over one denominator --------------------------------------------

_REF_CTX = ("x", "y1", "z")
_REF_WIDE = ("t", "z", "y1", "x")  # embed target: reordered, with an extra variable


_FIELD_BITS = 32  # each variable's field in a packed key, variable 0 the most significant
_LIMIT = 2**31  # every exponent is below this: the field's top (guard) bit stays clear


def _decode(key, n):
    """The exponent vector a packed key of an n-variable context stands for."""
    assert type(key) is int and 0 <= key < 2 ** (_FIELD_BITS * n)
    mask = 2**_FIELD_BITS - 1
    return tuple(key >> (_FIELD_BITS * (n - 1 - i)) & mask for i in range(n))


def _assert_canonical(p):
    """The stored form of either kind, its packed keys, and its terms view."""
    assert all(
        (type(c) is Fraction or isinstance(c, CycElem)) and c != 0 for c in p.terms.values()
    )
    decoded = {_decode(e, len(p.vars)): c for e, c in p._num.items()}
    assert len(decoded) == len(p._num)
    assert all(e < _LIMIT for exps in decoded for e in exps)  # every key decodes below the limit
    if all(type(c) is Fraction for c in p.terms.values()):
        num, den = p._num, p._den
        assert type(den) is int and den > 0
        assert all(type(n) is int and n != 0 for n in num.values())
        assert gcd(den, *num.values()) == 1
        assert num or den == 1
        assert p.terms == {e: Fraction(n, den) for e, n in decoded.items()}
    else:
        assert p._den == 1
        assert decoded == p.terms
        assert any(isinstance(c, CycElem) for c in p._num.values())


def _ref_clean(d):
    return {e: c for e, c in d.items() if c != 0}


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out[e] + c if e in out else c
    return _ref_clean(out)


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return _ref_clean(out)


def _ref_reduce(terms, lead, replacement):
    """Rewrite one divisible term at a time until none is left."""
    terms = dict(terms)
    while True:
        hit = next((e for e in terms if all(a >= b for a, b in zip(e, lead))), None)
        if hit is None:
            return terms
        c = terms.pop(hit)
        q = tuple(a - b for a, b in zip(hit, lead))
        terms = _ref_add(terms, _ref_mul({q: c}, replacement))


_REF_DENOMINATORS = (1, 2, 3, 4, 6, 7, 12, 10**9 + 7, 998244353, 2**61 - 1)
_ref_rationals = st.builds(
    Fraction, st.integers(-(10**12), 10**12), st.sampled_from(_REF_DENOMINATORS)
)
_ref_scalars = st.one_of(
    _ref_rationals,
    _ref_rationals,
    st.builds(lambda q, w: q * w, _ref_rationals, st.sampled_from([zeta(3), zeta(4), zeta(6, 5)])),
)
_ref_exps = st.tuples(*(st.integers(0, 2) for _ in _REF_CTX))


@st.composite
def _ref_operands(draw):
    """Two coefficient dicts; b often cancels part of a, across denominators."""
    coeffs = _ref_scalars if draw(st.booleans()) else _ref_rationals
    a = _ref_clean(draw(st.dictionaries(_ref_exps, coeffs, max_size=5)))
    b = _ref_clean(draw(st.dictionaries(_ref_exps, coeffs, max_size=5)))
    for e in draw(st.lists(st.sampled_from(sorted(a)), max_size=3)) if a else ():
        b[e] = -a[e]  # cancelling terms
    return a, b


@settings(max_examples=70, deadline=None, derandomize=True, database=None)
@given(_ref_operands(), st.one_of(st.integers(-6, 6), _ref_rationals, st.just(zeta(3) * 2)))
def test_numerator_kernel_matches_fraction_reference(operands, k):
    ta, tb = operands
    f, g = MultiPoly(_REF_CTX, ta), MultiPoly(_REF_CTX, tb)
    for result, expected in (
        (f, ta),
        (f + g, _ref_add(ta, tb)),
        (f - g, _ref_add(ta, {e: -c for e, c in tb.items()})),
        (f + g - g, ta),
        (g - f + f - g, {}),
        (-f, {e: -c for e, c in ta.items()}),
        (f * k, _ref_clean({e: c * k for e, c in ta.items()})),
        (k * f - f * k, {}),
        (f + k, _ref_add(ta, {(0, 0, 0): k})),
        (f * g, _ref_mul(ta, tb)),
        (f**2, _ref_mul(ta, ta)),
        (g**3, _ref_mul(tb, _ref_mul(tb, tb))),
        (f**0, {(0, 0, 0): Fraction(1)}),
    ):
        _assert_canonical(result)
        assert result.terms == expected
        assert result == MultiPoly(_REF_CTX, expected)
    wide = f.embed(_REF_WIDE)
    _assert_canonical(wide)
    assert wide.terms == {(0, e[2], e[1], e[0]): c for e, c in ta.items()}
    assert wide.embed(_REF_CTX) == f


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_ref_operands(), st.sampled_from([(1, 2, 0), (1, 1, 1), (1, 0, 0)]))
def test_reduce_by_rule_matches_fraction_reference(operands, lead):
    ta, tb = operands
    # the replacement has no x, so every rewrite lowers the x-degree
    tb = _ref_clean({(0,) + e[1:]: c for e, c in tb.items()})
    f, replacement = MultiPoly(_REF_CTX, ta), MultiPoly(_REF_CTX, tb)
    result = reduce_by_rule(f, MultiPoly(_REF_CTX, {lead: 1}), replacement)
    _assert_canonical(result)
    assert result.terms == _ref_reduce(ta, lead, tb)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_ref_operands(), st.sampled_from([zeta(3), zeta(4), zeta(6, 5), Fraction(-3, 2)]))
def test_equality_reads_the_stored_form(operands, w):
    """f == g agrees with (f - g).is_zero() and with the reference dicts.

    Equality compares the stored forms, so results whose cyclotomic parts
    cancel must come back as int numerators, like any rational polynomial.
    """
    ta, tb = operands
    f, g = MultiPoly(_REF_CTX, ta), MultiPoly(_REF_CTX, tb)
    x, y1 = MultiPoly.variable(_REF_CTX, "x"), MultiPoly.variable(_REF_CTX, "y1")
    z3, z8, half = zeta(3), zeta(8), Fraction(1, 2)
    wa = _ref_clean({e: c * w for e, c in ta.items()})
    candidates = (
        (f, ta),
        (g, tb),
        (f * g, _ref_mul(ta, tb)),
        (g * f, _ref_mul(ta, tb)),
        (f * w, wa),
        (f * w * (1 / w), ta),
        (f * w + g - f * w, tb),
        (f * w - w * f, {}),
        ((z3 * x) * (z3**2 * y1), {(1, 1, 0): Fraction(1)}),
        ((z8 * x + half * x) - z8 * x, {(1, 0, 0): half}),
        (x * y1, {(1, 1, 0): Fraction(1)}),
        (x, {(1, 0, 0): Fraction(1)}),  # the numerators of x/2 over another denominator
    )
    for p, expected in candidates:
        _assert_canonical(p)
        assert p.terms == expected
        if all(type(c) is Fraction for c in expected.values()):
            assert all(type(n) is int for n in p._num.values())
    for p, rp in candidates:
        for q, rq in candidates:
            assert (p == q) == (p - q).is_zero() == (rp == rq)


# -- parsing against sympy ------------------------------------------------------


def _juxtapose(left, right):
    """Implicit product text: 2y1, (y1+1)(y2-1), y1 y2, 2 3."""
    number_then_name = re.search(r"(^|[^\w])\d+$", left) and right[0].isalpha()
    if right[0] == "(" or left[-1] == ")" or number_then_name:
        return left + right
    return left + " " + right


# strategies draw (text, reference): the reference is Python source over
# sympy Polys with every step parenthesised, so precedence is explicit


@st.composite
def _parse_expr(draw, depth=2):
    """A random sum of products."""
    text, ref = draw(_parse_product(depth))
    for _ in range(draw(st.integers(0, 2))):
        ptext, pref = draw(_parse_product(depth))
        op = draw(st.sampled_from("+-"))
        text, ref = f"{text} {op} {ptext}", f"({ref}) {op} ({pref})"
    return text, ref


@st.composite
def _parse_factor(draw, depth):
    kind = draw(st.sampled_from(["int", "var", "var", "paren"] if depth else ["int", "var"]))
    if kind == "int":
        text = ref = str(draw(st.integers(0, 12)))
    elif kind == "var":
        text = ref = draw(st.sampled_from(_POLY_VARS))
    else:
        inner, ref = draw(_parse_expr(depth - 1))
        text = f"({inner})"
    if draw(st.booleans()):
        k = draw(st.integers(0, 3))
        text, ref = f"{text}^{k}", f"({ref})**{k}"
    if draw(st.integers(0, 3)) == 0:  # unary minus binds looser than ^
        text, ref = "-" + text, f"-({ref})"
    return text, ref


@st.composite
def _parse_product(draw, depth):
    text, ref = draw(_parse_factor(depth))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["*", "juxt", "/"]))
        if op == "/":
            k = draw(st.integers(1, 9))
            den, value = draw(st.sampled_from([(str(k), k), (f"({k})", k), (f"{k}^2", k * k), (f"-{k}", -k)]))
            text, ref = f"{text}/{den}", f"({ref}) * Q(1, {value})"
            continue
        ftext, fref = draw(_parse_factor(depth))
        if op == "*" or ftext[0] in "+-":  # juxtaposed "-" would read as a difference
            text = f"{text}*{ftext}"
        else:
            text = _juxtapose(text, ftext)
        ref = f"({ref}) * ({fref})"
    return text, ref


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_parse_expr())
@example(("-y1^2", "-(y1**2)"))
@example(("2y1 - (y1+1)(y2-1)/3", "2*y1 - (y1+1)*(y2-1) * Q(1, 3)"))
def test_parse_poly_matches_sympy(case):
    text, ref = case
    f = parse_poly(text, _POLY_VARS)
    _assert_canonical(f)
    names = {name: sympy.Poly(x, *_SYMS, domain="QQ") for name, x in zip(_POLY_VARS, _SYMS)}
    expected = sympy.Poly(eval(ref, {"Q": sympy.Rational, **names}), *_SYMS, domain="QQ")
    got = {e: sympy.Rational(c.numerator, c.denominator) for e, c in f.terms.items()}
    assert got == {e: c for e, c in expected.as_dict().items() if c}, text


def test_parse_poly_error_messages():
    for text, message in (
        ("((y1", "unexpected end"),
        ("y1^", "unexpected end"),
        ("y1 +", "unexpected end"),
        ("y1)", "trailing tokens"),
        ("(y1+1", "unexpected end"),
        ("(y1+1]", "unexpected character"),
        ("y1/y2", "division only by nonzero constants"),
        ("y1/(y2-y2+z)", "division only by nonzero constants"),
        ("y1/(2-2)", "division by zero"),
        ("y1/0^3", "division by zero"),
        ("y1^-2", "negative exponents are not supported"),
        ("y1^y2", "exponent must be an integer literal"),
        ("w + 1", "unknown variable 'w'"),
        ("y1^\u00b2", "unexpected character '\u00b2' in polynomial"),  # superscript two
    ):
        with pytest.raises(ValueError, match=message.replace("(", r"\(")):
            parse_poly(text, _POLY_VARS)
    # a Unicode decimal digit (here an Arabic-Indic three) reads as a number, as int reads it
    assert parse_poly("y1^\u0663", _POLY_VARS) == parse_poly("y1^3", _POLY_VARS)


def _loop_tokenize(text):
    """The character loop the compiled token pattern replaced: the oracle."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^()":
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(int(text[i:j]))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
        elif ch == "/":
            tokens.append("/")
            i += 1
        else:
            raise ValueError(f"unexpected character {ch!r} in polynomial")
    return tokens


def _tokens_or_message(tokenize, text):
    try:
        return tokenize(text)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet="xyzXh_0129+-*^()/ \t].,$", max_size=16))
def test_tokenizer_matches_the_character_loop(text):
    """On ASCII text the pattern reads the loop's tokens, or fails with its
    message, and free_symbols reads the names among those tokens."""
    tokens = _tokens_or_message(_loop_tokenize, text)
    assert _tokens_or_message(_tokenize, text) == tokens
    if isinstance(tokens, list):
        assert free_symbols(text) == {t[1] for t in tokens if isinstance(t, tuple)}


# -- grouped substitution ------------------------------------------------------

_SUB_SPEC = variety([2, 2], True, "z^3+z+y1-y2")
_SUB_CTX = _SUB_SPEC.vars + ("t",)  # images may live in a larger context
_sub_scalars = st.sampled_from(
    [Fraction(1), Fraction(-1), Fraction(3, 7), Fraction(-5, 2), zeta(3), zeta(3, 2) * 2,
     zeta(4), zeta(4) * Fraction(2, 3), zeta(6) * Fraction(-1, 5)]
)
_sub_exps = st.tuples(*(st.integers(0, 1) for _ in _SUB_CTX))
# few single-term targets, so distinct terms of f often fold onto one monomial
_sub_monomials = st.sampled_from(
    [(0, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 0, 1), (0, 1, 0, 0, 1)]
)


@st.composite
def _substitution(draw):
    """f with exponents up to 6, so a multi-term variable's powers in f leave
    gaps and Horner's rule runs several steps; each image is single-term
    (scaled, with denominators and cyclotomic scalars), multi-term or zero,
    so one draw may nest Horner's rule in two or more variables."""
    f = MultiPoly(
        _SUB_SPEC.vars,
        draw(
            st.dictionaries(
                st.tuples(*(st.integers(0, 6) for _ in _SUB_SPEC.vars)),
                _sub_scalars,
                max_size=4,
            )
        ),
    )
    images = {}
    for name in _SUB_SPEC.vars:
        kind = draw(st.sampled_from(["single", "multi", "zero"]))
        if kind == "single":
            images[name] = MultiPoly(_SUB_CTX, {draw(_sub_monomials): draw(_sub_scalars)})
        elif kind == "multi":
            terms = draw(st.dictionaries(_sub_exps, _sub_scalars, min_size=2, max_size=3))
            images[name] = MultiPoly(_SUB_CTX, terms)
        else:
            images[name] = MultiPoly.zero(_SUB_CTX)
    return f, images


def _naive_substitute(f, images):
    """Term-by-term expansion with the generic scalar operations."""

    def mul(a, b):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
        return out

    total = {}
    for exps, c in f.terms.items():
        term = {(0,) * len(_SUB_CTX): c}
        for name, e in zip(f.vars, exps):
            for _ in range(e):
                term = mul(term, images[name].terms)
        for e, x in term.items():
            total[e] = total[e] + x if e in total else x
    return MultiPoly(_SUB_CTX, total)


def _nested_horner():
    """Two multi-term images whose powers in f leave gaps, and scaled
    single-term images with a denominator and a cyclotomic scalar."""
    f = parse_poly("x^6*z^5 - 2/3*x^2*z + x*y1^3 + 7*z^4*y2^2 + 3", _SUB_SPEC.vars)
    y1, y2, t = (MultiPoly.variable(_SUB_CTX, n) for n in ("y1", "y2", "t"))
    images = {"x": y2 - t, "y1": y2 * zeta(4) * Fraction(2, 3), "y2": t * Fraction(-5, 2),
              "z": y1 * t + 2 * y2 - 1}
    return f, images


def _folding_collision():
    """y1 and y2 both fold onto y2 while x and z stay multi-term."""
    f = parse_poly("x*y1*z + 2*x*y2*z + y1^2 - y2^2 + x", _SUB_SPEC.vars)
    y2, t = (MultiPoly.variable(_SUB_CTX, n) for n in ("y2", "t"))
    images = {"x": y2 + t, "y1": y2 * zeta(3), "y2": y2, "z": y2 * t - 1}
    return f, images


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_substitution())
@example(_folding_collision())
@example(_nested_horner())
def test_grouped_substitution_matches_naive_expansion(case):
    f, images = case

    def nf(g):
        return normal_form(g, _SUB_SPEC)

    expected = _naive_substitute(f, images)
    assert substitute(f, images) == expected
    assert substitute(f, images, nf) == nf(expected)
    assert substitute(f, images).vars == _SUB_CTX


# -- packed keys at the exponent limit -------------------------------------------

_LIMIT_ERROR = "is not below the limit 2\\^31"
# exponents near 0, near half the limit (two of them reach it) and just below it
_near_limit = st.one_of(
    st.integers(0, 2),
    st.integers(_LIMIT // 2 - 2, _LIMIT // 2 + 1),
    st.integers(_LIMIT - 3, _LIMIT - 1),
)
_carry_coeffs = st.builds(
    Fraction, st.integers(-(10**6), 10**6).filter(bool), st.sampled_from([1, 2, 3, 7])
)


def _carry_terms(exps, min_size=0, max_size=4):
    return st.dictionaries(exps, _carry_coeffs, min_size=min_size, max_size=max_size)


def _exps(n, values=_near_limit):
    return st.tuples(*(values for _ in range(n)))


def _carry_mul(a, b):
    """Product of tuple-keyed dicts, and the largest exponent a term product forms."""
    out, top = {}, 0
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            top = max(top, *e)
            out[e] = out.get(e, 0) + c1 * c2
    return _ref_clean(out), top


def _carry_reduce(terms, lead, replacement):
    """Rewrite every divisible term at once per round, as reduce_by_rule does;
    returns the result and the largest exponent a round forms."""
    top = 0
    while True:
        quotient = {}
        for e in [e for e in terms if all(a >= b for a, b in zip(e, lead))]:
            quotient[tuple(a - b for a, b in zip(e, lead))] = terms.pop(e)
        if not quotient:
            return terms, top
        product, formed = _carry_mul(quotient, replacement)
        top = max(top, formed)
        terms = _ref_add(terms, product)


def _carry_substitute(f, images, ctx):
    """Term-by-term expansion, and the largest exponent any step forms."""
    total, top = {}, 0
    for exps, c in f.items():
        term = {(0,) * len(ctx): c}
        for name, k in zip(_REF_CTX, exps):
            image = images[name]
            if len(image) == 1:
                ((m, a),) = image.items()
                term = {tuple(x + k * y for x, y in zip(e, m)): t * a**k for e, t in term.items()}
                top = max([top] + [x for e in term for x in e])
            else:
                for _ in range(k):
                    term, formed = _carry_mul(term, image)
                    top = max(top, formed)
        total = _ref_add(total, term)
    return total, top


def _agrees(compute, expected, top, exact=True):
    """compute() equals the tuple-keyed reference, or raises the limit error
    because the reference formed an exponent at the limit (exactly then,
    when both form the same term products)."""
    try:
        got = compute()
    except ValueError as exc:
        assert re.search(_LIMIT_ERROR, str(exc)), exc
        assert top >= _LIMIT
        return
    _assert_canonical(got)
    assert got.terms == expected
    assert not exact or top < _LIMIT


@st.composite
def _carry_case(draw):
    """f and g with exponents near the limit in every field; a rule variable
    that f keeps small, its lead and replacement; an image of each variable.

    Single-term images fold: monic ones and -1 times a monomial take any
    exponent of f, other scaled ones (whose powers of the scale grow with
    the exponent) and multi-term images of small exponents take small ones.
    """
    n = len(_REF_CTX)
    kinds = [draw(st.sampled_from(["monic", "sign", "scaled", "multi"])) for _ in range(n)]
    small = st.integers(0, 2)
    f_exps = st.tuples(*(_near_limit if k in ("monic", "sign") else small for k in kinds))
    f = draw(_carry_terms(f_exps))
    g = draw(_carry_terms(_exps(n)))
    rule = draw(st.integers(0, n - 1))
    f_rule = draw(_carry_terms(st.tuples(*(small if i == rule else _near_limit for i in range(n)))))
    lead = draw(_exps(n, st.one_of(st.just(0), _near_limit)))
    lead = lead[:rule] + (1,) + lead[rule + 1:]
    replacement = draw(_carry_terms(_exps(n), min_size=1))
    replacement = _ref_clean({e[:rule] + (0,) + e[rule + 1:]: c for e, c in replacement.items()})
    images = {}
    for name, kind in zip(_REF_CTX, kinds):
        if kind == "multi":
            images[name] = draw(_carry_terms(_exps(len(_REF_WIDE), small), min_size=2))
            continue
        mono = draw(_exps(len(_REF_WIDE), st.one_of(st.integers(0, 4), _near_limit)))
        scale = {"monic": Fraction(1), "sign": Fraction(-1)}.get(kind) or draw(_carry_coeffs)
        images[name] = {mono: scale}
    return f, g, (f_rule, lead, replacement), images


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_carry_case())
def test_packed_keys_never_carry_between_fields(case):
    """Every kernel operation on exponents near 2^31, in every field, matches
    a tuple-keyed reference or raises the limit error: no field overflows
    silently into its neighbour."""
    tf, tg, (tr, lead, trep), timages = case
    f, g = MultiPoly(_REF_CTX, tf), MultiPoly(_REF_CTX, tg)
    _assert_canonical(f)
    _agrees(lambda: f * g, *_carry_mul(tf, tg))
    _agrees(lambda: g * f, *_carry_mul(tf, tg))
    r, replacement = MultiPoly(_REF_CTX, tr), MultiPoly(_REF_CTX, trep)
    rule = MultiPoly(_REF_CTX, {lead: 1})
    _agrees(lambda: reduce_by_rule(r, rule, replacement), *_carry_reduce(dict(tr), lead, trep))
    images = {name: MultiPoly(_REF_WIDE, t) for name, t in timages.items()}
    expected, top = _carry_substitute(tf, timages, _REF_WIDE)
    _agrees(lambda: substitute(f, images), expected, top, exact=False)
    for divisor in (lead, next(iter(tg), lead)):
        m = MultiPoly(_REF_CTX, {divisor: 1})
        if all(all(a >= b for a, b in zip(e, divisor)) for e in tg):
            quotient = divide_by_monomial(g, m)
            _assert_canonical(quotient)
            assert quotient.terms == {tuple(a - b for a, b in zip(e, divisor)): c for e, c in tg.items()}
        else:
            with pytest.raises(AssertionError):
                divide_by_monomial(g, m)
    for i, name in enumerate(_REF_CTX):
        expected = {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in tg.items() if e[i]}
        result = derivative(g, name)
        _assert_canonical(result)
        assert result.terms == expected
    wide = g.embed(_REF_WIDE)
    _assert_canonical(wide)
    assert wide.terms == {(0, e[2], e[1], e[0]): c for e, c in tg.items()}
    assert wide.embed(_REF_CTX) == g


def _ref_weight(exps, names, weights):
    """A term's weighted degree as the filtration and grading code once read
    it from the terms view: a variable missing from weights weighs 0."""
    w = 0
    for e, name in zip(exps, names):
        if e and name in weights:
            w += e * weights[name]
    return w


@st.composite
def _weighted_case(draw):
    """A polynomial in a context with or without extra variables, and
    weights that are zero, negative, missing, or given for names outside
    the context."""
    ctx = draw(st.sampled_from([_REF_CTX, _REF_WIDE, ("z",)]))
    coeffs = draw(st.sampled_from([_carry_coeffs, _ref_scalars]))
    terms = draw(st.dictionaries(_exps(len(ctx)), coeffs, max_size=6))
    names = draw(st.lists(st.sampled_from(ctx + ("h",)), unique=True))
    weights = {name: draw(st.integers(-3, 3) | st.integers(-(10**6), 10**6)) for name in names}
    return MultiPoly(ctx, terms), weights


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_weighted_case())
@example((MultiPoly.zero(_REF_CTX), {"x": 2, "z": 1}))
@example((MultiPoly(_REF_CTX, {(1, 5, 0): 1, (0, 0, 2): Fraction(1, 2), (0, 7, 0): 3}), {"x": 2, "z": 1}))
def test_weighted_parts_match_the_terms_walk(case):
    """weighted_parts, read from the packed keys, splits f as a walk over
    its terms does; every term of a part has that part's weight, each part
    is in the stored form, and the parts sum back to f."""
    f, weights = case
    parts = weighted_parts(f, weights)
    expected: dict = {}
    for exps, c in f.terms.items():
        expected.setdefault(_ref_weight(exps, f.vars, weights), {})[exps] = c
    assert {w: part.terms for w, part in parts.items()} == expected
    for w, part in parts.items():
        _assert_canonical(part)
        assert part.vars == f.vars and not part.is_zero()
        assert all(_ref_weight(e, f.vars, weights) == w for e in part.terms)
    assert sum(parts.values(), MultiPoly.zero(f.vars)) == f
    assert f.is_zero() == (parts == {})


def test_exponents_at_the_limit_raise_one_line_errors():
    """2^31 - 1 is the largest exponent in any field; a product, power,
    substitution, parse or constructor that reaches 2^31 raises ValueError."""
    ctx = ("y", "z")
    y, z = (MultiPoly.variable(ctx, name) for name in ctx)
    y_top, z_top = (MultiPoly.monomial(ctx, {name: _LIMIT - 1}) for name in ctx)
    assert (y_top * z_top).terms == {(_LIMIT - 1, _LIMIT - 1): 1}
    assert parse_poly("z^2147483647", ctx) == z_top
    # y's top power is 2^29, though the bitwise or of its powers is 2^30 - 1: 3 * 2^29 still folds
    f = MultiPoly(ctx, {(2**29, 0): 1, (2**29 - 1, 0): 1})
    assert substitute(f, {"y": z**3, "z": z}).terms == {(0, 3 * 2**29): 1, (0, 3 * 2**29 - 3): 1}
    for compute, message in (
        (lambda: y_top * y, "exponent 2147483648 of y"),  # the top field
        (lambda: z * z_top, "exponent 2147483648 of z"),  # the bottom field, next to y's
        (lambda: (y_top + z_top) * (y + z), "exponent 2147483648 of"),
        (lambda: (z + 1) ** 2 * z_top, "exponent 2147483649 of z"),
        (lambda: z ** (2**31), "exponent 2147483648 of z"),
        (lambda: substitute(y_top, {"y": z**2, "z": z}), "exponent 4294967294 of z"),
        (lambda: substitute(y_top * z, {"y": z, "z": z}), "exponent 2147483648 of z"),
        # 4 * 2^30 = 2^32 would carry out of z's field into y's and clear its guard bit
        (lambda: substitute(y ** (2**30), {"y": z**4, "z": z}), "exponent 4294967296 of z"),
        (lambda: reduce_by_rule(y * z_top, y, z), "exponent 2147483648 of z"),
        (lambda: MultiPoly.monomial(ctx, {"z": _LIMIT}), "exponent 2147483648 of z"),
        (lambda: MultiPoly(ctx, {(_LIMIT + 1, 0): 1}), "exponent 2147483649 of y"),
        (lambda: parse_poly("z^2147483648", ctx), "exponent 2147483648 of z"),
        (lambda: parse_poly("y z^2147483647 z", ctx), "exponent 2147483648 of z"),
        (lambda: parse_poly("(z)^2147483648", ctx), "exponent 2147483648 of z"),
        (lambda: parse_poly("(y*z^1073741824)^2", ctx), "exponent 2147483648 of z"),
    ):
        with pytest.raises(ValueError, match=message) as info:
            compute()
        assert str(info.value).endswith("is not below the limit 2^31")
        assert "\n" not in str(info.value)
