"""Derivations, exponentials, gradings, and the nilpotency filtration."""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from danaut import (
    MultiPoly,
    SpecError,
    canonical_group,
    canonical_lnd,
    derivative,
    exp_replica,
    group_element_map,
    gr_leading_form,
    make_variety,
    normal_form,
    parse_poly,
    substitute,
    tilde_degree,
)
from danaut.autgroup import _element_images, invert_element
from danaut.derivations import automorphism_defect, unit_variable_image
from danaut.poly import divide_by_monomial
from danaut.varieties import REGIME_ALL_GE2
from conftest import (
    Derivation,
    apply_derivation,
    compose_maps,
    fixes_generators,
    load_fixture,
    random_kernel_poly,
    random_quotient_element,
    two_sided_defect,
    variety,
)


@pytest.fixture
def e4():
    return variety([2, 2], True, "z^3+z+y1-y2")


def v(spec, name):
    return MultiPoly.variable(spec.vars, name)


def test_canonical_lnd_examples(e4):
    assert canonical_lnd(e4) == {
        "x": parse_poly("3z^2+1", e4.vars), "z": parse_poly("y1^2*y2^2", e4.vars)
    }

    e2 = variety([2], True, "z^3+(y1+1)z+1")
    d2 = canonical_lnd(e2)
    assert d2["z"] == parse_poly("y1^2", e2.vars)
    assert d2["x"] == parse_poly("3z^2+y1+1", e2.vars)

    simple = variety([2], True, "z^2")
    ds = canonical_lnd(simple)
    assert ds["z"] == parse_poly("y1^2", simple.vars)
    assert ds["x"] == parse_poly("2z", simple.vars)

    three = variety([2, 2, 3], True, "z^2 + y1^2*y2^3*y3^4 + y3^3 + 1")
    dt = canonical_lnd(three)
    assert dt["z"] == parse_poly("y1^2*y2^2*y3^3", three.vars)
    assert dt["x"] == parse_poly("2z", three.vars)

    with pytest.raises(SpecError):
        canonical_lnd(variety([2, 3], False, "z^4+z"))


def test_apply_examples(e4):
    der = Derivation(e4, canonical_lnd(e4))
    assert apply_derivation(der, v(e4, "z")) == parse_poly("y1^2*y2^2", e4.vars)
    assert apply_derivation(der, v(e4, "y1")).is_zero()
    assert apply_derivation(der, v(e4, "x")) == parse_poly("3z^2+1", e4.vars)


def test_leibniz_randomized(e4):
    rng = random.Random(20240612)
    der = Derivation(e4, canonical_lnd(e4))
    for _ in range(200):
        f = random_quotient_element(rng, e4)
        g = random_quotient_element(rng, e4)
        lhs = apply_derivation(der, normal_form(f * g, e4))
        rhs = normal_form(
            f * apply_derivation(der, g) + g * apply_derivation(der, f), e4
        )
        assert lhs == rhs


def nilpotency_index(der: Derivation, f: MultiPoly, bound: int = 64) -> int:
    """Least n with der^n(f) = 0 in the quotient; errors past the bound."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    g = normal_form(f.embed(der.spec.vars) if f.vars != der.spec.vars else f, der.spec)
    n = 0
    while not g.is_zero():
        if n >= bound:
            raise ValueError(f"derivation not nilpotent on input within bound {bound}")
        g = apply_derivation(der, g)
        n += 1
    return n


def test_nilpotency_examples(e4):
    der = Derivation(e4, canonical_lnd(e4))
    assert nilpotency_index(der, v(e4, "y1")) == 1
    assert nilpotency_index(der, v(e4, "z")) == 2
    # d(x)=3z^2+1, d^2(x)=6zM, d^3(x)=6M^2, d^4(x)=0
    assert nilpotency_index(der, v(e4, "x")) == 4
    with pytest.raises(ValueError):
        nilpotency_index(der, v(e4, "x"), bound=2)


def test_well_definedness_enforced(e4):
    with pytest.raises(ValueError):
        Derivation(e4, {"z": MultiPoly.const(e4.vars, 1)})


def test_exp_replica_displayed_maps(e4):
    ctx = e4.vars + ("h",)
    h = MultiPoly.variable(ctx, "h")
    gm = exp_replica(e4, h)
    assert gm.images["z"] == parse_poly("z + y1^2*y2^2*h", ctx)
    assert gm.images["x"] == parse_poly(
        "x + (3z^2+1)*h + 3*z*y1^2*y2^2*h^2 + y1^4*y2^4*h^3", ctx
    )
    assert gm.images["y1"] == MultiPoly.variable(ctx, "y1")
    assert automorphism_defect(e4, gm.images, gm.inverse_images) is None

    e2 = variety([2], True, "z^3+(y1+1)z+1")
    ctx2 = e2.vars + ("h",)
    g2 = exp_replica(e2, MultiPoly.variable(ctx2, "h"))
    assert g2.images["z"] == parse_poly("z + y1^2*h", ctx2)
    assert g2.images["x"] == parse_poly(
        "x + (3z^2+y1+1)*h + 3*z*y1^2*h^2 + y1^4*h^3", ctx2
    )
    assert automorphism_defect(e2, g2.images, g2.inverse_images) is None


def test_exp_replica_zero_is_identity(e4):
    gm = exp_replica(e4, MultiPoly.zero(e4.vars))
    assert fixes_generators(gm)


def test_exp_replica_rejects_non_kernel(e4):
    with pytest.raises(ValueError):
        exp_replica(e4, v(e4, "z"))
    with pytest.raises(ValueError):
        exp_replica(e4, v(e4, "x"))


def test_exp_inverse_and_additivity(e4):
    rng = random.Random(77)
    for _ in range(30):
        h1 = random_kernel_poly(rng, e4)
        h2 = random_kernel_poly(rng, e4)
        g1, g2 = exp_replica(e4, h1), exp_replica(e4, h2)
        assert fixes_generators(compose_maps(g1, exp_replica(e4, -h1)))
        both = compose_maps(g1, g2)
        expected = exp_replica(e4, h1 + h2)
        for name in e4.vars:
            assert both.images[name] == expected.images[name]


def test_tilde_degree(e4):
    assert tilde_degree(v(e4, "y1") * v(e4, "y2"), e4) == 0
    assert tilde_degree(v(e4, "z"), e4) == 1
    # iterate apply: d(x), d^2(x), d^3(x) nonzero and d^4(x) = 0, so x has
    # filtration degree 3 = d (matching the z^d relation in the graded ring)
    assert tilde_degree(v(e4, "x"), e4) == 3
    with pytest.raises(ValueError):
        tilde_degree(MultiPoly.zero(e4.vars), e4)


def test_tilde_degree_matches_iteration(e4):
    rng = random.Random(5)
    der = Derivation(e4, canonical_lnd(e4))
    for _ in range(25):
        f = random_quotient_element(rng, e4)
        assert tilde_degree(f, e4) == nilpotency_index(der, f, bound=32) - 1


def test_tilde_degree_additivity(e4):
    rng = random.Random(6)
    for _ in range(100):
        f = random_quotient_element(rng, e4)
        g = random_quotient_element(rng, e4)
        assert tilde_degree(normal_form(f * g, e4), e4) == tilde_degree(
            f, e4
        ) + tilde_degree(g, e4)


def test_gr_leading_form(e4):
    assert gr_leading_form(v(e4, "z") + v(e4, "y1"), e4) == v(e4, "z")
    assert gr_leading_form(v(e4, "y1"), e4) == v(e4, "y1")
    assert gr_leading_form(v(e4, "z") * (v(e4, "z") + v(e4, "y1")), e4) == v(e4, "z") ** 2


def test_filtration_preserved_by_exponentials(e4):
    rng = random.Random(20240613)
    for _ in range(50):
        h = random_kernel_poly(rng, e4)
        psi = exp_replica(e4, h)
        f = random_quotient_element(rng, e4)
        assert tilde_degree(psi.apply_to(f), e4) == tilde_degree(f, e4)


# -- reduction while substituting ----------------------------------------------

_coeffs = st.integers(-2, 2).map(Fraction)


@st.composite
def _danielewski_map(draw):
    """A random Danielewski presentation, a map of one of three kinds, a poly."""
    m = draw(st.integers(1, 2))
    weights = draw(st.lists(st.integers(2, 3), min_size=m, max_size=m))
    d = draw(st.integers(2, 4))
    ys = [f"y{i+1}" for i in range(m)]
    lower = [
        f"({draw(_coeffs)})*{draw(st.sampled_from(ys + ['1']))}*z^{i}"
        for i in range(d - 1)
    ]
    spec = variety(weights, True, " + ".join([f"z^{d}"] + lower))
    kind = draw(st.sampled_from(["exp", "element", "random"]))

    def poly(ctx, max_exp):
        terms = draw(
            st.dictionaries(
                st.tuples(*(st.integers(0, max_exp) for _ in ctx)), _coeffs, max_size=4
            )
        )
        return MultiPoly(ctx, terms)

    if kind == "exp":
        ctx = spec.vars + ("t",)
        kernel = MultiPoly(
            ctx,
            {
                tuple(0 if n in ("x", "z") else draw(st.integers(0, 1)) for n in ctx): c
                for c in draw(st.lists(_coeffs, max_size=2))
            },
        )
        images = exp_replica(spec, kernel).images
    elif kind == "element":
        ctx = spec.vars
        G = canonical_group(spec)
        assume(G.elements)
        sigma, scalars = draw(st.sampled_from(G.elements))
        images = group_element_map(spec, sigma, scalars).images
    else:
        ctx = spec.vars
        images = {name: poly(ctx, 1) for name in ctx}
    return spec, images, poly(ctx, 3)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_danielewski_map())
def test_reduced_substitution_matches_full_expansion(case):
    spec, images, g = case

    def nf(f):
        return normal_form(f, spec)

    defining = spec.defining_polynomial.embed(g.vars)
    for f in (g, defining):
        assert substitute(f, images, nf) == nf(substitute(f, images))


@st.composite
def _suspension_monomial_map(draw):
    """y^k = P(z) with all weights >= 2, a monomial map, and inverse images.

    The map is a signed weight-preserving permutation (an automorphism for
    some signs) or random scalar-times-monomial images (rarely one); the
    inverse is the true one, that one with z negated, or the map itself.
    """
    weights = draw(st.lists(st.integers(2, 3), min_size=1, max_size=2))
    d = draw(st.integers(2, 4))
    lower = [f"({draw(_coeffs)})*z^{i}" for i in range(d - 1)]
    spec = variety(weights, False, " + ".join([f"z^{d}"] + lower))
    ctx = spec.vars
    ys = [f"y{i+1}" for i in range(spec.m)]

    def var(name, c):
        return MultiPoly.variable(ctx, name) * Fraction(c)

    if draw(st.booleans()):
        perm = draw(st.permutations(range(spec.m)))
        assume(all(weights[i] == weights[j] for i, j in enumerate(perm)))
        n = spec.m + 1
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        images = {ys[i]: var(ys[j], signs[i]) for i, j in enumerate(perm)}
        inverse = {ys[j]: var(ys[i], signs[i]) for i, j in enumerate(perm)}
        images["z"] = inverse["z"] = var("z", signs[-1])
    else:
        nonzero = _coeffs.filter(bool)
        images = {
            name: MultiPoly(ctx, {tuple(draw(st.integers(0, 2)) for _ in ctx): draw(nonzero)})
            for name in ctx
        }
        inverse = images
    wrong = {**inverse, "z": -inverse["z"]}
    inverse = draw(st.sampled_from([inverse, wrong, images]))
    return spec, images, inverse


def ideal_member(f: MultiPoly, spec) -> bool:
    """Whether f lies in the principal ideal of the defining polynomial."""
    return normal_form(f, spec).is_zero()


def _defect_by_full_expansion(spec, images, inverse):
    """automorphism_defect's answer from unreduced substitutions and ideal_member."""
    if not ideal_member(substitute(spec.defining_polynomial, images), spec):
        return "map does not preserve the defining ideal"
    for name in spec.vars:
        v = MultiPoly.variable(spec.vars, name)
        fwd = substitute(images[name], inverse) - v
        bwd = substitute(inverse[name], images) - v
        if not ideal_member(fwd, spec) or not ideal_member(bwd, spec):
            return "supplied inverse is not a two-sided inverse"
    return None


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_suspension_monomial_map())
def test_suspension_defect_matches_full_expansion(case):
    """Reducing by the z^d rule while substituting decides membership exactly."""
    spec, images, inverse = case
    assert spec.regime == REGIME_ALL_GE2
    assert automorphism_defect(spec, images, inverse) == _defect_by_full_expansion(
        spec, images, inverse
    )


# -- one Taylor series for exp(+-hD) -------------------------------------------


@st.composite
def _spec_and_kernel(draw):
    """A Danielewski or one-unit presentation and a kernel element with a symbol t."""
    d = draw(st.integers(2, 4))
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(2, 3), min_size=1, max_size=2))
        ys = [f"y{i+1}" for i in range(len(weights))]
        lower = [
            f"({draw(_coeffs)})*{draw(st.sampled_from(ys + ['1']))}*z^{i}"
            for i in range(d - 1)
        ]
        spec = variety(weights, True, " + ".join([f"z^{d}"] + lower))
    else:
        spec = variety([1, draw(st.integers(2, 3))], False, f"z^{d} + {draw(_coeffs)}")
    ctx = spec.vars + ("t",)
    kernel_vars = [n for n in ctx if n not in (spec.x_role, "z")]
    h = MultiPoly(
        ctx,
        {
            tuple(draw(st.integers(0, 2)) if n in kernel_vars else 0 for n in ctx): c
            for c in draw(st.lists(_coeffs, max_size=3))
        },
    )
    return spec, h


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_spec_and_kernel())
def test_exp_inverse_images_are_exp_of_minus_h(case):
    spec, h = case
    gm = exp_replica(spec, h)
    assert gm.inverse_images == exp_replica(spec, -h).images
    assert gm.images == exp_replica(spec, -h).inverse_images


# -- closed forms against their defining series --------------------------------


def _taylor_exp(spec, h):
    """exp(hD)(v) = sum_k h^k D^k(v) / k! for every variable v of h's context."""
    der = Derivation(spec, canonical_lnd(spec))
    images = {}
    for name in h.vars:
        total = term = MultiPoly.variable(h.vars, name)
        k = 0
        while True:  # D kills the extra symbols, and D is locally nilpotent
            term = apply_derivation(der, term)
            if term.is_zero():
                break
            k += 1
            total = total + h**k * term * Fraction(1, factorial(k))
        images[name] = normal_form(total, spec)
    return images


_FIXTURES_WITH_ELEMENTS = (
    "bf03", "bf04", "bf06", "bf07", "bf08", "bf09", "bf10", "bf11", "bf12", "s7_e4"
)


@st.composite
def _canonical_element(draw):
    """A fixture presentation plus a multiple of M, and one canonical-group element."""
    spec = load_fixture(draw(st.sampled_from(_FIXTURES_WITH_ELEMENTS)) + ".json")
    # multiples of M set no constraint, so the group is the fixture's, and
    # z-degrees below d - 1 keep the presentation normalized
    terms = {
        tuple(
            0 if n == "x" else draw(st.integers(0, spec.d - 2 if n == "z" else 1))
            for n in spec.vars
        ): c
        for c in draw(st.lists(_coeffs, max_size=2))
    }
    P = spec.P + MultiPoly(spec.vars, terms) * spec.kernel_monomial
    spec = make_variety(spec.weights, True, P)
    sigma, t = draw(st.sampled_from(canonical_group(spec).elements))
    return spec, sigma, t


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_spec_and_kernel(), _canonical_element())
def test_closed_forms_match_series_and_coefficient_formulas(case, element):
    spec, h = case
    gm = exp_replica(spec, h)
    assert gm.images == _taylor_exp(spec, h)
    assert gm.inverse_images == _taylor_exp(spec, -h)

    # x image of a canonical-group element phi, one correction per z^i:
    # mu*M*phi(x) = tau^d*M*x + sum_i (phi(s_i)*tau^i - tau^d*s_i)*z^i
    spec, sigma, t = element
    m, d = spec.m, spec.d
    tau, M = t[m], spec.kernel_monomial
    mu = Fraction(1)
    for i, k in enumerate(spec.weights):
        mu = mu * t[i] ** k
    ys = {f"y{i+1}": v(spec, f"y{sigma[i]+1}") * t[i] for i in range(m)}
    want = v(spec, "x") * M * tau**d
    for i, si in enumerate(spec.s):
        want = want + (substitute(si, ys) * tau**i - si * tau**d) * v(spec, "z") ** i
    assert _element_images(spec, sigma, t)["x"] * M * mu == want


# -- the unit-weight variable's image, solved in one place ----------------------


def _jacobian_derivation(spec, f):
    """D(f) = dF/du * df/dz - dF/dz * df/du, the derivation that kills F by
    construction (u the unit-weight variable), in normal form."""
    F, u = spec.defining_polynomial, spec.x_role
    return normal_form(
        derivative(F, u) * derivative(f, "z") - derivative(F, "z") * derivative(f, u), spec
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_spec_and_kernel(), _canonical_element())
def test_unit_variable_image_matches_the_closed_forms(case, element):
    """The one helper gives u + (P(z + h*M) - P)/M for exp(hD), h a formal
    symbol or a drawn kernel element, and (phi(P) + tau^d*(x*M - P))/(mu*M)
    for every listed canonical-group element phi; canonical_lnd agrees with
    the generic Derivation oracle and the Jacobian derivation on every variable."""
    spec, drawn = case
    u = spec.x_role
    formal = MultiPoly.variable(spec.vars + ("h",), "h")
    for h in (formal, drawn, -drawn):
        ctx = h.vars
        M, P = spec.kernel_monomial.embed(ctx), spec.P.embed(ctx)
        images = {name: MultiPoly.variable(ctx, name) for name in ctx}
        images["z"] = images["z"] + h * M
        phi_P = substitute(P, images)
        want = MultiPoly.variable(ctx, u) + divide_by_monomial(phi_P - P, M)
        assert unit_variable_image(spec, phi_P, 1, 1) == want
        assert exp_replica(spec, h).images[u] == want

    oracle = Derivation(spec, canonical_lnd(spec))
    assert list(canonical_lnd(spec)) == [u, "z"]
    for name in spec.vars:
        image = canonical_lnd(spec).get(name, MultiPoly.zero(spec.vars))
        variable = MultiPoly.variable(spec.vars, name)
        assert apply_derivation(oracle, variable) == image == _jacobian_derivation(spec, variable)

    # the drawn spec's group is often infinite (no list); the fixture-based
    # spec lists 2 to 4 elements
    for spec in (spec, element[0]) if spec.x_present else (element[0],):
        m, M, F = spec.m, spec.kernel_monomial, spec.defining_polynomial
        for sigma, t in canonical_group(spec).elements or ():
            tau, mu = t[m], Fraction(1)
            for i, k in enumerate(spec.weights):
                mu = mu * t[i] ** k
            images = {f"y{i+1}": v(spec, f"y{sigma[i]+1}") * t[i] for i in range(m)}
            images["z"] = v(spec, "z") * tau
            phi_P = substitute(spec.P, images)
            want = divide_by_monomial(phi_P + F * tau**spec.d, M) * (1 / mu)
            assert unit_variable_image(spec, phi_P, tau**spec.d, mu) == want
            assert _element_images(spec, sigma, t)["x"] == want


# -- the one-way map check -----------------------------------------------------

_NOT_IDEAL = "map does not preserve the defining ideal"
_NOT_INVERSE = "supplied inverse is not a two-sided inverse"


def test_one_way_check_refuses_maps_tampered_in_the_unit_variable():
    """bf08's element e1 and exp(hD), h formal: an inverse off in x by a
    non-multiple of F fails psi(F), a map off in x fails phi(F), and an
    inverse off in x by a multiple of F is the same map of the quotient."""
    spec = load_fixture("bf08.json")
    sigma, t = canonical_group(spec).elements[1]
    exp_h = exp_replica(spec, MultiPoly.variable(spec.vars + ("h",), "h"))
    for gm in (group_element_map(spec, sigma, t), exp_h):
        images, inverse = gm.images, gm.inverse_images
        ctx = images["x"].vars
        F, y1 = spec.defining_polynomial, MultiPoly.variable(ctx, "y1")

        def nf(f):
            return normal_form(f, spec)

        off = {**inverse, "x": inverse["x"] + MultiPoly.const(ctx, 1)}
        assert not substitute(F, off, nf).is_zero()
        assert automorphism_defect(spec, images, off) == _NOT_INVERSE
        assert automorphism_defect(spec, {**images, "x": images["x"] + y1}, inverse) == _NOT_IDEAL
        same = {**inverse, "x": inverse["x"] + F.embed(ctx) * y1}
        assert automorphism_defect(spec, images, same) is None
        assert two_sided_defect(spec, images, same) is None


def test_one_way_check_covers_the_extra_symbols():
    """exp(hD) on bf08 with h -> 2h: phi(F), psi(F) and psi(phi(v)) for every
    variable of the presentation hold, so only the composite of h refuses
    the map (the two-sided check refuses it by phi(psi(z)) = z - h*M)."""
    spec = load_fixture("bf08.json")
    gm = exp_replica(spec, MultiPoly.variable(spec.vars + ("h",), "h"))
    ctx = gm.images["x"].vars
    doubled = {**gm.images, "h": MultiPoly.variable(ctx, "h") * 2}

    def nf(f):
        return normal_form(f, spec)

    F = spec.defining_polynomial
    assert substitute(F, doubled, nf).is_zero() and substitute(F, gm.inverse_images, nf).is_zero()
    for name in spec.vars:
        assert substitute(doubled[name], gm.inverse_images, nf) == MultiPoly.variable(ctx, name)
    assert automorphism_defect(spec, doubled, gm.inverse_images) == _NOT_INVERSE
    assert two_sided_defect(spec, doubled, gm.inverse_images) == _NOT_INVERSE


_element_scalars = st.sampled_from([Fraction(1), Fraction(1), Fraction(-1), Fraction(2)])


@st.composite
def _map_and_tamper(draw):
    """A random Danielewski, one-unit or all-weights >= 2 presentation, a
    candidate map with inverse images (exp(hD), perhaps in a formal symbol
    t, or a permutation-and-scaling element), and a random tamper: none,
    the map as its own inverse, or one image of the map or of its inverse
    scaled and shifted, the shift perhaps a multiple of F."""
    kind = draw(st.sampled_from(["danielewski", "one-unit", "all-ge2"]))
    d = draw(st.integers(2, 4))
    if kind == "one-unit":
        weights = draw(st.permutations([1, draw(st.integers(2, 3))]))
    else:
        weights = draw(st.lists(st.integers(2, 3), min_size=1, max_size=2))
    ys = [f"y{i+1}" for i in range(len(weights))] if kind == "danielewski" else []
    lower = [
        f"({draw(_coeffs)})*{draw(st.sampled_from(ys + ['1']))}*z^{i}" for i in range(d - 1)
    ]
    spec = variety(weights, kind == "danielewski", " + ".join([f"z^{d}"] + lower))
    ctx, m = spec.vars, spec.m
    if spec.x_role is not None and draw(st.booleans()):
        ctx = ctx + (("t",) if draw(st.booleans()) else ())
        h = MultiPoly(
            ctx,
            {
                tuple(0 if n in (spec.x_role, "z") else draw(st.integers(0, 1)) for n in ctx): c
                for c in draw(st.lists(_coeffs, max_size=2))
            },
        )
        gm = exp_replica(spec, h)
        images, inverse = gm.images, gm.inverse_images
    else:
        if spec.x_present:  # a drawn group is often infinite; the fixtures list theirs
            spec, sigma, t = draw(_canonical_element())
            ctx, m = spec.vars, spec.m
        else:
            sigma = tuple(draw(st.permutations(range(m))))
            t = tuple(draw(_element_scalars) for _ in range(m + 1))
        images = _element_images(spec, sigma, t)
        inverse = _element_images(spec, *invert_element((sigma, t), m))
    tamper = draw(st.sampled_from(["none", "swap", "map", "inverse"]))
    if tamper == "swap":
        inverse = images
    elif tamper != "none":
        # u, the variable the check leaves out, as often as all others together
        u = spec.x_role
        name = u if u is not None and draw(st.booleans()) else draw(st.sampled_from(spec.vars))
        shift = MultiPoly(
            ctx, draw(st.dictionaries(st.tuples(*(st.integers(0, 1) for _ in ctx)), _coeffs, max_size=2))
        )
        if draw(st.booleans()):
            shift = shift * spec.defining_polynomial.embed(ctx)
        side = images if tamper == "map" else inverse
        side = {**side, name: side[name] * draw(_element_scalars) + shift}
        images, inverse = (side, inverse) if tamper == "map" else (images, side)
    return spec, images, inverse


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_map_and_tamper())
def test_one_way_check_matches_the_two_sided_check(case):
    """phi(F), psi(F) and psi(phi(v)) for v other than u give the verdict and
    message of phi(F) with both composites on every generator."""
    spec, images, inverse = case
    assert automorphism_defect(spec, images, inverse) == two_sided_defect(spec, images, inverse)
