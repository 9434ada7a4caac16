"""Metamorphic tests: isomorphic presentations give the same answers.

Relabelling the y variables together with their weights, scaling
y_i -> a_i*y_i and scaling z -> c*z (P divided by c^d to stay monic, x
absorbing the constant) all give isomorphic varieties.  Their reports must
agree on the structure, the verdicts, the invariants and the multiset of
feasible canonical-group branch structures (Chen et al., "Metamorphic
testing: a review of challenges and opportunities", ACM Computing Surveys
51, 2018).  D, Dbar and H_cap_Dbar are not compared: they are presentation
data that follow the reference variable.
"""

import itertools
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from danaut import (
    MultiPoly, aut_structure, build_report, make_variety, normalize, parse_poly, substitute,
)
from danaut.cli import load_spec_file
from danaut.varieties import presentation_vars
from conftest import FIXTURES

FIXTURE_NAMES = sorted(p.name for p in FIXTURES.glob("*.json"))


def answers(raw) -> tuple:
    """What an isomorphism must preserve, read from the analyze report."""
    spec = normalize(raw)
    report = build_report(raw, spec, aut_structure(spec))
    inv = report["invariants"]
    G = report["groups"]["G"]
    branches = sorted(b["structure"]["pretty"] for b in G["branches"] if b["feasible"]) if G else []
    return (report["structure_pretty"], report["verdicts"], inv["irreducible"],
            inv["rigid"], inv["genus"], branches)


def transformed(raw, perm, a=None, c=Fraction(1)):
    """The presentation in y'_{perm[i]} = y_i / a_i and z' = z / c.

    Without x the relation M(y) = P stays in shape only when
    prod a_i^k_i = c^d; the caller picks such scalars.
    """
    m, ctx = raw.m, raw.vars
    a = a or [Fraction(1)] * m
    images = {name: MultiPoly.variable(ctx, name) for name in ctx}
    for i in range(m):
        images[f"y{i+1}"] = MultiPoly.variable(ctx, f"y{perm[i]+1}") * a[i]
    images["z"] = MultiPoly.variable(ctx, "z") * c
    weights = [0] * m
    for i, k in enumerate(raw.weights):
        weights[perm[i]] = k
    P = substitute(raw.P, images) * (1 / c**raw.d)
    return make_variety(weights, raw.x_present, P)


def balanced_scalars(raw, s, signs) -> tuple:
    """(a, c) with prod a_i^k_i = c^d: a_i = sign_i * s_i^d, c = ±prod s_i^k_i."""
    d, weights = raw.d, raw.weights
    sign = prod(e**k for e, k in zip(signs, weights))
    if sign == -1 and d % 2 == 0:
        signs = [1] * raw.m
        sign = 1
    a = [e * si**d for e, si in zip(signs, s)]
    c = sign * prod(si**k for si, k in zip(s, weights))
    assert prod(ai**k for ai, k in zip(a, weights)) == c**d
    return a, c


def _raw_fixture(name):
    return load_spec_file(str(FIXTURES / name))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_answers_survive_y_permutations(name):
    raw = _raw_fixture(name)
    want = answers(raw)
    for perm in itertools.permutations(range(raw.m)):
        assert answers(transformed(raw, perm)) == want, (name, perm)


_scalars = st.sampled_from([Fraction(v) for v in (1, -1, 2, -2, 3)] + [Fraction(1, 2), Fraction(-2, 3)])
_roots = st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)])


@st.composite
def _scalings(draw, raw):
    m = raw.m
    if raw.x_present:  # x absorbs prod a_i^k_i / c^d
        return [draw(_scalars) for _ in range(m)], draw(_scalars)
    s = [draw(_roots) for _ in range(m)]
    return balanced_scalars(raw, s, [draw(st.sampled_from([1, -1])) for _ in range(m)])


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_fixture_answers_survive_y_and_z_scalings(name, data):
    raw = _raw_fixture(name)
    a, c = data.draw(_scalings(raw))
    assert answers(transformed(raw, tuple(range(raw.m)), a, c)) == answers(raw), (name, a, c)


@st.composite
def _presentations(draw):
    """Small presentations with every weight in 2..6: suspensions and,
    with x, Danielewski varieties whose coefficients depend on y."""
    m = draw(st.integers(1, 3))
    weights = [draw(st.integers(2, 6)) for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        weights[1] = weights[0]  # equal weights give permutation symmetries
    x_present = draw(st.booleans())
    d = draw(st.integers(2, 8))
    terms = [f"z^{d}"]
    for e in draw(st.lists(st.integers(0, d - 1), max_size=2, unique=True)):
        terms.append(f"{draw(st.sampled_from([-2, -1, 1, 3]))}*z^{e}")
    if x_present:
        for i in range(m):
            c = draw(st.integers(-2, 2))
            if c:
                terms.append(f"{c}*y{i+1}*z^{draw(st.integers(0, d - 1))}")
    P = parse_poly(" + ".join(terms), presentation_vars(m, x_present))
    raw = make_variety(weights, x_present, P)
    return raw, draw(st.permutations(range(m))), draw(_scalings(raw))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_presentations())
def test_random_answers_survive_relabelling_and_scaling(case):
    raw, perm, (a, c) = case
    want = answers(raw)
    assert answers(transformed(raw, perm)) == want, (raw.equation_str(), perm)
    assert answers(transformed(raw, tuple(range(raw.m)), a, c)) == want, (
        raw.equation_str(), a, c)


def plus_kernel_multiple(raw, g):
    """x*M = P + M*g: the isomorphism x -> x - g takes it back to x*M = P."""
    return make_variety(raw.weights, True, raw.P + raw.weight_monomial * g)


def z_shifted(raw, c, h):
    """P(y, z + c + h(y)): the isomorphism z -> z - c - h(y) takes it back.

    Without x the relation M(y) = P stays in shape only for h = 0.
    """
    ctx = raw.vars
    images = {name: MultiPoly.variable(ctx, name) for name in ctx}
    images["z"] = MultiPoly.variable(ctx, "z") + c + h
    return make_variety(raw.weights, raw.x_present, substitute(raw.P, images))


_coeffs = st.sampled_from([Fraction(v) for v in (-2, -1, 1, 3)] + [Fraction(1, 2)])


@st.composite
def _yz_polys(draw, raw, zdeg):
    """One or two terms c*y^e*z^j, y-exponents at most 2 and j < zdeg (no z when zdeg = 0)."""
    f = MultiPoly.zero(raw.vars)
    for _ in range(draw(st.integers(1, 2))):
        powers = {f"y{i+1}": draw(st.integers(0, 2)) for i in range(raw.m)}
        if zdeg:
            powers["z"] = draw(st.integers(0, zdeg - 1))
        f = f + MultiPoly.monomial(raw.vars, powers, draw(_coeffs))
    return f


@st.composite
def _shifts(draw, raw):
    """(g or None, c, h): a kernel multiple when x is present, and a z shift."""
    g = draw(_yz_polys(raw, raw.d)) if raw.x_present else None
    h = draw(_yz_polys(raw, 0)) if raw.x_present else MultiPoly.zero(raw.vars)
    return g, draw(_scalars), h


def _check_shifts(raw, shifts, want):
    g, c, h = shifts
    if g is not None:
        assert answers(plus_kernel_multiple(raw, g)) == want, (raw.equation_str(), g)
    assert answers(z_shifted(raw, c, h)) == want, (raw.equation_str(), c, h)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_fixture_answers_survive_kernel_multiples_and_z_shifts(name, data):
    raw = _raw_fixture(name)
    _check_shifts(raw, data.draw(_shifts(raw)), answers(raw))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_random_answers_survive_kernel_multiples_and_z_shifts(data):
    raw = data.draw(_presentations())[0]
    _check_shifts(raw, data.draw(_shifts(raw)), answers(raw))
