"""Shared fixtures and exact-arithmetic test helpers."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from danaut import MultiPoly, make_variety, normal_form, normalize, parse_poly
from danaut.cli import load_spec_file

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def load_fixture(name: str):
    """Classified, normalized spec from a fixture file."""
    return normalize(load_spec_file(fixture_path(name)))


@pytest.fixture
def e4():
    return load_fixture("s7_e4.json")


@pytest.fixture
def e2():
    return load_fixture("s7_e2.json")


@pytest.fixture
def threevar():
    return load_fixture("s7_threevar.json")


def variety(weights, x_present, text):
    m = len(weights)
    vars = (("x",) if x_present else ()) + tuple(f"y{i+1}" for i in range(m)) + ("z",)
    return normalize(make_variety(weights, x_present, parse_poly(text, vars)))


def random_poly(rng: random.Random, vars, max_deg=3, nterms=3, coeff_range=4):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, max_deg) for _ in vars)
        terms[exps] = Fraction(rng.randint(-coeff_range, coeff_range))
    return MultiPoly(vars, terms)


def random_quotient_element(rng: random.Random, spec, max_deg=2, nterms=3):
    """Nonzero normal-form element of the coordinate ring."""
    while True:
        terms = {}
        for _ in range(nterms):
            exps = []
            for name in spec.vars:
                if name == "x":
                    exps.append(rng.randint(0, 1))
                else:
                    exps.append(rng.randint(0, max_deg))
            terms[tuple(exps)] = Fraction(rng.randint(-3, 3))
        f = normal_form(MultiPoly(spec.vars, terms), spec)
        if not f.is_zero():
            return f


def random_kernel_poly(rng: random.Random, spec, max_deg=2, nterms=2):
    """Element of the y-subring (the kernel of the canonical derivation)."""
    terms = {}
    for _ in range(nterms):
        exps = tuple(
            0 if name in ("x", "z") else rng.randint(0, max_deg) for name in spec.vars
        )
        terms[exps] = Fraction(rng.randint(-3, 3))
    return MultiPoly(spec.vars, terms)
