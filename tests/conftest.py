"""Shared fixtures and exact-arithmetic test helpers."""

import argparse
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

from danaut import (
    CycElem,
    GeneratorMap,
    MultiPoly,
    VarietySpec,
    derivative,
    identity_element,
    make_variety,
    normal_form,
    normalize,
    parse_poly,
    substitute,
    zeta,
)
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


# -- oracles and witnesses that the library itself never needs ------------------


def spec_to_dict(spec) -> dict:
    """Presentation-file form of a spec (round-trips through the parser)."""
    terms = []
    for exps, c in spec.P.printed_terms():
        ye = [0] * spec.m
        for i in range(spec.m):
            ye[i] = exps[spec.vars.index(f"y{i+1}")]
        terms.append(
            {
                "y_exponents": ye,
                "z_exponent": exps[spec.vars.index("z")],
                "coeff": c,
            }
        )
    return {
        "weights": list(spec.weights),
        "x_present": spec.x_present,
        "P": terms,
    }


def reconstruct_reducible_product(spec, l: int, Q):
    """Product over all l-th roots of unity of (W - eps*Q), W = prod y^(k/l).

    For a reducibility witness P = Q^l it reproduces the defining polynomial.
    """
    vars = spec.vars
    W = MultiPoly.monomial(
        vars, {f"y{i+1}": k // l for i, k in enumerate(spec.weights)}, 1
    )
    Qv = Q.embed(vars)
    result = MultiPoly.const(vars, 1)
    for j in range(l):
        eps = zeta(l, j)
        result = result * (W - Qv * eps)
    return result


@dataclass
class Derivation:
    """A derivation of the quotient ring, by images of the coordinates; the
    generic oracle for the canonical derivation's two images.

    Well-definedness (the image of the defining polynomial reduces to zero)
    is checked eagerly at construction.
    """

    spec: VarietySpec
    images: dict

    def __post_init__(self):
        for name in self.images:
            if name not in self.spec.vars:
                raise ValueError(f"image given for unknown generator {name!r}")
        imgs = {}
        for name in self.spec.vars:
            g = self.images.get(name)
            if g is None:
                g = MultiPoly.zero(self.spec.vars)
            imgs[name] = normal_form(g.embed(self.spec.vars), self.spec)
        self.images = imgs
        if not apply_derivation(self, self.spec.defining_polynomial).is_zero():
            raise ValueError(
                "derivation does not annihilate the defining relation modulo the ideal"
            )


def apply_derivation(der: Derivation, f: MultiPoly) -> MultiPoly:
    """Leibniz rule: the sum of df/dv * D(v) over the variables v of f, in normal form.

    Variables outside the presentation map to 0.
    """
    ctx = f.vars
    parts = []
    for name in ctx:
        if name not in der.images:
            continue
        img = der.images[name].embed(ctx)
        if not img.is_zero() and f.depends_on(name):
            parts.append(derivative(f, name) * img)
    return normal_form(sum(parts, MultiPoly.zero(ctx)), der.spec)


def two_sided_defect(spec, images: dict, inverse_images: dict):
    """The map check with both composites on every generator: phi(F) reduces
    to zero, and psi(phi(v)) and phi(psi(v)) reduce to v for every v of the
    presentation.  The oracle for derivations.automorphism_defect, which
    derives the phi(psi(v)) and the unit-weight variable's psi(phi(u))
    from psi(F) reducing to zero."""
    def reduce(g):
        return normal_form(g, spec)

    image = substitute(spec.defining_polynomial, images, reduce)
    if not image.is_zero():
        return "map does not preserve the defining ideal"
    for name in spec.vars:
        v = MultiPoly.variable(image.vars, name)
        if (substitute(images[name], inverse_images, reduce) != v
                or substitute(inverse_images[name], images, reduce) != v):
            return "supplied inverse is not a two-sided inverse"
    return None


def compose_maps(a: GeneratorMap, b: GeneratorMap) -> GeneratorMap:
    """a after b (as ring maps: v -> a(b(v)))."""
    imgs = {v: a.apply_to(g) for v, g in b.images.items()}
    inv = {
        v: substitute(g, b.inverse_images, lambda f: normal_form(f, a.spec))
        for v, g in a.inverse_images.items()
    }
    return GeneratorMap(a.spec, imgs, inv)


def fixes_generators(gm: GeneratorMap) -> bool:
    ctx = next(iter(gm.images.values())).vars
    return all(gm.images[name] == MultiPoly.variable(ctx, name) for name in gm.spec.vars)


def compose_elements(g, gp, m: int):
    """(sigma, t) * (sigma', t'): the map of g applied after the map of gp."""
    sig, t = g
    sigp, tp = gp
    sig2 = tuple(sig[sigp[i]] for i in range(m))
    t2 = tuple(tp[i] * t[sigp[i]] for i in range(m))
    tau2 = t[m] * tp[m]
    return (sig2, t2 + (tau2,))


def _scalar_value(x):
    """(r > 0, turn fraction of the root of unity), independent of the order used."""
    if isinstance(x, CycElem):
        r, a = x.as_root_power()
        turn = Fraction(a, x.order)
    else:
        r, turn = Fraction(x), Fraction(0)
    if r < 0:
        r, turn = -r, turn + Fraction(1, 2)
    return r, turn % 1


def element_value(g):
    """A canonical-group element by value, whatever cyclotomic orders it is written in."""
    return g[0], tuple(_scalar_value(x) for x in g[1])


def brute_force_closure(gens, m, bound):
    """All-pairs closure over compose_elements, each pair composed once.

    Returns (elements, product table by index), or None past bound elements.
    """
    elems = [identity_element(m)]
    index = {element_value(elems[0]): 0}
    for g in gens:
        if element_value(g) not in index:
            index[element_value(g)] = len(elems)
            elems.append(g)
    table = {}
    while len(table) < len(elems) ** 2:
        for i in range(len(elems)):
            for j in range(len(elems)):
                if (i, j) in table:
                    continue
                c = compose_elements(elems[i], elems[j], m)
                k = index.get(element_value(c))
                if k is None:
                    if len(elems) == bound:
                        return None
                    k = index[element_value(c)] = len(elems)
                    elems.append(c)
                table[(i, j)] = k
    return elems, table


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A malformed command line exits 2 with one line, like every other error."""
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI used before its one-pass reader: the
    oracle for which command lines the reader accepts and how it reads them."""
    parser = _Parser(
        prog="danaut",
        description="Exact invariants and automorphism groups of "
        "unit-weight/suspension variety presentations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("spec", help="presentation JSON file")
        p.add_argument("--json", action="store_true", help="machine output")
        p.add_argument(
            "--no-normalize",
            action="store_true",
            help="reject non-normalized input instead of shifting z",
        )

    p = sub.add_parser("analyze", help="full invariant and structure report")
    common(p)

    p = sub.add_parser("exp", help="exponential automorphism of a kernel element")
    common(p)
    p.add_argument("h", help="kernel polynomial (y variables and free symbols)")

    p = sub.add_parser("apply", help="apply an automorphism to a polynomial")
    common(p)
    p.add_argument("poly", help="polynomial in the presentation variables")
    p.add_argument("--element", help="element id or signature from a report")
    p.add_argument("--map", help="inline JSON map of generator images")

    p = sub.add_parser("degree", help="filtration degree of a polynomial")
    common(p)
    p.add_argument("poly")

    p = sub.add_parser("gr", help="leading form in the associated graded ring")
    common(p)
    p.add_argument("poly")

    p = sub.add_parser("irreducible", help="irreducibility of the presentation")
    common(p)

    p = sub.add_parser("genus", help="genus of a curve presentation")
    common(p)

    return parser
