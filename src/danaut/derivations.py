"""Derivations of the coordinate ring, given by generator images.

Everything is exact: applying a derivation sums each partial derivative
times its variable's image and reduces to normal form.  The exponential
of h times the canonical derivation (h in its kernel) is given in closed
form: z -> z + h*M, and the unit-weight variable u, for which u*M = P,
goes to u + (P(z + h*M) - P)/M.
Extra variables beyond the presentation's own (for a formal kernel
parameter h) are treated as kernel constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .poly import (
    MultiPoly,
    derivative,
    divide_by_monomial,
    substitute,
    weighted_parts,
)
from .varieties import (
    REGIME_DANIELEWSKI,
    REGIME_ONE_UNIT,
    SpecError,
    VarietySpec,
    normal_form,
)


@dataclass
class Derivation:
    """A derivation of the quotient ring, by images of the coordinates.

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
        if not apply_derivation(self, self.spec.defining_polynomial()).is_zero():
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


def canonical_lnd(spec: VarietySpec) -> Derivation:
    """The distinguished locally nilpotent derivation of a unit-weight regime.

    Kills every y, sends z to the non-unit part of the weight monomial, and
    the unit-weight variable to dP/dz.
    """
    _require_canonical_regime(spec)
    der = spec._memo.get("canonical_lnd")
    if der is None:
        images = {spec.x_role: derivative(spec.P(), "z"), "z": spec.kernel_monomial()}
        der = spec._memo["canonical_lnd"] = Derivation(spec, images)
    return der


def _require_canonical_regime(spec: VarietySpec) -> None:
    if spec.regime not in (REGIME_DANIELEWSKI, REGIME_ONE_UNIT):
        raise SpecError(
            "no canonical derivation: the regime is rigid or outside scope"
        )


@dataclass
class GeneratorMap:
    """An algebra automorphism by images of the coordinate generators and
    the images of its inverse.

    Construction checks that the defining polynomial maps into its own
    ideal and that both compositions fix every generator.
    """

    spec: VarietySpec
    images: dict
    inverse_images: dict

    def __post_init__(self):
        defect = automorphism_defect(self.spec, self.images, self.inverse_images)
        if defect is not None:
            raise ValueError(defect)

    def apply_to(self, f: MultiPoly) -> MultiPoly:
        return substitute(f, self.images, lambda g: normal_form(g, self.spec))


def automorphism_defect(
    spec: VarietySpec, images: dict, inverse_images: dict
) -> Optional[str]:
    """Why a generator map is not an automorphism of the quotient, or None.

    The map must send the defining polynomial into its ideal, and both
    compositions with the inverse images must fix every generator modulo
    the ideal.  Every substitution is reduced to normal form as it is
    built.  The result is the unique representative of its class (P is
    monic in z), so it is zero exactly when the fully expanded substitution
    lies in the ideal, and a composite equals its generator exactly when
    the two store equal forms.
    """
    def reduce(g: MultiPoly) -> MultiPoly:
        return normal_form(g, spec)

    image = substitute(spec.defining_polynomial(), images, reduce)
    if not image.is_zero():
        return "map does not preserve the defining ideal"
    for name in spec.vars:
        v = MultiPoly.variable(image.vars, name)
        if (substitute(images[name], inverse_images, reduce) != v
                or substitute(inverse_images[name], images, reduce) != v):
            return "supplied inverse is not a two-sided inverse"
    return None


def monomial_inverse(spec: VarietySpec, images: dict) -> Optional[dict]:
    """Inverse images of a map sending each generator to a scalar times a
    generator, one generator each; None for any other map."""
    ctx = next(iter(images.values())).vars
    inverse = {name: MultiPoly.variable(ctx, name) for name in ctx}
    targets = set()
    for name in spec.vars:
        terms = images[name].terms
        if len(terms) != 1:
            return None
        (exps, c), = terms.items()
        if sum(exps) != 1:
            return None
        target = ctx[exps.index(1)]
        targets.add(target)
        inverse[target] = MultiPoly.variable(ctx, name) * (Fraction(1) / c)
    return inverse if targets == set(spec.vars) else None


def exp_replica(spec: VarietySpec, h: MultiPoly) -> GeneratorMap:
    """The automorphism exp(h * canonical derivation), h in the kernel.

    h may mention the presentation's y variables and any extra formal
    symbols (which are treated as kernel constants); images come with the
    exp(-h) inverse filled in.  With M the kernel monomial, the relation
    u*M = P fixes the image of the unit-weight variable u once z -> z + h*M.
    """
    x_role = spec.x_role
    if x_role is None:
        raise SpecError("no canonical derivation in this regime")
    banned = {x_role, "z"}
    for name in h.vars:
        if h.depends_on(name) and name in banned:
            raise ValueError(f"h must lie in the kernel; it depends on {name!r}")
    _require_canonical_regime(spec)
    extra = tuple(n for n in h.vars if n not in spec.vars)
    ctx = spec.vars + extra
    M = spec.kernel_monomial().embed(ctx)
    P = spec.P().embed(ctx)
    hM = h.embed(ctx) * M
    maps = []
    for shift in (hM, -hM):
        images = {name: MultiPoly.variable(ctx, name) for name in ctx}
        images["z"] = images["z"] + shift
        images[x_role] = images[x_role] + divide_by_monomial(substitute(P, images) - P, M)
        maps.append(images)
    return GeneratorMap(spec, *maps)


def _filtration_parts(f: MultiPoly, spec: VarietySpec, what: str) -> dict:
    """Parts of f's normal form by filtration degree (as in tilde_degree)."""
    if spec.x_role is None:
        raise SpecError("filtration degree needs the canonical derivation")
    parts = weighted_parts(normal_form(f, spec), {spec.x_role: spec.d, "z": 1})
    if not parts:
        raise ValueError(f"the zero class has no {what}")
    return parts


def tilde_degree(f: MultiPoly, spec: VarietySpec) -> int:
    """Nilpotency filtration degree: y's weigh 0, z weighs 1, x weighs d."""
    return max(_filtration_parts(f, spec, "degree (sentinel -infinity)"))


def gr_leading_form(f: MultiPoly, spec: VarietySpec) -> MultiPoly:
    """Top filtration part of f, i.e. its image in the associated graded ring."""
    parts = _filtration_parts(f, spec, "leading form")
    return parts[max(parts)]
