"""The canonical derivation, its exponentials, and checked generator maps.

The canonical derivation of a unit-weight regime sends z to the kernel
monomial M and the unit-weight variable u, for which u*M = P, to dP/dz.
Every map sends u to the one image the relation allows, built by
unit_variable_image.  Extra variables beyond the presentation's own (for
a formal kernel parameter h) are treated as kernel constants.
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


def canonical_lnd(spec: VarietySpec) -> dict:
    """The distinguished locally nilpotent derivation of a unit-weight regime,
    by its two nonzero images.

    Kills every y, sends z to the non-unit part M of the weight monomial,
    and the unit-weight variable u to dP/dz.  It is well defined because it
    kills F = u*M - P; a derivation that does not is an internal fault.
    """
    _require_canonical_regime(spec)
    u, F, M = spec.x_role, spec.defining_polynomial, spec.kernel_monomial
    images = {u: normal_form(derivative(spec.P, "z"), spec), "z": M}
    if not normal_form(derivative(F, u) * images[u] + derivative(F, "z") * M, spec).is_zero():
        raise AssertionError("the canonical derivation does not kill the defining relation")
    return images


def unit_variable_image(spec: VarietySpec, phi_P: MultiPoly, c, mu) -> MultiPoly:
    """(phi(P) + c*F)/(mu*M): the image of the unit-weight variable u under
    a map phi with phi(M) = mu*M that is to send F = u*M - P to c*F.

    phi(F) = phi(u)*mu*M - phi(P), so phi(F) = c*F fixes phi(u), given
    phi(P).  The division by M is exact, or an internal fault.
    """
    relation = spec.relation(phi_P.vars)
    F = relation.F
    image = divide_by_monomial(phi_P + (F if c == 1 else F * c), relation.M)
    return image if mu == 1 else image * (1 / mu)


def _require_canonical_regime(spec: VarietySpec) -> None:
    if spec.regime not in (REGIME_DANIELEWSKI, REGIME_ONE_UNIT):
        raise SpecError("no canonical derivation in this regime")


@dataclass
class GeneratorMap:
    """An algebra automorphism by images of the coordinate generators and
    the images of its inverse.

    Construction is the check (automorphism_defect): both maps send the
    defining polynomial F into its ideal, and the inverse undoes the map
    on every variable but the unit-weight one.  That suffices because
    A = K[vars]/(F) is Noetherian, so a one-sided inverse is two-sided,
    and F = u*M - P makes A a domain in which u*M = P fixes u.
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
    """Why a generator map phi with inverse images psi is not an
    automorphism of A = K[vars]/(F), or None.

    phi(F) and psi(F) must reduce to zero, and psi(phi(v)) to v for every
    variable v of the images' context but the unit-weight u (extra kernel
    symbols such as h count).  Both composites then fix every variable:
    - A is Noetherian, so psi, surjective as psi o phi = id, is injective,
      and phi o psi = id.
    - F = u*M - P is linear in u with coprime coefficients, so A is a
      domain and M != 0 in A; chi = psi o phi keeps (F) and fixes every
      other variable, so chi(u)*M = P = u*M and chi(u) = u.
    Normal forms are unique (P is monic in z) and taken as each substitution
    is built, so the tests are exact.
    """
    def reduce(g: MultiPoly) -> MultiPoly:
        return normal_form(g, spec)

    F = spec.defining_polynomial
    image = substitute(F, images, reduce)
    if not image.is_zero():
        return "map does not preserve the defining ideal"
    if not substitute(F, inverse_images, reduce).is_zero():
        return "supplied inverse is not a two-sided inverse"
    for name in image.vars:
        if name != spec.x_role and (
            substitute(images[name], inverse_images, reduce)
            != MultiPoly.variable(image.vars, name)
        ):
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
    exp(-h) inverse filled in.  With M the kernel monomial, z -> z + h*M
    and the unit-weight variable u goes to u + (P(z + h*M) - P)/M, the
    image that keeps F fixed.
    """
    _require_canonical_regime(spec)
    x_role = spec.x_role
    for name in h.vars:
        if h.depends_on(name) and name in (x_role, "z"):
            raise ValueError(f"h must lie in the kernel; it depends on {name!r}")
    extra = tuple(n for n in h.vars if n not in spec.vars)
    ctx = spec.vars + extra
    hM = h.embed(ctx) * spec.relation(ctx).M
    maps = []
    for shift in (hM, -hM):
        images = {name: MultiPoly.variable(ctx, name) for name in ctx}
        images["z"] = images["z"] + shift
        images[x_role] = unit_variable_image(spec, substitute(spec.P, images), 1, 1)
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
