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
    u, F, M = spec.x_role, spec.defining_polynomial(), spec.kernel_monomial()
    images = {u: normal_form(derivative(spec.P(), "z"), spec), "z": M}
    if not normal_form(derivative(F, u) * images[u] + derivative(F, "z") * M, spec).is_zero():
        raise AssertionError("the canonical derivation does not kill the defining relation")
    return images


def unit_variable_image(spec: VarietySpec, phi_P: MultiPoly, c, mu) -> MultiPoly:
    """(phi(P) + c*F)/(mu*M): the image of the unit-weight variable u under
    a map phi with phi(M) = mu*M that is to send F = u*M - P to c*F.

    phi(F) = phi(u)*mu*M - phi(P), so phi(F) = c*F fixes phi(u), given
    phi(P).  The division by M is exact, or an internal fault.
    """
    F, M = spec.defining_polynomial(), spec.kernel_monomial()
    if phi_P.vars != F.vars:
        F, M = F.embed(phi_P.vars), M.embed(phi_P.vars)
    image = divide_by_monomial(phi_P + (F if c == 1 else F * c), M)
    return image if mu == 1 else image * (1 / mu)


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
    exp(-h) inverse filled in.  With M the kernel monomial, z -> z + h*M
    and the unit-weight variable u goes to u + (P(z + h*M) - P)/M, the
    image that keeps F fixed.
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
    hM = h.embed(ctx) * spec.kernel_monomial().embed(ctx)
    maps = []
    for shift in (hM, -hM):
        images = {name: MultiPoly.variable(ctx, name) for name in ctx}
        images["z"] = images["z"] + shift
        images[x_role] = unit_variable_image(spec, substitute(spec.P(), images), 1, 1)
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
