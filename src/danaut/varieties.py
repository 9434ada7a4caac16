"""Variety presentations and their geometric invariants.

A presentation is x*y1^k1*...*ym^km = P(y,z) (or without x for plain
suspensions over a line), P monic in z of degree d >= 2.  P is stored once
and everything else is read from its terms.  This module classifies
presentations into regimes, normalizes the z^(d-1) coefficient away, and
computes irreducibility, rigidity, genus, the stabilizer quasitorus of the
weight monomial, the scaling quasitorus of P, the permutation symmetries,
and the intersection of all derivation kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Optional
from weakref import ref

from .lattice import DiagGroupType, group_type_from_vanishing_lattice, image_characters
from .poly import (
    MultiPoly,
    derivative,
    last_variable_coefficients,
    perfect_power_root,
    poly_str,
    reduce_by_rule,
    substitute,
    univar_gcd,
)

REGIME_ALL_GE2 = "LineSuspensionAllGe2"
REGIME_ONE_UNIT = "LineSuspensionOneUnit"
REGIME_DANIELEWSKI = "Danielewski"
REGIME_DEGENERATE = "Degenerate"
REGIME_UNSUPPORTED = "Unsupported"


class SpecError(ValueError):
    """Invalid presentation (violated invariant named in the message)."""


def presentation_vars(m: int, x_present: bool) -> tuple:
    """The variable context of a presentation: (x,) y1..ym z, z last."""
    return (("x",) if x_present else ()) + tuple(f"y{i+1}" for i in range(m)) + ("z",)


@dataclass(frozen=True)
class VarietySpec:
    """A classified presentation.

    weights are the y-exponents k_1..k_m and P, the polynomial P in the
    presentation's variables, is the only stored copy of the right-hand
    side; z_coefficients is P split by powers of z, as the classification
    read it.  The rest is derived on first read and kept on the spec out of
    == and repr: cached attributes, and the relation in each variable
    context (relation).  shift records the substitution
    z -> z - shift applied by normalize; polynomial arguments are read in
    the shifted coordinates.
    """

    m: int
    weights: tuple
    d: int
    x_present: bool
    P: MultiPoly
    z_coefficients: dict = field(compare=False, repr=False)  # {i: coefficient of z^i in P}
    regime: str
    regime_note: str = ""
    unit_index: Optional[int] = None
    shift: Optional[MultiPoly] = None
    _relations: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    __hash__ = None  # as P's: == compares P, and MultiPoly has no hash

    @cached_property
    def vars(self) -> tuple:
        return presentation_vars(self.m, self.x_present)

    @property
    def yvars(self) -> tuple:
        return self.vars[int(self.x_present):-1]

    @cached_property
    def s(self) -> tuple:
        """s[i] is the coefficient of z^i in P (i < d), a polynomial in the y
        variables (constant in suspension regimes)."""
        zero = MultiPoly.zero(self.vars)
        return tuple(self.z_coefficients.get(i, zero) for i in range(self.d))

    @property
    def x_role(self) -> Optional[str]:
        """The unit-weight variable carrying the canonical derivation."""
        if self.x_present:
            return "x"
        if self.unit_index is not None:
            return f"y{self.unit_index+1}"
        return None

    @cached_property
    def weight_monomial(self) -> MultiPoly:
        powers = {f"y{i+1}": k for i, k in enumerate(self.weights)}
        return MultiPoly.monomial(self.vars, powers, 1)

    @cached_property
    def kernel_monomial(self) -> MultiPoly:
        """The image of z under the canonical derivation: the y-part of the lead monomial."""
        powers = {f"y{i+1}": k for i, k in enumerate(self.weights)}
        if not self.x_present and self.unit_index is not None:
            powers.pop(f"y{self.unit_index+1}")
        return MultiPoly.monomial(self.vars, powers, 1)

    @cached_property
    def lead_monomial(self) -> MultiPoly:
        lead = self.weight_monomial
        if self.x_present:
            lead = lead * MultiPoly.variable(self.vars, "x")
        return lead

    @cached_property
    def defining_polynomial(self) -> MultiPoly:
        return self.lead_monomial - self.P

    def relation(self, ctx: tuple) -> "_Relation":
        """The defining relation in the variable context ctx, built once per context."""
        relation = self._relations.get(ctx)
        if relation is None:
            relation = self._relations[ctx] = _Relation(self, ctx)
        return relation

    def is_normalized(self) -> bool:
        return self.d - 1 not in self.z_coefficients

    def equation_str(self) -> str:
        return f"{poly_str(self.lead_monomial)} = {poly_str(self.P)}"


class _Relation:
    """A spec's relation in a context ctx of its variables and maybe extra
    kernel symbols.  rule, (monic lead monomial, replacement), rewrites the
    relation's lead: with a unit-weight variable the lead is that variable
    times the weight monomial and the replacement is P; otherwise the lead
    is z^d.  F and the kernel monomial M are put into ctx on first read."""

    def __init__(self, spec: VarietySpec, ctx: tuple):
        for name in spec.vars:
            if name not in ctx:
                raise ValueError(f"polynomial context is missing variable {name!r}")
        self.spec, self.ctx = ref(spec), ctx  # the spec holds its relations: no cycle back
        P = spec.P.embed(ctx)
        if spec.x_role is not None:
            self.rule = spec.lead_monomial.embed(ctx), P
        else:
            lead = MultiPoly.variable(ctx, "z") ** spec.d
            self.rule = lead, spec.weight_monomial.embed(ctx) - (P - lead)

    @cached_property
    def F(self) -> MultiPoly:
        return self.spec().defining_polynomial.embed(self.ctx)

    @cached_property
    def M(self) -> MultiPoly:
        return self.spec().kernel_monomial.embed(self.ctx)


def make_variety(weights, x_present: bool, P: MultiPoly) -> VarietySpec:
    """Build and classify a presentation from weights and the polynomial P."""
    weights = tuple(int(k) for k in weights)
    if any(k < 1 for k in weights):
        raise SpecError("weights must be positive integers")
    vars = presentation_vars(len(weights), x_present)
    for name in P.vars:
        if name not in vars and P.depends_on(name):
            raise SpecError(f"P uses unknown variable {name!r}")
    if "x" in P.vars and P.depends_on("x"):
        raise SpecError("P must not involve x")
    return _classified(weights, x_present, P.embed(vars))


def _classified(weights: tuple, x_present: bool, P: MultiPoly, shift=None) -> VarietySpec:
    """The spec of P, given in the presentation's variables; checks P is monic in z."""
    coeffs = last_variable_coefficients(P)  # z is the last variable
    if not coeffs:
        raise SpecError("P must be nonzero")
    d = max(coeffs)
    if coeffs[d] != 1:
        raise SpecError(
            "P must be monic in z (leading z-term with coefficient 1 and no y part)"
        )
    m = len(weights)
    constant = all(c.is_constant() for c in coeffs.values())  # P is free of x
    regime, note, unit_index = _classify(weights, x_present, d, constant, m)
    return VarietySpec(
        m=m,
        weights=weights,
        d=d,
        x_present=x_present,
        P=P,
        z_coefficients=coeffs,
        regime=regime,
        regime_note=note,
        unit_index=unit_index,
        shift=shift,
    )


def _classify(weights, x_present, d, constant_s, m):
    units = [i for i, k in enumerate(weights) if k == 1]
    if d < 2:
        return REGIME_UNSUPPORTED, "z-degree must be at least 2", None
    if len(units) + x_present >= 2:
        return (
            REGIME_UNSUPPORTED,
            "two unit weights: outside the structure theorems",
            None,
        )
    if m == 0:
        if not x_present:
            note = "no x and no y variables: 1 = P(z) is a finite set of points"
            return REGIME_UNSUPPORTED, note, None
        return REGIME_DEGENERATE, "no y variables: the variety is an affine line", None
    if x_present:
        return REGIME_DANIELEWSKI, "", None
    if not constant_s:
        return (
            REGIME_UNSUPPORTED,
            "coefficients depend on y but no x variable is present; "
            "present the variety in x-form",
            None,
        )
    if not units:
        return REGIME_ALL_GE2, "", None
    # exactly one unit weight
    if m == 1:
        return (
            REGIME_DEGENERATE,
            "single unit weight with m=1: the variety is an affine line",
            units[0],
        )
    return REGIME_ONE_UNIT, "", units[0]


def normalize(spec: VarietySpec) -> VarietySpec:
    """Shift z by s_{d-1}/d so the z^(d-1) coefficient vanishes (idempotent)."""
    if spec.is_normalized():
        return spec
    b = spec.z_coefficients[spec.d - 1] * Fraction(1, spec.d)
    images = {name: MultiPoly.variable(spec.vars, name) for name in spec.vars}
    images["z"] = MultiPoly.variable(spec.vars, "z") - b
    newP = substitute(spec.P, images)
    return _classified(spec.weights, spec.x_present, newP, shift=b)


def normal_form(f: MultiPoly, spec: VarietySpec) -> MultiPoly:
    """Unique representative modulo the defining relation.

    Rewrites every monomial divisible by the lead monomial of the
    relation's rule by the corresponding multiple of its replacement.
    P is monic in z, so the representative is unique in every regime.
    """
    return reduce_by_rule(f, *spec.relation(f.vars).rule)


# -- irreducibility -----------------------------------------------------------


@dataclass(frozen=True)
class Irreducibility:
    reducible: bool
    l: Optional[int] = None
    Q: Optional[MultiPoly] = None
    note: str = ""
    __hash__ = None  # as Q's: MultiPoly has no hash


def irreducibility(spec: VarietySpec) -> Irreducibility:
    """Reducibility witness (maximal l with l | all k_i and P = Q^l), if any."""
    if spec.regime == REGIME_DANIELEWSKI:
        return Irreducibility(False, note="unit-weight presentations are irreducible")
    if spec.m == 0:
        if not spec.x_present:
            raise SpecError(f"unsupported regime: {spec.regime_note}")
        return Irreducibility(False, note="no y variables: the variety is an affine line")
    g = gcd(*spec.weights)
    if g <= 1:
        return Irreducibility(False, note="weight gcd is 1")
    P = spec.P.embed(("z",))
    for l in sorted((l for l in range(2, g + 1) if g % l == 0), reverse=True):
        if spec.d % l != 0:
            continue
        Q = perfect_power_root(P, l)
        if Q is not None:
            return Irreducibility(True, l=l, Q=Q)
    return Irreducibility(False, note="P is not a perfect power matching the weights")


# -- rigidity and genus -------------------------------------------------------


@dataclass(frozen=True)
class Rigidity:
    rigid: bool
    reason: str
    genus: Optional[int] = None  # of a smooth irreducible curve y1^k = P(z) or a line


def rigidity(spec: VarietySpec) -> Rigidity:
    """Rigidity verdict; an unsupported presentation raises SpecError."""
    if spec.regime == REGIME_DEGENERATE:
        return Rigidity(False, "the variety is an affine line", 0)
    if spec.regime in (REGIME_DANIELEWSKI, REGIME_ONE_UNIT):
        return Rigidity(False, "the canonical derivation is a nonzero locally nilpotent derivation")
    if spec.regime != REGIME_ALL_GE2:
        raise SpecError(f"unsupported regime: {spec.regime_note}")
    if spec.m >= 2:
        return Rigidity(True, "all weights are at least 2")
    irr = irreducibility(spec)
    if irr.reducible:
        return Rigidity(True, "reducible curve")
    if not _is_squarefree(spec.P):
        return Rigidity(True, "singular curve: P has a multiple root")
    k = spec.weights[0]
    g = genus_formula(k, spec.d)
    if (k, spec.d) == (2, 2):
        return Rigidity(True, "smooth curve isomorphic to the punctured line", g)
    return Rigidity(True, f"curve of positive genus {g}", g)


def _is_squarefree(P: MultiPoly) -> bool:
    g = univar_gcd(P, derivative(P, "z"))
    return g.total_degree() == 0


def genus_formula(k: int, d: int) -> int:
    """Genus of the smooth model of y^k = P(z), deg P = d, P squarefree."""
    num = (d - 1) * (k - 1) + 1 - gcd(k, d)
    if num % 2 != 0:
        raise AssertionError("genus formula produced a non-integer")
    return num // 2


# -- quasitori and permutation symmetries -------------------------------------


@dataclass(frozen=True)
class QuasitorusData:
    """One of the diagonal symmetry groups, with its acting characters.

    The ambient torus scales the coordinates (y1..ym, z); action lists the
    exponent of the acting parameter on each coordinate.  For the scaling
    family of P the reported type follows the tabulated classification,
    while effective_type is the honest image in the automorphism group
    (the two can differ; downstream structure uses the image subgroup).
    characters are the rows of its vanishing character lattice, when known.
    """

    which: str
    type: DiagGroupType
    action: tuple
    reference_index: Optional[int] = None
    characters: Optional[tuple] = None
    effective_type: Optional[DiagGroupType] = None
    note: str = ""


def proper_quasitorus(spec: VarietySpec) -> QuasitorusData:
    """Stabilizer of the weight monomial in the diagonal torus, fixing z."""
    if spec.m == 0:
        raise SpecError("no y variables")
    n = spec.m + 1
    chars = (tuple(spec.weights) + (0,), (0,) * spec.m + (1,))
    g = gcd(*spec.weights)
    typ = DiagGroupType(spec.m - 1, (g,) if g > 1 else ())
    found = group_type_from_vanishing_lattice(chars, n)
    if found != typ:
        raise AssertionError(f"weight-monomial stabilizer has type {found}, expected {typ}")
    return QuasitorusData(
        which="H",
        type=typ,
        action=tuple((f"y{i+1}", 1) for i in range(spec.m)),
        characters=chars,
        effective_type=typ,
        note="" if typ.invariant_factors else "connected: equals the proper torus",
    )


@dataclass(frozen=True)
class AdditionalQuasitorus:
    u: Optional[int]
    v: Optional[int]  # None when P is a pure power of z
    pure_power: bool
    D: QuasitorusData
    Dbar: QuasitorusData
    Dhat: QuasitorusData


def additional_quasitorus(spec: VarietySpec) -> AdditionalQuasitorus:
    """Scaling symmetries of P under z -> t^k1 z, y_ref -> t^d y_ref.

    u is the multiplicity of the zero root and v the maximal integer with
    P = z^u Q(z^v); reports the tabulated types (Z_{v k1}, Z_{lcm(k1,v)},
    Z_v, or three copies of K^x for P = z^d) alongside the effective image.
    """
    if spec.regime == REGIME_DANIELEWSKI:
        raise SpecError(
            "the scaling family is superseded by the canonical group in the "
            "unit-weight regime"
        )
    if spec.regime not in (REGIME_ALL_GE2, REGIME_ONE_UNIT):
        raise SpecError("additional quasitorus needs a suspension regime")
    if not spec.is_normalized():
        raise SpecError("normalize the presentation first")
    ref = spec.unit_index if spec.regime == REGIME_ONE_UNIT else 0
    k_ref = spec.weights[ref]
    support = sorted(spec.z_coefficients)  # P is free of y here
    u = min(support)
    n = spec.m + 1
    weight_vec = [0] * n
    weight_vec[ref] = spec.d
    weight_vec[spec.m] = k_ref
    action = ((f"y{ref+1}", spec.d), ("z", k_ref))

    if support == [spec.d]:
        torus = DiagGroupType(1)
        chars = image_characters(weight_vec, 0)
        eff = group_type_from_vanishing_lattice(chars, n)

        def data(which):
            return QuasitorusData(
                which=which,
                type=torus,
                action=action,
                reference_index=ref,
                characters=chars,
                effective_type=eff,
            )

        return AdditionalQuasitorus(
            u=spec.d, v=None, pure_power=True,
            D=data("D"), Dbar=data("Dbar"), Dhat=data("Dhat"),
        )

    v = 0
    for e in support:
        v = gcd(v, e - u)
    order_D = v * k_ref
    chars = image_characters(weight_vec, order_D)
    eff = group_type_from_vanishing_lattice(chars, n)
    lcm_kv = k_ref * v // gcd(k_ref, v)
    D = QuasitorusData(
        which="D",
        type=DiagGroupType(0, (order_D,) if order_D > 1 else ()),
        action=action,
        reference_index=ref,
        effective_type=None,
    )
    mismatch = eff != DiagGroupType(0, (lcm_kv,) if lcm_kv > 1 else ())
    Dbar = QuasitorusData(
        which="Dbar",
        type=DiagGroupType(0, (lcm_kv,) if lcm_kv > 1 else ()),
        action=action,
        reference_index=ref,
        characters=chars,
        effective_type=eff,
        note=(
            "tabulated type differs from the effective image; structure uses the image"
            if mismatch
            else ""
        ),
    )
    Dhat = QuasitorusData(
        which="Dhat",
        type=DiagGroupType(0, (v,) if v > 1 else ()),
        action=action,
        reference_index=ref,
    )
    return AdditionalQuasitorus(u=u, v=v, pure_power=False, D=D, Dbar=Dbar, Dhat=Dhat)


@dataclass(frozen=True)
class SymGroupData:
    """Permutations of y variables preserving the weights, by blocks."""

    blocks: tuple  # tuple of tuples of 1-based indices with equal weight
    sizes: tuple  # block sizes > 1

    def order(self) -> int:
        result = 1
        for b in self.blocks:
            for i in range(2, len(b) + 1):
                result *= i
        return result

    def is_trivial(self) -> bool:
        return self.order() == 1

    def pretty(self) -> str:
        if self.is_trivial():
            return "1"
        return " x ".join(f"S{len(b)}" for b in self.blocks if len(b) > 1)


def symmetric_group(spec: VarietySpec) -> SymGroupData:
    groups: dict = {}
    for i, k in enumerate(spec.weights):
        groups.setdefault(k, []).append(i + 1)
    blocks = tuple(tuple(v) for _, v in sorted(groups.items()))
    sizes = tuple(len(b) for b in blocks if len(b) > 1)
    return SymGroupData(blocks=blocks, sizes=sizes)


def ml_invariant(spec: VarietySpec) -> tuple:
    """Generators of the intersection of all derivation kernels."""
    if spec.regime == REGIME_DANIELEWSKI:
        return spec.yvars
    if spec.regime == REGIME_ONE_UNIT:
        return tuple(y for i, y in enumerate(spec.yvars) if i != spec.unit_index)
    if spec.regime == REGIME_ALL_GE2:
        return spec.yvars + ("z",)
    if spec.regime == REGIME_DEGENERATE:
        return ()
    raise SpecError("unsupported regime")
