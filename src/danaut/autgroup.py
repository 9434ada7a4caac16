"""Automorphism-group assembly.

For unit-weight presentations the group is a semidirect product of the
canonical group (permutations and scalings stabilizing the coordinate ring,
found by solving monomial equations over a torus) with the commutative
family of exponentials of the canonical derivation.  For suspensions with
all weights >= 2 it is generated by the weight-monomial stabilizer, the
permutation symmetries, and the scaling family of P.

Branches over different permutations are independent of each other and are
evaluated (deterministically, in lexicographic order) one after another.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .cyclotomic import CycElem
from .derivations import GeneratorMap, unit_variable_image
from .fmt import sigma_str
from .lattice import (
    DiagGroupType,
    TorusSolutionSet,
    diag_group_quotient,
    power_product,
    solve_torus_system,
)
from .poly import MultiPoly, substitute
from .varieties import (
    REGIME_ALL_GE2,
    REGIME_DANIELEWSKI,
    REGIME_DEGENERATE,
    REGIME_ONE_UNIT,
    SpecError,
    VarietySpec,
    additional_quasitorus,
    ml_invariant,
    proper_quasitorus,
    symmetric_group,
)

MAX_TABLE_ORDER = 512
MAX_PERMUTATIONS = 5040


# -- canonical group elements --------------------------------------------------


def stabilizer_permutations(spec: VarietySpec) -> list:
    """All permutations of the y indices preserving the weights (0-based maps)."""
    S = symmetric_group(spec)
    count = S.order()
    if count > MAX_PERMUTATIONS:
        raise SpecError(f"permutation stabilizer too large to enumerate ({count})")
    blocks = [[i - 1 for i in b] for b in S.blocks]
    sigmas = []
    for combo in itertools.product(*(itertools.permutations(b) for b in blocks)):
        sigma = [0] * spec.m
        for members, perm in zip(blocks, combo):
            for src, dst in zip(members, perm):
                sigma[src] = dst
        sigmas.append(tuple(sigma))
    sigmas.sort()
    return sigmas


def invert_element(g, m: int):
    sig, t = g
    inv = [0] * m
    for i, s in enumerate(sig):
        inv[s] = i
    u = tuple(Fraction(1) / t[inv[i]] for i in range(m))
    return (tuple(inv), u + (Fraction(1) / t[m],))


def identity_element(m: int):
    return (tuple(range(m)), tuple([Fraction(1)] * (m + 1)))


def _element_images(spec: VarietySpec, sigma, scalars) -> dict:
    """Generator images of a permutation-and-scaling element phi.

    y_i maps to t_i*y_{sigma(i)} and z to tau*z.  When x is present, the
    relation x*M = P fixes its image: phi(M) = mu*M with mu = prod t_i^k_i,
    so x maps to (phi(P) + tau^d*(x*M - P))/(mu*M).
    """
    m = spec.m
    ctx = spec.vars
    images = {f"y{i+1}": MultiPoly.variable(ctx, f"y{sigma[i]+1}") * scalars[i] for i in range(m)}
    images["z"] = MultiPoly.variable(ctx, "z") * scalars[m]
    if not spec.x_present:
        return images
    c, mu = scalars[m] ** spec.d, power_product(scalars, spec.weights)
    images["x"] = unit_variable_image(spec, substitute(spec.P, images), c, mu)
    return images


def group_element_map(spec: VarietySpec, sigma, scalars) -> GeneratorMap:
    """Concrete generator map of a permutation-and-scaling element, inverse included."""
    if spec.regime not in (REGIME_DANIELEWSKI, REGIME_ONE_UNIT, REGIME_ALL_GE2):
        raise SpecError("group-element maps need a Danielewski or line-suspension regime")
    inv_sigma, inv_scalars = invert_element((sigma, scalars), spec.m)
    return GeneratorMap(
        spec,
        _element_images(spec, sigma, scalars),
        _element_images(spec, inv_sigma, inv_scalars),
    )


# -- canonical group (constraint solving) --------------------------------------


@dataclass
class Branch:
    sigma: tuple
    feasible: bool
    kill_reason: str = ""
    solutions: Optional[TorusSolutionSet] = None


@dataclass
class CanonicalGroup:
    """Solution of the stabilizer constraints, branch by permutation."""

    branches: list
    finite: bool
    order: Optional[int]
    elements: Optional[list]  # (sigma, scalars) pairs when finite and small
    splits_note: str
    summary: str


def _y_supports(spec: VarietySpec) -> list:
    """{y exponents: coefficient} of each s_i, whose terms are free of x and z."""
    supports, first = [], int(spec.x_present)
    for si in spec.s:
        supp = {e[first:-1]: c for e, c in si.terms.items()}
        if not all(isinstance(c, Fraction) for c in supp.values()):
            raise SpecError("constraint extraction needs rational coefficients")
        supports.append(supp)
    return supports


def _branch_constraints(spec: VarietySpec, sigma, supports):
    """Rows, targets, and a kill reason (if a zero pairs with a nonzero)."""
    inverse = [sigma.index(p) for p in range(spec.m)]
    rows, targets = [], []
    for i, supp in enumerate(supports):
        # every candidate e is in supp or is the image of its source b in supp
        candidates = set(supp).union(tuple(b[j] for j in inverse) for b in supp)
        for e in sorted(candidates):
            if all(a >= k for a, k in zip(e, spec.weights)):
                continue  # divisible by the weight monomial: no condition
            b = tuple(e[j] for j in sigma)
            c_src, c_dst = supp.get(b), supp.get(e)
            if c_src is None or c_dst is None:
                return (
                    None,
                    None,
                    f"coefficient of y^{e} pairs zero with nonzero in s_{i}",
                )
            rows.append(list(b) + [-(spec.d - i)])
            targets.append(c_dst / c_src)
    return rows, targets, ""


def canonical_group(spec: VarietySpec) -> CanonicalGroup:
    """Permutation-and-scaling stabilizer of the coordinate ring."""
    if spec.regime != REGIME_DANIELEWSKI:
        raise SpecError("canonical group requires the unit-weight regime")
    if not spec.is_normalized():
        raise SpecError("normalize the presentation before the canonical group")
    m = spec.m
    branches = []
    supports = _y_supports(spec)
    for sigma in stabilizer_permutations(spec):
        rows, targets, reason = _branch_constraints(spec, sigma, supports)
        if rows is None:
            branches.append(Branch(sigma, False, reason))
            continue
        sol = solve_torus_system(rows, targets, ncols=m + 1)
        if not sol.consistent:
            branches.append(
                Branch(sigma, False, f"inconsistent targets: {sol.coset_note}", sol)
            )
            continue
        branches.append(Branch(sigma, True, "", sol))

    feasible = [b for b in branches if b.feasible]
    finite = all(b.solutions.structure.is_finite() for b in feasible)
    order = None
    elements = None
    if finite:
        order = sum(b.solutions.structure.order() for b in feasible)
        if order <= MAX_TABLE_ORDER and all(b.solutions.particular is not None for b in feasible):
            elements = [
                (b.sigma, t)
                for b in feasible
                for t in b.solutions.enumerate_solutions()
            ]

    splits_note = ""
    if elements is not None:
        splits_note = _split_note(elements, m)
    if finite:
        summary = f"finite of order {order}"
    else:
        parts = []
        for b in feasible:
            parts.append(f"{sigma_str(b.sigma)}: {b.solutions.structure.pretty()}")
        summary = "infinite; per-branch structure: " + "; ".join(parts)
    return CanonicalGroup(
        branches=branches,
        finite=finite,
        order=order,
        elements=elements,
        splits_note=splits_note,
        summary=summary,
    )


def _split_note(elements, m: int) -> str:
    """Whether the group decomposes as (pure permutations) x (pure scalings).

    A decomposition G = A * B with A a subgroup of pure permutations and B
    a subgroup of pure scalings exists if and only if the pure-permutation
    elements of G already realize every permutation appearing in G.
    """
    perms_in_g = {sig for sig, _ in elements}
    one = tuple([Fraction(1)] * (m + 1))
    pure_perms = {sig for sig, t in elements if t == one}
    if perms_in_g == pure_perms:
        return "splits as (permutation part) x (scaling part)"
    return (
        "does not split: no subgroup of pure permutations realizes the "
        "permutation image of the group"
    )


# -- finite part closure -------------------------------------------------------


@dataclass
class FinitePart:
    """The closure of the canonical-group element list under composition."""

    order: int


def finite_part_from_elements(elements, m: int, bound: int = MAX_TABLE_ORDER) -> FinitePart:
    """Close a finite element list under composition and count the closure.

    Every scalar is r * zeta_L^a with r > 0 rational, where L is the lcm of
    2 and the cyclotomic orders met.  An element is encoded once as
    (sigma, ids of the r's, exponents mod L), so composition works on
    integer tuples.  The closure is a breadth-first search from the
    identity that right-multiplies by each input element it has not yet
    reached; it stops with a SpecError past ``bound`` elements.
    """
    L = 2
    for _, t in elements:
        for x in t:
            if isinstance(x, CycElem):
                L = lcm(L, x.order)
    rats, rat_ids, products = [], {}, {}

    def intern(r) -> int:
        if r not in rat_ids:
            rat_ids[r] = len(rats)
            rats.append(r)
        return rat_ids[r]

    def rmul(a: int, b: int) -> int:
        if (a, b) not in products:
            products[(a, b)] = intern(rats[a] * rats[b])
        return products[(a, b)]

    def encode_scalar(x) -> tuple:
        if isinstance(x, CycElem):
            rp = x.as_root_power()
            if rp is None:
                raise SpecError(f"scalar {x!r} is not a rational times a root of unity")
            r, a = rp[0], rp[1] * (L // x.order)
        else:
            r, a = Fraction(x), 0
        if r == 0:
            raise SpecError("a zero scalar is not a group element")
        if r < 0:
            r, a = -r, a + L // 2
        return intern(r), a % L

    def encode(g) -> tuple:
        return (tuple(g[0]) + (m,), *zip(*(encode_scalar(x) for x in g[1])))

    def compose(g, h) -> tuple:
        """The map of g applied after the map of h, on encodings; sigma
        fixes index m (the z scalar)."""
        sig, r, e = g
        sigh, rh, eh = h
        return (
            tuple(sig[j] for j in sigh),
            tuple(rmul(rh[i], r[j]) for i, j in enumerate(sigh)),
            tuple((eh[i] + e[j]) % L for i, j in enumerate(sigh)),
        )

    found = [encode(identity_element(m))]
    seen = {found[0]}
    gens = []

    def visit(g, h) -> None:
        y = compose(g, h)
        if y not in seen:
            if len(found) >= bound:
                raise SpecError(f"finite part exceeds element bound {bound}")
            seen.add(y)
            found.append(y)

    done = 0  # found[:done] have their products with every generator
    for g in elements:
        x = encode(g)
        if x not in seen:
            gens.append(x)
            for k in range(done):
                visit(found[k], x)
            while done < len(found):
                for h in gens:
                    visit(found[done], h)
                done += 1
    return FinitePart(order=len(found))


# -- structure assembly ----------------------------------------------------------


@dataclass(frozen=True)
class Verdicts:
    commutative: bool
    torus: bool
    solvable: str  # "yes" | "no" | "unknown"


@dataclass
class AutReport:
    """Structured description of the automorphism group of a presentation."""

    spec: VarietySpec
    structure: dict
    verdicts: Verdicts
    groups: dict
    warnings: list
    citations: list
    canonical: Optional[CanonicalGroup] = None
    special_family: bool = False
    structure_group: Optional[DiagGroupType] = None  # all weights >= 2: the listed group

    @property
    def regime(self) -> str:
        return self.spec.regime

    @property
    def structure_pretty(self) -> str:
        return pretty_structure(self.structure)


def leaf_diag(t: DiagGroupType) -> dict:
    return {"leaf": "diag", "rank": t.torus_rank, "factors": list(t.invariant_factors)}


def leaf_sym(s) -> dict:
    return {"leaf": "sym", "blocks": [list(b) for b in s.blocks]}


def leaf_unipotent(kernel_vars) -> dict:
    return {"leaf": "unipotent", "kernel": list(kernel_vars)}


def leaf_canonical(summary: str, order) -> dict:
    return {"leaf": "canonical-group", "summary": summary, "order": order}


def node(op: str, args: list) -> dict:
    return {"op": op, "args": args}


def pretty_structure(expr: dict) -> str:
    if "leaf" in expr:
        kind = expr["leaf"]
        if kind == "diag":
            return DiagGroupType(expr["rank"], tuple(expr["factors"])).pretty()
        if kind == "sym":
            sizes = [len(b) for b in expr["blocks"] if len(b) > 1]
            return " x ".join(f"S{s}" for s in sizes) if sizes else "1"
        if kind == "unipotent":
            return "U(d~)"
        if kind == "canonical-group":
            if expr["order"] is not None:
                return f"G[{expr['order']}]"
            return "G"
        if kind == "affine-line-group":
            return "K^x |x K (the affine group of the line)"
        raise ValueError(f"unknown leaf {kind}")
    ops = {"semidirect": " |x ", "direct": " x ", "quotient": " / "}
    sep = ops[expr["op"]]
    rendered = [pretty_structure(a) for a in expr["args"]]
    return "(" + sep.join(rendered) + ")"


def _solvable(spec: VarietySpec, with_five_equal: str) -> str:
    """The solvability verdict: "yes", or with_five_equal when five y's share a weight."""
    five_equal = any(spec.weights.count(k) >= 5 for k in set(spec.weights))
    return with_five_equal if five_equal else "yes"


def aut_structure(spec: VarietySpec) -> AutReport:
    """Assemble generators, structure, and verdicts for a normalized spec."""
    if not spec.is_normalized():
        raise SpecError("normalize the presentation first")
    if spec.regime == REGIME_DEGENERATE:
        return _aut_degenerate(spec)
    if spec.regime == REGIME_ALL_GE2:
        return _aut_all_ge2(spec)
    if spec.regime == REGIME_ONE_UNIT:
        return _aut_one_unit(spec)
    if spec.regime == REGIME_DANIELEWSKI:
        return _aut_danielewski(spec)
    raise SpecError(f"unsupported regime: {spec.regime_note}")


def _aut_degenerate(spec: VarietySpec) -> AutReport:
    """The affine line lies outside the structure theorems: flagged, no groups."""
    return AutReport(
        spec=spec,
        structure={"leaf": "affine-line-group"},
        verdicts=Verdicts(False, False, "yes"),
        groups={},
        warnings=[
            "degenerate presentation: the variety is an affine line; the "
            "structure theorems do not apply and the automorphism group is "
            "the affine group of the line"
        ],
        citations=[],
    )


def _aut_all_ge2(spec: VarietySpec) -> AutReport:
    warnings = []
    H = proper_quasitorus(spec)
    S = symmetric_group(spec)
    aq = additional_quasitorus(spec)
    quot = diag_group_quotient(H.characters, aq.Dbar.characters, spec.m + 1)
    if aq.Dbar.note:
        warnings.append("scaling family: " + aq.Dbar.note)
    special_family = spec.m == 1 and spec.weights[0] == 2 and spec.d == 2
    if special_family and aq.pure_power:
        warnings.append(
            "the variety y^2 = z^2 falls outside the semidirect-quotient "
            "corollary; the listed structure covers only the diagonal and "
            "permutation generators"
        )
    if special_family:
        warnings.append(
            "one-parameter family (y,z) -> (ay+bz, by+az), a^2-b^2=1, "
            "generates automorphisms beyond the quasitorus part"
        )

    diag_leaf = leaf_diag(quot.reported)
    if S.is_trivial():
        tree = diag_leaf
    else:
        tree = node("semidirect", [leaf_sym(S), diag_leaf])
    commutative = len(set(spec.weights)) == spec.m and not special_family
    g_all = gcd(*spec.weights)
    connected = gcd(g_all, spec.d) == 1 if aq.pure_power else aq.v == 1 and g_all == 1
    return AutReport(
        spec=spec,
        structure=tree,
        verdicts=Verdicts(commutative, commutative and connected, _solvable(spec, "no")),
        groups={"H": H, "S": S, "D": aq.D, "Dbar": aq.Dbar, "Dhat": aq.Dhat,
                "H_cap_Dbar": quot.intersection},
        special_family=special_family,
        warnings=warnings,
        citations=[
            "suspension-generators-theorem",
            "semidirect-quotient-corollary",
            "additional-quasitorus-lemma",
            "commutativity-criterion",
            "torus-criterion",
            "solvability-criterion",
        ],
        structure_group=quot.reported,
    )


def _aut_one_unit(spec: VarietySpec) -> AutReport:
    H = proper_quasitorus(spec)
    S = symmetric_group(spec)
    aq = additional_quasitorus(spec)
    warnings = ["scaling family: " + aq.Dbar.note] if aq.Dbar.note else []
    tree = node(
        "semidirect",
        [node("direct", [leaf_diag(H.type), leaf_diag(aq.D.type)]),
         leaf_unipotent(ml_invariant(spec))],
    )
    if not S.is_trivial():
        tree = node("semidirect", [leaf_sym(S), tree])
    return AutReport(
        spec=spec,
        structure=tree,
        verdicts=Verdicts(False, False, _solvable(spec, "no")),
        groups={"H": H, "T": H, "S": S, "D": aq.D, "Dbar": aq.Dbar, "Dhat": aq.Dhat},
        warnings=warnings + ["the proper quasitorus is connected (a torus) and "
                             "meets the scaling family trivially"],
        citations=[
            "unit-weight-structure-theorem",
            "kernel-classification-lemma",
            "solvability-criterion",
        ],
    )


def _aut_danielewski(spec: VarietySpec) -> AutReport:
    G = canonical_group(spec)
    if G.elements is not None:
        try:
            finite_part = finite_part_from_elements(G.elements, spec.m, bound=G.order + 1)
        except SpecError as exc:
            raise AssertionError(f"canonical-group elements do not close: {exc}") from exc
        if finite_part.order != G.order:
            raise AssertionError(
                f"canonical-group elements close to {finite_part.order} elements, "
                f"but the branches count {G.order}"
            )
    tree = node(
        "semidirect",
        [leaf_canonical(G.summary, G.order), leaf_unipotent(ml_invariant(spec))],
    )
    return AutReport(
        spec=spec,
        structure=tree,
        verdicts=Verdicts(G.order == 1, False, _solvable(spec, "unknown")),
        groups={"S": symmetric_group(spec)},
        canonical=G,
        warnings=["the canonical group meets the exponential family only in the identity"],
        citations=[
            "danielewski-structure-theorem",
            "canonical-group-constraints",
            "commutativity-criterion",
            "solvability-sufficiency",
        ],
    )
