"""Canonical groups, structure assembly, verdicts, and soundness checks."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from danaut import (
    CycElem,
    DiagGroupType,
    GeneratorMap,
    MultiPoly,
    SpecError,
    aut_structure,
    canonical_group,
    exp_replica,
    finite_part_from_elements,
    group_element_map,
    identity_element,
    invert_element,
    make_variety,
    monomial_inverse,
    normal_form,
    parse_poly,
    smith_normal_form,
    solve_torus_system,
    stabilizer_permutations,
    zeta,
)
from danaut.autgroup import _split_note
from danaut.cyclotomic import canonical_scalar
from danaut.derivations import automorphism_defect
from conftest import (
    brute_force_closure,
    compose_elements,
    compose_maps,
    element_value,
    random_kernel_poly,
    variety,
)


@pytest.fixture
def e4():
    return variety([2, 2], True, "z^3+z+y1-y2")


def scalars(*vals):
    return tuple(Fraction(v) for v in vals)


def test_stabilizer_permutations():
    spec = variety([2, 2, 3], True, "z^2+1")
    assert stabilizer_permutations(spec) == [(0, 1, 2), (1, 0, 2)]
    spec2 = variety([2, 3], True, "z^2+1")
    assert stabilizer_permutations(spec2) == [(0, 1)]


def test_canonical_group_e2_trivial():
    e2 = variety([2], True, "z^3+(y1+1)z+1")
    G = canonical_group(e2)
    assert G.finite and G.order == 1


def test_canonical_group_e4(e4):
    G = canonical_group(e4)
    assert G.finite and G.order == 4
    expected = {
        ((0, 1), scalars(1, 1, 1)),
        ((0, 1), scalars(-1, -1, -1)),
        ((1, 0), scalars(-1, -1, 1)),
        ((1, 0), scalars(1, 1, -1)),
    }
    assert {(s, tuple(t)) for s, t in G.elements} == expected
    assert "does not split" in G.splits_note


def test_canonical_group_threevar():
    X = variety([2, 2, 3], True, "z^2 + y1^2*y2^3*y3^4 + y3^3 + 1")
    G = canonical_group(X)
    assert not G.finite
    feas = [b for b in G.branches if b.feasible]
    assert [b.sigma for b in feas] == [(0, 1, 2), (1, 0, 2)]
    for b in feas:
        assert b.solutions.structure == DiagGroupType(2, (6,))


def test_canonical_group_requires_normalized():
    raw = make_variety(
        [2, 2], True, parse_poly("z^2 + z + y1", ("x", "y1", "y2", "z"))
    )
    with pytest.raises(SpecError):
        canonical_group(raw)


def test_element_composition_and_inverse(e4):
    G = canonical_group(e4)
    elems = {(s, tuple(t)) for s, t in G.elements}
    for a in G.elements:
        inv = invert_element(a, e4.m)
        assert compose_elements(a, inv, e4.m) == identity_element(e4.m)
        for b in G.elements:
            c = compose_elements(a, b, e4.m)
            assert (c[0], tuple(c[1])) in elems  # closure
            # composition of generator maps agrees with element composition
            ga = group_element_map(e4, *a)
            gb = group_element_map(e4, *b)
            gc = group_element_map(e4, *c)
            comp = compose_maps(ga, gb)
            for name in e4.vars:
                assert comp.images[name] == gc.images[name]


def test_element_maps_verify(e4):
    G = canonical_group(e4)
    for s, t in G.elements:
        gm = group_element_map(e4, s, t)
        assert automorphism_defect(e4, gm.images, gm.inverse_images) is None


def test_big_coefficients_keep_the_element_list():
    # the swap branch needs t^3 = c: exact for a cube c of 61 digits
    big = variety([2, 2], True, f"z^2 + y1^3 + {(10**20 + 1) ** 3}*y2^3 + 1")
    G = canonical_group(big)
    assert G.order == 36 and len(G.elements) == 36
    for s, t in G.elements:
        gm = group_element_map(big, s, t)
        assert automorphism_defect(big, gm.images, gm.inverse_images) is None
    # a square c has no rational cube root, so no list; the note says why
    square = variety([2, 2], True, f"z^2 + y1^3 + {(10**20 + 1) ** 2}*y2^3 + 1")
    G = canonical_group(square)
    assert G.order == 36 and G.elements is None
    notes = [b.solutions.coset_note for b in G.branches]
    assert any("no exact 3-th root" in n for n in notes), notes


def test_element_application(e4):
    G = canonical_group(e4)
    target = None
    for s, t in G.elements:
        if s == (1, 0) and t == scalars(-1, -1, 1):
            target = group_element_map(e4, s, t)
    f = parse_poly("y1-y2", e4.vars)
    # y1 -> -y2, y2 -> -y1: the difference is fixed
    assert target.apply_to(f) == f
    g = parse_poly("y1+y2", e4.vars)
    assert target.apply_to(g) == -g


def test_finite_part_e4(e4):
    rep = aut_structure(e4)
    assert rep.canonical.order == 4
    assert "does not split" in rep.canonical.splits_note


def test_finite_part_splitting_case():
    # s_0 = y1 + y2 is symmetric: the pure swap is in the group, so it splits
    X = variety([2, 2], True, "z^3 + z + y1 + y2")
    rep = aut_structure(X)
    assert rep.canonical.order == 4
    note = rep.canonical.splits_note
    assert "splits" in note and "does not" not in note


def test_finite_part_cyclic_z12():
    ident, one = (0, 1), Fraction(1)
    # one generator of order 12; then coprime orders 4, 3 and 5 on separate coordinates
    z12 = (ident, (canonical_scalar(zeta(12)), one, canonical_scalar(zeta(12, 5))))
    z4, z3, z5 = (
        (ident, tuple(canonical_scalar(zeta(n)) if i == k else one for k in range(3)))
        for i, n in enumerate((4, 3, 5))
    )
    for gens, order in (([z12], 12), ([z4, z3], 12), ([z4, z3, z5], 60)):
        assert finite_part_from_elements(gens, 2).order == order


def test_finite_part_bound_and_bad_scalars():
    m = 2
    z12 = ((0, 1), (canonical_scalar(zeta(12)), Fraction(1), Fraction(1)))
    assert finite_part_from_elements([z12], m).order == 12
    with pytest.raises(SpecError, match="bound 5"):
        finite_part_from_elements([z12], m, bound=5)
    # 1 + 2*zeta_4 is not a rational times a root of unity
    bad = ((0, 1), (CycElem(4, (1, 2)), Fraction(1), Fraction(1)))
    with pytest.raises(SpecError, match="root of unity"):
        finite_part_from_elements([bad], m)


# -- differential check of the finite-part closure against brute force ----------

_BOUND = 24


@st.composite
def _generators(draw):
    m = draw(st.integers(1, 3))
    N = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12]))

    def root():
        if not draw(st.booleans()):
            return Fraction(1)
        sign = draw(st.sampled_from([1, -1]))
        return canonical_scalar(zeta(N, draw(st.integers(0, N - 1))) * sign)

    # r and 1/r swapped by sigma: its square is a root-of-unity scaling, and
    # the group stays finite when the other generators are pure scalings
    paired = m >= 2 and draw(st.booleans())
    gens = []
    for _ in range(draw(st.integers(0 if paired else 1, 1 if paired else 2))):
        sigma = tuple(range(m)) if paired else tuple(draw(st.permutations(range(m))))
        gens.append((sigma, tuple(root() for _ in range(m + 1))))
    if paired:
        r = draw(st.sampled_from([Fraction(2), Fraction(3, 2), Fraction(-5, 3)]))
        t = [root() for _ in range(m + 1)]
        t[0] = canonical_scalar(t[0] * r)
        t[1] = canonical_scalar(t[1] * (1 / r))
        gens.append(((1, 0) + tuple(range(2, m)), tuple(t)))
    return m, gens


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_generators())
def test_finite_part_matches_brute_force_closure(case):
    m, gens = case
    ref = brute_force_closure(gens, m, _BOUND)
    if ref is None:
        with pytest.raises(SpecError):
            finite_part_from_elements(gens, m, bound=_BOUND)
        return
    elems, _ = ref
    assert finite_part_from_elements(gens, m, bound=_BOUND).order == len(elems)
    one = (Fraction(1), Fraction(0))
    pure = {g[0] for g in elems if all(v == one for v in element_value(g)[1])}
    splits = pure == {g[0] for g in elems}
    assert _split_note(elems, m).startswith("splits") == splits


def test_aut_structure_s5_family():
    expected = {
        (0, 0): DiagGroupType(2),
        (0, 1): DiagGroupType(1, (3,)),
        (1, 0): DiagGroupType(1, (2,)),
        (1, 1): DiagGroupType(1),
    }
    for (a, b), want in expected.items():
        Y = variety([2, 3], False, f"z^4 + {a}*z^2 + {b}*z")
        rep = aut_structure(Y)
        assert rep.structure_group == want, (a, b)


def test_aut_structure_y14y22():
    Y = variety([4, 2], False, "z^6+1")
    rep = aut_structure(Y)
    assert rep.groups["H"].type == DiagGroupType(1, (2,))
    assert rep.groups["Dbar"].type == DiagGroupType(0, (12,))
    assert rep.groups["H_cap_Dbar"] == DiagGroupType(0, (2,))
    # (±y1, ±y2, ±z) are 8 elements of order <= 2: K^x x Z12 has only 4
    for signs in itertools.product((1, -1), repeat=3):
        gm = group_element_map(Y, (0, 1), scalars(*signs))
        assert automorphism_defect(Y, gm.images, gm.inverse_images) is None
    assert rep.structure_group == DiagGroupType(1, (2, 6))
    assert rep.structure_pretty == "K^x x Z2 x Z6"
    assert not any("disagree" in w for w in rep.warnings)


def test_aut_structure_e4(e4):
    rep = aut_structure(e4)
    assert rep.canonical.order == 4
    assert rep.structure["op"] == "semidirect"
    assert rep.structure["args"][1]["leaf"] == "unipotent"
    assert not rep.verdicts.commutative


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(2, 5),
    st.integers(2, 8).flatmap(lambda d: st.tuples(
        st.just(d),
        st.dictionaries(st.integers(0, d - 2), st.sampled_from([-3, -2, -1, 1, 2, 5]), min_size=1),
    )),
)
def test_m1_identity_branch_closed_form(n, case):
    """x*y^n = P(z) with no z^(d-1) term (Makar-Limanov, Israel J. Math. 121,
    2001): (x, y, z) -> (a x, b y, c z) preserves the relation iff
    c^(d-e) = 1 for every exponent e of P, so the identity branch is
    K^x x Z_g with g the gcd of those d - e."""
    d, lower = case
    P = " + ".join([f"z^{d}"] + [f"{c}*z^{e}" for e, c in lower.items()])
    spec = variety([n], True, P)
    assert spec.P == parse_poly(P, spec.vars)  # already normalized
    g = gcd(*(d - e for e in lower))
    (branch,) = canonical_group(spec).branches
    assert branch.sigma == (0,) and branch.feasible
    assert branch.solutions.structure == DiagGroupType(1, (g,) if g > 1 else ())


def test_aut_structure_one_unit():
    Y = make_variety([1, 2, 2], False, parse_poly("z^3+1", ("y1", "y2", "y3", "z")))
    rep = aut_structure(Y)
    assert rep.regime == "LineSuspensionOneUnit"
    assert rep.structure["op"] == "semidirect"  # S |x ((T x D) |x U)
    assert not rep.verdicts.commutative
    assert rep.verdicts.solvable == "yes"
    assert rep.groups["H"].type == DiagGroupType(2)  # the proper torus
    assert rep.groups["D"].type == DiagGroupType(0, (3,))


def test_aut_structure_degenerate_rejected():
    """The affine line is outside the structure theorems: aut_structure
    answers it with the flagged affine group and no groups, not an error."""
    D = make_variety([1], False, parse_poly("z^2+1", ("y1", "z")))
    rep = aut_structure(D)
    assert rep.structure == {"leaf": "affine-line-group"}
    assert rep.structure_pretty == "K^x |x K (the affine group of the line)"
    assert (rep.verdicts.commutative, rep.verdicts.torus, rep.verdicts.solvable) == (False, False, "yes")
    assert rep.warnings == [
        "degenerate presentation: the variety is an affine line; the structure "
        "theorems do not apply and the automorphism group is the affine group of the line"
    ]
    assert rep.groups == {} and rep.citations == [] and rep.canonical is None


def test_verdict_examples():
    torus = aut_structure(variety([2, 3], False, "z^4 + z^2 + z"))
    assert torus.verdicts.torus and torus.verdicts.commutative

    five = aut_structure(variety([2] * 5, False, "z^3+1"))
    assert five.verdicts.solvable == "no"

    five_d = aut_structure(variety([2] * 5, True, "z^3 + z + y1"))
    assert five_d.verdicts.solvable == "unknown"

    e2rep = aut_structure(variety([2], True, "z^3+(y1+1)z+1"))
    assert e2rep.verdicts.commutative


def test_verdict_consistency():
    cases = [
        variety([2, 3], False, "z^4+z^2+z"),
        variety([2, 3], False, "z^4"),
        variety([2, 2], False, "z^4+2z^2+1"),
        variety([4, 2], False, "z^6+1"),
        variety([2, 2], True, "z^3+z+y1-y2"),
        variety([2], True, "z^3+(y1+1)z+1"),
        make_variety([1, 2], False, parse_poly("z^2+1", ("y1", "y2", "z"))),
    ]
    for spec in cases:
        rep = aut_structure(spec)
        if rep.verdicts.torus:
            assert rep.verdicts.commutative
        if rep.verdicts.commutative:
            assert rep.verdicts.solvable == "yes"


def scaling_family_element(D, t, m: int) -> tuple:
    """Scalars of the scaling-family element at parameter t, read from
    D.action: y_ref -> t^d*y_ref and z -> t^k_ref*z."""
    scalars = [Fraction(1)] * (m + 1)
    for name, e in D.action:
        scalars[m if name == "z" else int(name[1:]) - 1] = t**e
    return tuple(scalars)


def sample_generator_maps(report) -> list:
    """Concrete automorphisms witnessing every listed generator family."""
    spec = report.spec
    maps = []
    ctx = spec.vars
    m = spec.m
    ident, unit = tuple(range(m)), (Fraction(1),) * (m + 1)
    if report.regime in ("LineSuspensionAllGe2", "LineSuspensionOneUnit"):
        chars = [list(r) for r in report.groups["H"].characters]
        scalings = list(solve_torus_system(chars, [1, 1], ncols=m + 1).torsion_generators)
        # the columns rank.. of V in the Smith form U*A*V = D span the torus directions
        _, diag, V = smith_normal_form(chars)
        rank = sum(1 for i in range(min(len(chars), m + 1)) if diag[i][i])
        scalings += [tuple(Fraction(2) ** V[j][p] for j in range(m + 1)) for p in range(rank, m + 1)]
        # scaling family: the image of a generating parameter value
        D = report.groups["D"]
        if D.type.torus_rank or D.type.invariant_factors:
            t = Fraction(3) if D.type.torus_rank else zeta(D.type.invariant_factors[-1])
            scalings.append(scaling_family_element(D, t, m))
        maps += [group_element_map(spec, ident, scal) for scal in scalings]
        for block in report.groups["S"].blocks:
            if len(block) > 1:
                i, j = block[0] - 1, block[1] - 1
                sigma = list(ident)
                sigma[i], sigma[j] = j, i
                maps.append(group_element_map(spec, tuple(sigma), unit))
        if report.special_family:
            a, b = Fraction(5, 4), Fraction(3, 4)
            y, z = MultiPoly.variable(ctx, "y1"), MultiPoly.variable(ctx, "z")
            maps.append(
                GeneratorMap(
                    spec,
                    {"y1": y * a + z * b, "z": y * b + z * a},
                    {"y1": y * a - z * b, "z": y * (-b) + z * a},
                )
            )
    if report.regime == "LineSuspensionOneUnit":
        h = MultiPoly.variable(ctx, spec.yvars[1 if spec.unit_index == 0 else 0])
        maps.append(exp_replica(spec, h))
    if report.regime == "Danielewski":
        for sigma, t in (report.canonical.elements or []):
            maps.append(group_element_map(spec, sigma, t))
        h = MultiPoly.variable(ctx, "y1")
        maps.append(exp_replica(spec, h))
        maps.append(exp_replica(spec, MultiPoly.const(ctx, Fraction(1))))
    return maps


def test_generator_soundness_all_regimes():
    """Every emitted generator family has a verified concrete witness."""
    for spec in [
        variety([2, 3], False, "z^4+z"),
        variety([4, 2], False, "z^6+1"),
        variety([2, 2, 3], False, "z^6+1"),
        variety([2], False, "z^2+1"),  # special family case
        make_variety([1, 2, 2], False, parse_poly("z^3+1", ("y1", "y2", "y3", "z"))),
        variety([2, 2], True, "z^3+z+y1-y2"),
        variety([2], True, "z^3+(y1+1)z+1"),
    ]:
        rep = aut_structure(spec)
        maps = sample_generator_maps(rep)
        assert maps, spec.regime
        for gm in maps:
            defect = automorphism_defect(spec, gm.images, gm.inverse_images)
            assert defect is None, (spec.regime, gm.images)


_REGIMES = ("Danielewski", "LineSuspensionOneUnit", "LineSuspensionAllGe2")


@st.composite
def _presentations(draw):
    """A small presentation in one of the three regimes of the structure theorems."""
    regime = draw(st.sampled_from(_REGIMES))
    weight = st.integers(2, 4)
    if regime == "LineSuspensionOneUnit":
        weights = draw(st.permutations([1, draw(weight)]))
    else:
        weights = draw(st.lists(weight, min_size=1, max_size=2))
    x_present = regime == "Danielewski"
    d = draw(st.integers(2, 6))
    terms = [f"z^{d}"]
    for e in range(d):
        c = draw(st.integers(-2, 2))
        if c:
            terms.append(f"{c}*z^{e}")
    if x_present:
        for i in range(len(weights)):
            c = draw(st.integers(-2, 2))
            if c:
                terms.append(f"{c}*y{i+1}*z^{draw(st.integers(0, d - 2))}")
    return variety(weights, x_present, " + ".join(terms))


def _reference_verdicts(spec, rep) -> tuple:
    """(commutative, torus, solvable) from the criteria of the structure theorems."""
    counts = {k: spec.weights.count(k) for k in spec.weights}
    five_equal = max(counts.values()) >= 5
    if spec.regime == "Danielewski":
        # commutative iff the canonical group is trivial; solvability is
        # proved only below five equal weights
        return rep.canonical.order == 1, False, "unknown" if five_equal else "yes"
    solvable = "no" if five_equal else "yes"
    if spec.regime == "LineSuspensionOneUnit":
        return False, False, solvable
    # all weights >= 2: commutative iff the weights are distinct, outside the
    # family y^2 = P(z) with deg P = 2; a torus iff moreover the scalings of
    # P = z^u Q(z^v) are connected: gcd(weights, d) = 1 for P = z^d, else
    # v = 1 and gcd(weights) = 1
    special = spec.weights == (2,) and spec.d == 2
    commutative = len(counts) == spec.m and not special
    zexps = sorted(e[-1] for e in spec.P.terms)
    g = gcd(*spec.weights)
    if zexps == [spec.d]:
        torus = gcd(g, spec.d) == 1
    else:
        torus = gcd(*(e - zexps[0] for e in zexps)) == 1 and g == 1
    return commutative, commutative and torus, solvable


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_presentations())
def test_random_presentations_sound_maps_and_verdicts(spec):
    """Every sample generator map is a verified automorphism, and the
    verdicts follow the criteria, on small presentations in all three regimes."""
    if spec.regime not in _REGIMES:  # e.g. an affine line after normalization
        return
    rep = aut_structure(spec)
    maps = sample_generator_maps(rep)
    assert maps, spec.equation_str()
    for gm in maps:
        defect = automorphism_defect(spec, gm.images, gm.inverse_images)
        assert defect is None, (spec.equation_str(), gm.images)
    v = rep.verdicts
    assert (v.commutative, v.torus, v.solvable) == _reference_verdicts(spec, rep)


def _nontrivial_canonical_elements(rep) -> list:
    """Up to four nontrivial canonical elements: listed ones, or else the
    identity branch's torsion generators and torus directions t = 2^lam (lam
    in the right kernel of its exponent rows, by sympy) and the particular
    element of every other feasible branch."""
    m, G = rep.spec.m, rep.canonical
    one = element_value(identity_element(m))
    if G.elements is not None:
        found = G.elements
    else:
        ident, *others = [b for b in G.branches if b.feasible]
        sol = ident.solutions
        rows = sympy.Matrix(len(sol.exponents), m + 1, [e for row in sol.exponents for e in row])
        lams = [v * sympy.ilcm(1, *(c.q for c in v)) for v in rows.nullspace()]
        found = [(ident.sigma, t) for t in sol.torsion_generators]
        found += [(ident.sigma, tuple(Fraction(2) ** int(c) for c in lam)) for lam in lams]
        found += [(b.sigma, b.solutions.particular) for b in others
                  if b.solutions.particular is not None]
    return [g for g in found if element_value(g) != one][:4]


def _verdict_maps(rep) -> list:
    """Maps whose composites test the commutativity verdict.  In a Danielewski
    regime these are nontrivial canonical elements and exp(h*D) for h = 1 and
    each y: g and exp(h*D) commute for every such h only when g is trivial,
    since g exp(h*D) g^-1 = exp(c*g(h)*D) with c = mu/tau."""
    spec = rep.spec
    if rep.regime != "Danielewski":
        return sample_generator_maps(rep)
    ctx = spec.vars
    maps = [group_element_map(spec, *g) for g in _nontrivial_canonical_elements(rep)]
    kernel = [MultiPoly.const(ctx, 1)] + [MultiPoly.variable(ctx, y) for y in spec.yvars]
    return maps + [exp_replica(spec, h) for h in kernel]


def _commute(a, b) -> bool:
    return compose_maps(a, b).images == compose_maps(b, a).images


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_presentations())
@example(variety([2, 2], True, "z^4"))  # an infinite canonical group
@example(variety([2], False, "z^2+1"))  # the special family
def test_commutativity_verdict_by_composing_maps(spec):
    """A "commutative" verdict holds for every sampled pair of automorphisms,
    composed both ways; any other verdict has a non-commuting pair."""
    if spec.regime not in _REGIMES:
        return
    rep = aut_structure(spec)
    maps = _verdict_maps(rep)
    pairs = itertools.combinations(maps, 2)
    if rep.verdicts.commutative:
        assert all(_commute(a, b) for a, b in pairs), spec.equation_str()
    else:
        assert not all(_commute(a, b) for a, b in pairs), spec.equation_str()


def _derived_series(table, n) -> list:
    """Orders of G, G', G'', ... until the series stops, from a Cayley table on 0..n-1."""
    inverse = {i: next(j for j in range(n) if table[(i, j)] == 0) for i in range(n)}
    group, orders = set(range(n)), [n]
    while True:
        gens = {table[(table[(a, b)], table[(inverse[a], inverse[b])])]
                for a in group for b in group}
        derived = {0}
        while True:
            grown = derived | {table[(a, g)] for a in derived for g in gens}
            if grown == derived:
                break
            derived = grown
        if len(derived) == len(group):
            return orders
        group = derived
        orders.append(len(group))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_presentations().filter(lambda spec: spec.regime == "Danielewski"))
def test_solvability_verdict_by_derived_series(spec):
    """Aut = G |x U with U abelian, so where the canonical group G is listed a
    "yes" means G's derived series, from its Cayley table, reaches 1."""
    rep = aut_structure(spec)
    G = rep.canonical
    if G.elements is None or rep.verdicts.solvable != "yes":
        return
    elements, table = brute_force_closure(G.elements, spec.m, len(G.elements) + 1)
    assert len(elements) == G.order
    assert _derived_series(table, G.order)[-1] == 1, spec.equation_str()


def test_derived_series_of_the_m4_ladder_group():
    """The order-48 group of the m=4 ladder rung, S4 x Z2, has derived series
    48, 12 (A4), 4 (V4), 1."""
    spec = variety([2, 2, 2, 2], True, "z^3 - 2/3*z + 5/2*(y1 + y2 + y3 + y4)")
    G = aut_structure(spec).canonical
    _, table = brute_force_closure(G.elements, spec.m, G.order + 1)
    assert _derived_series(table, G.order) == [48, 12, 4, 1]


_SUSPENSIONS = ("LineSuspensionOneUnit", "LineSuspensionAllGe2")


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_presentations().filter(lambda spec: spec.regime in _SUSPENSIONS))
@example(variety([2], False, "z^2"))  # y^2 = z^2 and its special-family map
def test_monomial_inverse_matches_element_inverse(spec):
    """monomial_inverse gives the invert_element inverse of every
    group-element map, and None for exponentials and the special family."""
    rep = aut_structure(spec)
    for gm in sample_generator_maps(rep):
        inverse = monomial_inverse(spec, gm.images)
        if all(len(g.terms) == 1 for g in gm.images.values()):
            assert inverse == gm.inverse_images, (spec.equation_str(), gm.images)
        else:  # an exp_replica map or the special family's (ay+bz, by+az)
            assert inverse is None, (spec.equation_str(), gm.images)


def test_verify_rejects_non_automorphism():
    Y = variety([2, 3], False, "z^4")
    images = {
        "y1": parse_poly("2*y1", Y.vars),
        "y2": parse_poly("y2", Y.vars),
        "z": parse_poly("z", Y.vars),
    }
    inverse = monomial_inverse(Y, images)
    assert inverse["y1"] == parse_poly("y1/2", Y.vars)
    defect = automorphism_defect(Y, images, inverse)
    assert defect == "map does not preserve the defining ideal"
    with pytest.raises(ValueError, match=defect):
        GeneratorMap(Y, images, inverse)
    with pytest.raises(TypeError):  # every map carries its inverse
        GeneratorMap(Y, images)


def test_verify_exponentials_random(e4):
    rng = random.Random(20240614)
    for _ in range(20):
        h = random_kernel_poly(rng, e4)
        gm = exp_replica(e4, h)
        assert automorphism_defect(e4, gm.images, gm.inverse_images) is None


def test_conjugation_stability(e4):
    """g o u o g^-1 stays an automorphism and scales each y (normality)."""
    rng = random.Random(31)
    G = canonical_group(e4)
    gmaps = [group_element_map(e4, s, t) for s, t in G.elements]
    for _ in range(10):
        h = random_kernel_poly(rng, e4)
        u = exp_replica(e4, h)
        for g in gmaps:
            ginv = GeneratorMap(e4, g.inverse_images, g.images)
            conj = compose_maps(compose_maps(g, u), ginv)
            assert automorphism_defect(e4, conj.images, conj.inverse_images) is None
            for name in e4.yvars:
                img = conj.images[name]
                assert len(img.terms) == 1
                (exps, _), = img.terms.items()
                assert sum(exps) == 1


def test_ideal_preservation_of_exponentials(e4):
    rng = random.Random(4)
    defining = e4.defining_polynomial
    for _ in range(20):
        h = random_kernel_poly(rng, e4)
        gm = exp_replica(e4, h)
        from danaut import substitute

        assert normal_form(substitute(defining, gm.images), e4).is_zero()
