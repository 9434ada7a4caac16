"""Classification, normalization, and geometric invariants of presentations."""

import random
from fractions import Fraction
from math import gcd

import pytest

from danaut import (
    DiagGroupType,
    MultiPoly,
    Rigidity,
    SpecError,
    additional_quasitorus,
    genus_formula,
    irreducibility,
    make_variety,
    ml_invariant,
    normalize,
    parse_poly,
    proper_quasitorus,
    rigidity,
    substitute,
    symmetric_group,
    zeta,
)
from danaut.poly import as_univar, from_univar
from conftest import reconstruct_reducible_product, variety


def test_classify_examples():
    Y = variety([2, 3], False, "z^4 + z^2 + z")
    assert Y.regime == "LineSuspensionAllGe2"
    X = variety([2, 2], True, "z^3 + z + y1 - y2")
    assert X.regime == "Danielewski"
    U = make_variety([1, 2], True, parse_poly("z^2+1", ("x", "y1", "y2", "z")))
    assert U.regime == "Unsupported"
    assert "unit weights" in U.regime_note
    O = make_variety([1, 2, 3], False, parse_poly("z^3+1", ("y1", "y2", "y3", "z")))
    assert O.regime == "LineSuspensionOneUnit" and O.unit_index == 0
    D = make_variety([1], False, parse_poly("z^2+1", ("y1", "z")))
    assert D.regime == "Degenerate"
    assert make_variety([], True, parse_poly("z^2+1", ("x", "z"))).regime == "Degenerate"
    points = make_variety([], False, parse_poly("z^2-4", ("z",)))  # 1 = z^2 - 4: two points
    assert points.regime == "Unsupported" and "finite set of points" in points.regime_note
    with pytest.raises(SpecError, match="finite set of points"):
        irreducibility(points)
    low = make_variety([2, 2], False, parse_poly("z+1", ("y1", "y2", "z")))
    assert low.regime == "Unsupported"


def test_classify_rejects_nonmonic():
    with pytest.raises(SpecError):
        make_variety([2, 2], False, parse_poly("2z^2+1", ("y1", "y2", "z")))
    with pytest.raises(SpecError):
        # a y-dependent leading z coefficient is not monic either
        make_variety([2, 2], True, parse_poly("y1*z^2+z^2+1", ("x", "y1", "y2", "z")))


def test_normalize_examples():
    Y = make_variety([2], False, parse_poly("z^2+2z+1", ("y1", "z")))
    N = normalize(Y)
    assert N.is_normalized()
    assert N.s[0].is_zero() and N.s[1].is_zero()  # P becomes z^2
    assert N.shift is not None

    done = variety([2, 2], True, "z^3 + z + y1 - y2")
    assert normalize(done) is done  # idempotent on a normalized spec

    e2 = variety([2], True, "z^3 + (y1+1)z + 1")
    assert e2.is_normalized()
    assert normalize(e2) is e2


def test_normalize_shift_reproduces():
    # applying the recorded substitution to the original P gives the new P
    raw = make_variety(
        [2, 2], True, parse_poly("z^3 + 3*y1*z^2 + z + 1", ("x", "y1", "y2", "z"))
    )
    spec = normalize(raw)
    assert spec.is_normalized()
    images = {name: MultiPoly.variable(raw.vars, name) for name in raw.vars}
    images["z"] = MultiPoly.variable(raw.vars, "z") - spec.shift
    assert substitute(raw.P, images) == spec.P


def test_irreducibility_examples():
    red = variety([2, 2], False, "z^4 + 2z^2 + 1")
    r = irreducibility(red)
    assert r.reducible and r.l == 2
    assert r.Q == parse_poly("z^2+1", ("z",))
    # exact component-product reconstruction over Q(zeta_l)
    assert reconstruct_reducible_product(red, r.l, r.Q) == red.defining_polynomial

    assert not irreducibility(variety([2, 3], False, "z^4 + z")).reducible
    one_unit = make_variety([1, 2], False, parse_poly("z^2+1", ("y1", "y2", "z")))
    assert not irreducibility(one_unit).reducible


def test_irreducibility_maximal_l():
    # P = (z+1)^4 with weights divisible by 4: the maximal witness is l = 4
    z = MultiPoly.variable(("y1", "y2", "z"), "z")
    spec = make_variety([4, 8], False, (z + 1) ** 4)
    r = irreducibility(spec)
    assert r.reducible and r.l == 4


def test_rigidity_paths():
    assert rigidity(variety([2, 3], False, "z^4+z")).rigid
    r = rigidity(variety([2], False, "z^2+1"))
    assert r.rigid and "punctured line" in r.reason
    red = rigidity(variety([2], False, "z^4+2z^2+1"))
    assert red.rigid and "reducible" in red.reason
    sing = rigidity(variety([2], False, "z^4"))  # multiple root at 0... reducible first
    assert sing.rigid
    pos = rigidity(variety([2], False, "z^3+z"))
    assert pos.rigid and "genus" in pos.reason
    lnd = "the canonical derivation is a nonzero locally nilpotent derivation"
    for unit in (variety([2, 2], True, "z^2+y1"), variety([1, 2], False, "z^3+1")):
        assert rigidity(unit) == Rigidity(False, lnd)
    line = make_variety([1], False, parse_poly("z^2+1", ("y1", "z")))
    assert rigidity(line) == Rigidity(False, "the variety is an affine line", 0)
    two_units = make_variety([1, 1], False, parse_poly("z^2+1", ("y1", "y2", "z")))
    assert two_units.regime == "Unsupported"
    with pytest.raises(SpecError):
        rigidity(two_units)


def test_genus_formula_values():
    assert genus_formula(2, 2) == 0
    assert genus_formula(2, 3) == 1
    assert genus_formula(3, 4) == 3


def test_genus_checks():
    """rigidity is the one genus rule: a genus for a smooth irreducible curve
    y1^k = P(z), None with the reason otherwise."""

    def curve(k, coeffs):
        return normalize(make_variety([k], False, from_univar(("y1", "z"), coeffs)))

    P = [Fraction(1), Fraction(1), Fraction(0), Fraction(1)]
    assert rigidity(curve(2, P)).genus == 1  # z^3 + z + 1 squarefree
    bad = [Fraction(1), Fraction(2), Fraction(1)]
    assert rigidity(curve(2, bad)) == Rigidity(True, "reducible curve")  # (z+1)^2
    sq = [Fraction(1), Fraction(0), Fraction(2), Fraction(0), Fraction(1)]
    assert rigidity(curve(2, sq)) == Rigidity(True, "reducible curve")  # (z^2+1)^2 = Q^2
    Q = from_univar(("z",), [Fraction(1), Fraction(1), Fraction(1)])
    cube = as_univar(Q * Q * Q)  # (z^2+z+1)^3 with l = k = 3
    assert rigidity(curve(3, cube)) == Rigidity(True, "reducible curve")
    assert rigidity(curve(2, cube)) == Rigidity(True, "singular curve: P has a multiple root")
    # (z^2+1)*(z^2+2) is squarefree, not a power: fine for k=2
    P2 = [Fraction(2), Fraction(0), Fraction(3), Fraction(0), Fraction(1)]
    assert rigidity(curve(2, P2)).genus == 1


def test_genus_table_parity_and_positivity():
    for k in range(2, 13):
        for d in range(2, 13):
            num = (d - 1) * (k - 1) + 1 - gcd(k, d)
            assert num % 2 == 0
            g = genus_formula(k, d)
            if (k, d) == (2, 2):
                assert g == 0
            else:
                assert g > 0


def test_proper_quasitorus():
    q = proper_quasitorus(variety([4, 2], False, "z^6+1"))
    assert q.type == DiagGroupType(1, (2,))
    assert proper_quasitorus(variety([2, 3], False, "z^4+z")).type == DiagGroupType(1)
    q3 = proper_quasitorus(variety([2, 2, 2], False, "z^3+1"))
    assert q3.type == DiagGroupType(2, (2,))


def test_additional_quasitorus_examples():
    # z^4 + bz = z(z^3 + b): u=1, v=3
    aq = additional_quasitorus(variety([2, 3], False, "z^4+z"))
    assert (aq.u, aq.v) == (1, 3)
    assert aq.Dhat.type == DiagGroupType(0, (3,))
    assert aq.D.type == DiagGroupType(0, (6,))
    # z^4 + az^2 = z^2(z^2 + a): u=2, v=2
    aq = additional_quasitorus(variety([2, 3], False, "z^4+z^2"))
    assert (aq.u, aq.v) == (2, 2)
    assert aq.Dhat.type == DiagGroupType(0, (2,))
    # pure power
    aq = additional_quasitorus(variety([2, 3], False, "z^4"))
    assert aq.pure_power
    for q in (aq.D, aq.Dbar, aq.Dhat):
        assert q.type == DiagGroupType(1)
    with pytest.raises(SpecError):
        additional_quasitorus(variety([2, 2], True, "z^2+y1"))


def test_additional_quasitorus_membership_probe():
    """The scaling family's full order is exactly v*k1 (maximality probe)."""
    spec = variety([2, 3], False, "z^4+z")
    aq = additional_quasitorus(spec)
    k1, d = spec.weights[0], spec.d
    order = aq.v * k1
    zv = ("z",)
    P = from_univar(zv, as_univar(spec.P.embed(("z",))))
    z = MultiPoly.variable(zv, "z")

    def stabilizes(eps):
        lhs = substitute(P, {"z": z * (eps**k1)})
        return lhs == P * (eps ** (k1 * d))

    assert stabilizes(zeta(order))
    for bigger in range(order + 1, 2 * order + 1):
        assert not stabilizes(zeta(bigger))


def test_additional_quasitorus_randomized_table():
    """Lemma-table reproduction for 30 constructed P = z^u * Q(z^v)."""
    rng = random.Random(20240611)
    zv = ("y1", "y2", "z")
    done = 0
    while done < 30:
        u = rng.randint(0, 3)
        v = rng.randint(1, 4)
        k1 = rng.randint(2, 5)
        a = rng.choice([1, 2, 3])
        if a > 1 and gcd(a, 1) != 1:
            continue
        # P = z^u (z^(v*a) + z^v + c), gcd of gaps is exactly v
        c = rng.choice([1, 2])
        d = u + v * a
        if a == 1:
            text = f"z^{u+v} + {c}" if u == 0 else f"z^{u+v} + {c}*z^{u}"
            d = u + v
        else:
            text = f"z^{u + v*a} + z^{u+v} + {c}" if u == 0 else (
                f"z^{u + v*a} + z^{u+v} + {c}*z^{u}"
            )
        if d < 2:
            continue
        spec = make_variety([k1, k1 + 1], False, parse_poly(text, zv))
        if not spec.is_normalized():
            continue
        aq = additional_quasitorus(spec)
        assert aq.u == u and aq.v == v, (text, aq.u, aq.v)
        assert aq.D.type == DiagGroupType(0, (v * k1,) if v * k1 > 1 else ())
        lcm_kv = k1 * v // gcd(k1, v)
        assert aq.Dbar.type == DiagGroupType(0, (lcm_kv,) if lcm_kv > 1 else ())
        assert aq.Dhat.type == DiagGroupType(0, (v,) if v > 1 else ())
        done += 1


def test_symmetric_group():
    s = symmetric_group(variety([2, 2, 3], False, "z^3+1"))
    assert s.blocks == ((1, 2), (3,))
    assert s.sizes == (2,)
    assert symmetric_group(variety([4, 2], False, "z^6+1")).is_trivial()
    big = symmetric_group(variety([2] * 5, False, "z^3+1"))
    assert big.order() == 120


def test_ml_invariant():
    assert ml_invariant(variety([2, 2], True, "z^3+z+y1-y2")) == ("y1", "y2")
    one_unit = make_variety([1, 2, 2], False, parse_poly("z^3+1", ("y1", "y2", "y3", "z")))
    assert ml_invariant(one_unit) == ("y2", "y3")
    assert ml_invariant(variety([2, 3], False, "z^4+z")) == ("y1", "y2", "z")


def test_spec_is_unhashable_by_contract():
    """Specs compare by value, P included, and MultiPoly has no hash, so a
    spec declares none instead of advertising a generated one that raises
    on use: equal specs are equal, and neither can key a dict.  The same
    holds for an irreducibility result, whose witness Q is a MultiPoly."""
    from danaut import Irreducibility, VarietySpec
    from conftest import load_fixture

    spec, again = load_fixture("s7_e4.json"), load_fixture("s7_e4.json")
    assert spec == again and spec is not again
    assert VarietySpec.__hash__ is None and MultiPoly.__hash__ is None
    for value in (spec, again):
        with pytest.raises(TypeError, match="unhashable type: 'VarietySpec'"):
            hash(value)
    reducible = irreducibility(variety([2, 2], False, "z^4+2z^2+1"))
    irreducible = irreducibility(spec)
    assert reducible.reducible and reducible.Q is not None and not irreducible.reducible
    assert Irreducibility.__hash__ is None
    for value in (reducible, irreducible):
        with pytest.raises(TypeError, match="unhashable type: 'Irreducibility'"):
            hash(value)
