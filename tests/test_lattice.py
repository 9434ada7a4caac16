"""Smith normal form, kernels, torus systems, diagonalizable-group quotients."""

import ast
import itertools
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import danaut
from danaut import (
    DiagGroupType,
    det_int,
    diag_group_quotient,
    left_kernel_basis,
    smith_normal_form,
    solve_torus_system,
    zeta,
)
from danaut.cyclotomic import CycElem, cyc_root_of_unity
from danaut.lattice import (
    ENUM_ORDER_BOUND,
    group_type_from_vanishing_lattice,
    image_characters,
    lattice_intersect,
    mat_mul,
    power_product,
)


def check_snf(A):
    U, D, V = smith_normal_form(A)
    r, c = len(A), len(A[0]) if A else 0
    assert mat_mul(mat_mul(U, A), V) == D
    assert abs(det_int(U)) == 1
    assert abs(det_int(V)) == 1
    diag = [D[i][i] for i in range(min(r, c))]
    for i in range(r):
        for j in range(c):
            if i != j:
                assert D[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return diag


def test_snf_examples():
    assert check_snf([[2]]) == [2]
    assert check_snf([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, 1, 1]
    # hand column/row reduction gives diag(1, 6)
    assert check_snf([[2, 0], [0, 3]]) == [1, 6]


def test_snf_randomized_postconditions():
    rng = random.Random(20240607)
    for _ in range(200):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        A = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        check_snf(A)


def test_left_kernel_examples():
    basis = left_kernel_basis([[1], [1]])
    assert len(basis) == 1
    assert basis[0][0] * 1 + basis[0][1] * 1 == 0
    assert basis[0] in ([1, -1], [-1, 1])

    assert left_kernel_basis([[1, 0], [0, 1]]) == []

    basis = left_kernel_basis([[2, 3], [4, 6]])
    assert len(basis) == 1
    c = basis[0]
    assert 2 * c[0] + 4 * c[1] == 0 and 3 * c[0] + 6 * c[1] == 0
    assert abs(c[0]) == 2 and abs(c[1]) == 1


def test_left_kernel_annihilates():
    rng = random.Random(7)
    for _ in range(50):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        A = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        for vec in left_kernel_basis(A):
            for j in range(c):
                assert sum(vec[i] * A[i][j] for i in range(r)) == 0


def _chain(factors) -> tuple:
    """Invariant factors of Z_f1 x ... x Z_fk, from the diagonal vanishing lattice."""
    diag = [[f if i == j else 0 for j in range(len(factors))] for i, f in enumerate(factors)]
    return group_type_from_vanishing_lattice(diag, len(factors)).invariant_factors


def test_invariant_factors_of_diagonal_lattices():
    assert _chain([2, 12]) == (2, 12)
    assert _chain([3, 2]) == (6,)
    assert _chain([4, 6]) == (2, 12)
    assert _chain([]) == ()


def _primary_chain(factors):
    """Reference: split every modulus into prime powers, then merge them by rank."""
    primary = {}
    for f in factors:
        if f < 2:
            continue
        p = 2
        while p * p <= f:
            if f % p == 0:
                e = 0
                while f % p == 0:
                    f //= p
                    e += 1
                primary.setdefault(p, []).append(e)
            p += 1
        if f > 1:
            primary.setdefault(f, []).append(1)
    if not primary:
        return ()
    for exps in primary.values():
        exps.sort(reverse=True)
    chain = []
    for i in range(max(len(v) for v in primary.values())):
        d = 1
        for p, exps in primary.items():
            if i < len(exps):
                d *= p ** exps[i]
        chain.append(d)
    return tuple(reversed(chain))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(1, 60), max_size=8))
def test_invariant_factors_match_primary_decomposition(factors):
    chain = _chain(factors)
    assert chain == _primary_chain(factors)
    assert DiagGroupType(0, chain).order() == prod(factors)


# -- torus systems ---------------------------------------------------------------


def test_solve_examples():
    s = solve_torus_system([[1]], [Fraction(1)])
    assert s.consistent and s.structure.is_trivial()
    assert s.particular == (Fraction(1),)

    # three variables, targets all 1: solutions {(1,1,1), (-1,-1,-1)}
    s = solve_torus_system(
        [[0, 0, 2], [1, 0, -3], [0, 1, -3]], [Fraction(1)] * 3
    )
    assert s.consistent
    assert s.structure == DiagGroupType(0, (2,))
    sols = s.enumerate_solutions()
    assert sorted(map(str, sols)) == sorted(
        map(str, [(Fraction(1), Fraction(1), Fraction(1)),
                  (Fraction(-1), Fraction(-1), Fraction(-1))])
    )

    s = solve_torus_system([[1], [1]], [Fraction(1), Fraction(-1)])
    assert not s.consistent
    assert "kernel relation" in s.coset_note


def test_solve_validation():
    with pytest.raises(ValueError):
        solve_torus_system([[1]], [Fraction(1), Fraction(1)])
    with pytest.raises(ValueError):
        solve_torus_system([[1]], [Fraction(0)])


def test_enumeration_bound():
    """t^200 = -1 needs a root of unity of order 400, above ENUM_ORDER_BOUND;
    t^180 = -1 needs one of order 360, at the bound."""
    s = solve_torus_system([[200]], [Fraction(-1)])
    assert s.consistent and s.particular is None
    assert s.coset_note == (
        "root order 400 exceeds enumeration bound 360; "
        "solution set described structurally only"
    )
    s = solve_torus_system([[180]], [Fraction(-1)])
    assert s.consistent and s.particular is not None and s.coset_note == ""


def test_particular_verified_by_substitution():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 3)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        # build solvable targets from a known point of roots of unity
        point = [zeta(6, rng.randint(0, 5)) for _ in range(n)]
        targets = []
        ok = True
        for row in rows:
            val = None
            acc = zeta(1, 0)
            for t, e in zip(point, row):
                acc = acc * t**e
            if not isinstance(acc, Fraction):
                ok = False
                break
            targets.append(acc)
        if not ok or any(t == 0 for t in targets):
            continue
        s = solve_torus_system(rows, targets)
        assert s.consistent
        if s.particular is not None:
            for row, lam in zip(rows, targets):
                acc = zeta(1, 0)
                for t, e in zip(s.particular, row):
                    if isinstance(t, Fraction):
                        acc = acc * t**e
                    else:
                        acc = acc * t**e
                assert acc == lam


def _relation_note(rel, forced):
    """How a failed kernel relation is printed: first nonzero entry positive."""
    if next(c for c in rel if c) < 0:
        rel, forced = [-c for c in rel], 1 / forced
    return f"kernel relation {tuple(rel)} forces {forced} = 1"


def _kernel_consistency(rows, targets):
    """Reference: the left-kernel relations from a separate Smith form."""
    for rel in left_kernel_basis(rows):
        prod = Fraction(1)
        for c, lam in zip(rel, targets):
            prod *= lam**c
        if prod != 1:
            return False, _relation_note(rel, prod)
    return True, ""


_units = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 3), Fraction(3, 2)])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_solve_consistency_matches_left_kernel_check(nrows, ncols, data):
    """One Smith form decides consistency exactly as the left-kernel relations do."""
    rows = [[data.draw(st.integers(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
    kind = data.draw(st.sampled_from(["from a point", "random", "ones"]))
    if kind == "from a point":  # consistent by construction
        point = [data.draw(_units) for _ in range(ncols)]
        targets = []
        for row in rows:
            val = Fraction(1)
            for t, e in zip(point, row):
                val *= t**e
            targets.append(val)
    elif kind == "random":
        targets = [data.draw(_units) for _ in rows]
    else:
        targets = [Fraction(1)] * nrows
    s = solve_torus_system(rows, targets, ncols=ncols)
    consistent, note = _kernel_consistency(rows, targets)
    assert s.consistent == consistent
    if consistent:
        assert not s.coset_note.startswith("kernel relation")
        assert kind != "from a point" or s.particular is not None
    else:
        assert s.coset_note == note and s.particular is None
        found = re.fullmatch(r"kernel relation (\(.*\)) forces (\S+) = 1", s.coset_note)
        relation, forced = ast.literal_eval(found[1]), Fraction(found[2])
        assert next(c for c in relation if c) > 0
        assert all(sum(c * row[j] for c, row in zip(relation, rows)) == 0 for j in range(ncols))
        assert _reference_power_product(targets, relation) == forced != 1


def test_structure_against_bruteforce_small():
    """SNF-derived order of {t : t^A = 1} agrees with direct root-of-unity counting."""
    rng = random.Random(29)
    N = 12
    cases = 0
    while cases < 12:
        n = rng.randint(1, 2)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        s = solve_torus_system(rows, [Fraction(1)] * len(rows))
        if not s.structure.is_finite():
            continue
        order = s.structure.order()
        if order is None or order > 64 or N % (order or 1) != 0:
            continue
        # count solutions with coordinates in mu_N
        count = 0
        for exps in itertools.product(range(N), repeat=n):
            if all(
                sum(e * a for e, a in zip(exps, row)) % N == 0 for row in rows
            ):
                count += 1
        # mu_N covers the full finite group iff every invariant factor divides N
        assert all(N % d == 0 for d in s.structure.invariant_factors)
        assert count == order
        cases += 1


# -- diagonalizable-group quotients ------------------------------------------------


def test_quotient_trivial_cases():
    H = []  # the full torus K^x
    K = [[1]]  # the trivial subgroup
    q = diag_group_quotient(H, K, 1)
    assert q.reported == DiagGroupType(1, ())
    assert q.intersection.is_trivial()


def test_quotient_y14y22_data():
    # data of the variety y1^4 y2^2 = z^6 + 1 in the torus scaling (y1,y2,z)
    H = [[4, 2, 0], [0, 0, 1]]
    K = image_characters([6, 0, 4], 24)
    assert group_type_from_vanishing_lattice(H, 3) == DiagGroupType(1, (2,))
    assert group_type_from_vanishing_lattice(K, 3) == DiagGroupType(0, (12,))
    q = diag_group_quotient(H, K, 3)
    assert q.intersection == DiagGroupType(0, (2,))
    # the join, not Z12 from cancelling Z2 against the listed factors of H and K
    assert q.reported == DiagGroupType(1, (2, 6))


def test_quotient_z2_self():
    # H = K = Z2 in the same embedding: (H x K)/(H cap K) = Z2
    H = [[2]]
    q = diag_group_quotient(H, H, 1)
    assert q.reported == DiagGroupType(0, (2,))
    assert q.intersection == DiagGroupType(0, (2,))


def test_quotient_symmetry():
    H = [[4, 2, 0], [0, 0, 1]]
    K = image_characters([6, 0, 4], 24)
    q1 = diag_group_quotient(H, K, 3)
    q2 = diag_group_quotient(K, H, 3)
    assert q1.reported == q2.reported
    assert q1.intersection == q2.intersection


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(-12, 12), min_size=1, max_size=3),
    st.one_of(st.just(0), st.integers(1, 60)),
)
def test_image_characters_match_closed_form(weights, modulus):
    """The image of t -> t^w is cyclic of order N / gcd(N, w) for t in mu_N,
    and K^x for t in K^x unless w = 0."""
    found = group_type_from_vanishing_lattice(image_characters(weights, modulus), len(weights))
    if modulus:
        order = modulus // gcd(modulus, *weights)
        assert found == DiagGroupType(0, (order,) if order > 1 else ())
    else:
        assert found == DiagGroupType(1 if any(weights) else 0, ())


def test_ragged_rows_are_rejected_before_any_smith_form(monkeypatch):
    import danaut.lattice as L

    def no_smith_form(A):
        raise AssertionError("a Smith form ran")

    monkeypatch.setattr(L, "smith_normal_form", no_smith_form)
    with pytest.raises(ValueError, match="3 entries"):
        group_type_from_vanishing_lattice([[1, 0, 0], [0, 2]], 3)
    for H, K in (([[4, 2]], [[0, 0, 1]]), ([[4, 2, 0]], [[0, 1]])):
        with pytest.raises(ValueError, match="3 entries"):
            diag_group_quotient(H, K, 3)


# -- power products and the torus solver against a Fraction/math.prod reference --


def _reference_power_product(bases, exponents):
    """prod(b**e) over Fraction and CycElem powers by math.prod: power_product's reference."""
    return prod((b**e for b, e in zip(bases, exponents) if e), start=Fraction(1))


_big = 10**39  # numerators of up to 40 digits
_rational_bases = st.builds(
    Fraction,
    st.one_of(st.integers(-9, 9), st.integers(-10 * _big, 10 * _big)).filter(bool),
    st.one_of(st.integers(1, 9), st.integers(1, 10 * _big)),
)
_cyclotomic_bases = st.builds(
    lambda r, n, a: r * zeta(n, a),
    _rational_bases, st.sampled_from([2, 3, 4, 6, 12]), st.integers(0, 11),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(st.one_of(_rational_bases, _rational_bases, _cyclotomic_bases),
                  st.integers(-5, 5)),
        max_size=5,
    )
)
def test_power_product_matches_fraction_reference(pairs):
    """Negative and zero exponents, negative and 40-digit bases, cyclotomic bases."""
    bases = [b for b, _ in pairs]
    exponents = [e for _, e in pairs]
    got = power_product(bases, exponents)
    want = _reference_power_product(bases, exponents)
    assert got == want
    if not any(isinstance(b, CycElem) for b, e in pairs if e):
        assert type(got) is Fraction


def _reference_solve(rows, targets, ncols):
    """(consistent, coset note, particular) by the solver's algorithm over
    Fraction powers and math.prod."""
    U, D, V = smith_normal_form(rows)
    diag = [D[i][i] for i in range(min(len(rows), ncols))]
    rank = sum(1 for d in diag if d != 0)
    mu = [_reference_power_product(targets, u) for u in U]
    bad = next((p for p in range(rank, len(rows)) if mu[p] != 1), None)
    if bad is not None:
        return False, _relation_note(U[bad], mu[bad]), None
    roots = [cyc_root_of_unity(mu[p], diag[p]) for p in range(rank)]
    if any(w is None or isinstance(w, CycElem) and w.order > ENUM_ORDER_BOUND for w in roots):
        return True, None, None
    t = tuple(_reference_power_product(roots, V[j]) for j in range(ncols))
    for row, lam in zip(rows, targets):
        assert _reference_power_product(t, row) == lam
    return True, "", t


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_solve_matches_fraction_reference(nrows, ncols, data):
    """Targets from a rational or cyclotomic point (consistent, roots of any
    kind) or drawn at random (often inconsistent), negative and 40-digit."""
    rows = [[data.draw(st.integers(-4, 4)) for _ in range(ncols)] for _ in range(nrows)]
    if data.draw(st.booleans()):
        point = [data.draw(st.one_of(_rational_bases, _cyclotomic_bases)) for _ in range(ncols)]
        targets = [_reference_power_product(point, row) for row in rows]
        assume(all(isinstance(lam, Fraction) for lam in targets))
    else:
        units = st.sampled_from([Fraction(-1), Fraction(4)])
        targets = [data.draw(st.one_of(_rational_bases, units)) for _ in rows]
    s = solve_torus_system(rows, targets, ncols=ncols)
    consistent, note, particular = _reference_solve(rows, targets, ncols)
    assert s.consistent == consistent
    if note is not None:
        assert s.coset_note == note
    assert s.particular == particular


@st.composite
def _finite_subgroup(draw, n):
    """A finite subgroup of (K^x)^n: n small character rows of full rank, maybe one more."""
    row = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n + 1))
    assume(det_int(rows[:n]) != 0)
    return rows


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(st.just(n), _finite_subgroup(n), _finite_subgroup(n))
    )
)
def test_quotient_is_the_join_of_finite_subgroups(case):
    """|<H, K>| = |H| |K| / |H cap K|, and the quotient does not depend on the order."""
    n, H, K = case
    gtype = group_type_from_vanishing_lattice
    q = diag_group_quotient(H, K, n)
    join = gtype(lattice_intersect(H, K, n), n)
    assert q.reported == join and q.intersection == gtype(H + K, n)
    assert join.order() * q.intersection.order() == gtype(H, n).order() * gtype(K, n).order()
    assert diag_group_quotient(K, H, n) == q


@pytest.mark.parametrize(
    "script",
    [
        "import danaut.lattice as L\n"
        "L._snf_postconditions = lambda *args: False\n"
        "L.smith_normal_form([[2, 0], [0, 3]])\n",
        "import danaut.lattice as L\n"
        "from danaut import make_variety, parse_poly, proper_quasitorus\n"
        "import danaut.varieties as V\n"
        "V.group_type_from_vanishing_lattice = lambda *args: L.DiagGroupType(7, ())\n"
        "proper_quasitorus(make_variety((2, 3), False, parse_poly('z^2+1', ('y1', 'y2', 'z'))))\n",
        # a wrong root of t^2 = 4 fails the particular solution's verification
        "import danaut.lattice as L\n"
        "L.cyc_root_of_unity = lambda c, n: c + 1\n"
        "L.solve_torus_system([[2]], [4])\n",
        # a product that drops the last column fails the Smith form's postconditions
        "import danaut.lattice as L\n"
        "real = L.mat_mul\n"
        "L.mat_mul = lambda A, B: [row[:-1] + [0] for row in real(A, B)]\n"
        "L.solve_torus_system([[2, 1], [0, 3]], [4, 9])\n",
    ],
)
def test_internal_checks_survive_optimize_flag(script):
    src = os.path.dirname(os.path.dirname(danaut.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode != 0
    assert "AssertionError" in proc.stderr
    if "solve_torus_system" in script:
        failed = "Smith normal form failed" if "mat_mul" in script else "particular solution failed"
        assert f"AssertionError: {failed}" in proc.stderr
