"""Integer matrix normal forms and diagonalizable-group computations.

A subgroup of an ambient torus (K^x)^n is given by character rows spanning
its vanishing lattice: the sublattice of Z^n of characters restricting
trivially.  Intersection of subgroups corresponds to lattice sum, the
subgroup generated by two subgroups to lattice intersection, and the
isomorphism type falls out of one Smith normal form of any spanning rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional

from .cyclotomic import CycElem, canonical_scalar, cyc_root_of_unity, zeta

IntMat = list  # list of list of int

# bound on the cyclotomic orders whose roots are enumerated
ENUM_ORDER_BOUND = 360


def identity_matrix(n: int) -> IntMat:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(A: IntMat, B: IntMat) -> IntMat:
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in cols] for row in A]


def det_int(A: IntMat) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(A)
    if n == 0:
        return 1
    M = [list(map(int, row)) for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def smith_normal_form(A: IntMat) -> tuple:
    """(U, D, V) with U*A*V = D, U and V unimodular, D diagonal, d1 | d2 | ...."""
    r = len(A)
    c = len(A[0]) if r else 0
    if any(len(row) != c for row in A):
        raise ValueError(f"a row does not have {c} entries")
    M = [list(map(int, row)) for row in A]
    U = identity_matrix(r)
    V = identity_matrix(c)

    def row_swap(i, j):
        M[i], M[j] = M[j], M[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for row in M:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def row_add(dst, src, k):
        M[dst] = [a + k * b for a, b in zip(M[dst], M[src])]
        U[dst] = [a + k * b for a, b in zip(U[dst], U[src])]

    def col_add(dst, src, k):
        for row in M:
            row[dst] += k * row[src]
        for row in V:
            row[dst] += k * row[src]

    def row_negate(i):
        M[i] = [-a for a in M[i]]
        U[i] = [-a for a in U[i]]

    s = 0
    while s < min(r, c):
        piv = None
        for i in range(s, r):
            for j in range(s, c):
                v = M[i][j]
                if v != 0 and (piv is None or abs(v) < abs(M[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != s:
            row_swap(s, piv[0])
        if piv[1] != s:
            col_swap(s, piv[1])
        # Reduce until the pivot exactly divides (and then clears) its row,
        # its column, and the trailing block.  Every swap strictly shrinks
        # |pivot|, so the loop terminates; restarting after each swap keeps
        # column s clean before any column operation touches the block.
        while True:
            if M[s][s] < 0:
                row_negate(s)
            swapped = False
            for i in range(s + 1, r):
                if M[i][s] == 0:
                    continue
                q = M[i][s] // M[s][s]
                if q:
                    row_add(i, s, -q)
                if M[i][s] != 0:
                    row_swap(s, i)
                    swapped = True
                    break
            if swapped:
                continue
            for j in range(s + 1, c):
                if M[s][j] == 0:
                    continue
                q = M[s][j] // M[s][s]
                if q:
                    col_add(j, s, -q)
                if M[s][j] != 0:
                    col_swap(s, j)
                    swapped = True
                    break
            if swapped:
                continue
            viol = None
            for i in range(s + 1, r):
                for j in range(s + 1, c):
                    if M[i][j] % M[s][s] != 0:
                        viol = i
                        break
                if viol is not None:
                    break
            if viol is None:
                break
            row_add(s, viol, 1)
        s += 1
    if not _snf_postconditions(A, U, M, V):
        raise AssertionError("Smith normal form failed its postconditions")
    return U, M, V


def _snf_postconditions(A, U, D, V) -> bool:
    if mat_mul(mat_mul(U, A), V) != D:
        return False
    if abs(det_int(U)) != 1 or abs(det_int(V)) != 1:
        return False
    if any(v and i != j for i, row in enumerate(D) for j, v in enumerate(row)):
        return False
    diag = [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]
    for a, b in zip(diag, diag[1:]):
        if a < 0 or b < 0:
            return False
        if a == 0 and b != 0:
            return False
        if a != 0 and b % a != 0:
            return False
    return True


def _smith(rows: IntMat, ncols: int) -> tuple:
    """(U, diagonal of D, rank, V) of the Smith form U*A*V = D of the r x ncols
    rows A; no rows give U = [], no diagonal and V the identity."""
    if any(len(r) != ncols for r in rows):
        raise ValueError(f"a row does not have {ncols} entries")
    if not rows:
        return [], [], 0, identity_matrix(ncols)
    U, D, V = smith_normal_form(rows)
    diag = [D[i][i] for i in range(min(len(rows), ncols))]
    return U, diag, sum(1 for d in diag if d != 0), V


def left_kernel_basis(A: IntMat) -> IntMat:
    """Rows forming a Z-basis of {c : c*A = 0}."""
    U, _, rank, _ = _smith(A, len(A[0]) if A else 0)
    return U[rank:]


def lattice_intersect(L1: IntMat, L2: IntMat, ncols: int) -> IntMat:
    B1 = [list(r) for r in L1 if any(r)]
    B2 = [list(r) for r in L2 if any(r)]
    if not B1 or not B2:
        return []
    kernel = left_kernel_basis(B1 + [[-a for a in row] for row in B2])
    return [
        [sum(x * row[j] for x, row in zip(coeffs, B1)) for j in range(ncols)] for coeffs in kernel
    ]


# -- diagonalizable group types ---------------------------------------------


@dataclass(frozen=True)
class DiagGroupType:
    """Isomorphism type (K^x)^rank x Z_d1 x ... x Z_ds with d1 | d2 | ...."""

    torus_rank: int
    invariant_factors: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self, "invariant_factors", tuple(int(d) for d in self.invariant_factors)
        )
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        if any(d < 2 for d in self.invariant_factors):
            raise ValueError("invariant factors must be >= 2")

    def is_finite(self) -> bool:
        return self.torus_rank == 0

    def order(self) -> Optional[int]:
        if self.torus_rank:
            return None
        result = 1
        for d in self.invariant_factors:
            result *= d
        return result

    def pretty(self) -> str:
        parts = []
        if self.torus_rank == 1:
            parts.append("K^x")
        elif self.torus_rank > 1:
            parts.append(f"(K^x)^{self.torus_rank}")
        parts.extend(f"Z{d}" for d in self.invariant_factors)
        return " x ".join(parts) if parts else "1"


def group_type_from_vanishing_lattice(rows: IntMat, ncols: int) -> DiagGroupType:
    """Type of the subgroup of (K^x)^ncols on which the character rows vanish."""
    if any(len(r) != ncols for r in rows):
        raise ValueError(f"a character row does not have {ncols} entries")
    _, diag, rank, _ = _smith([r for r in rows if any(r)], ncols)
    return DiagGroupType(ncols - rank, tuple(d for d in diag if d > 1))


def image_characters(weights, modulus: int) -> tuple:
    """Characters vanishing on the image of t -> (t^w_1, ..., t^w_n) for t in
    mu_modulus (t in K^x when modulus is 0)."""
    column = [[int(w)] for w in weights] + ([[int(modulus)]] if modulus else [])
    return tuple(tuple(row[: len(weights)]) for row in left_kernel_basis(column))


@dataclass(frozen=True)
class QuotientResult:
    """Isomorphism type of (H x K)/(H cap K): the subgroup H and K generate.

    reported is read off the intersection of the two character lattices;
    intersection is the type of H cap K, read off their sum.
    """

    reported: DiagGroupType
    intersection: DiagGroupType


def diag_group_quotient(H: IntMat, K: IntMat, ncols: int) -> QuotientResult:
    """H and K are the character rows of two subgroups of (K^x)^ncols."""
    # reading H cap K first checks every row's length before any Smith form
    meet = group_type_from_vanishing_lattice(list(H) + list(K), ncols)
    return QuotientResult(
        reported=group_type_from_vanishing_lattice(lattice_intersect(H, K, ncols), ncols),
        intersection=meet,
    )


# -- monomial equation systems over a torus -----------------------------------


def power_product(bases, exponents):
    """The product of b**e over paired bases and integer exponents.

    Zero exponents are skipped.  Rational bases contribute integer powers
    of their numerators and denominators, so the rational part is one
    Fraction; CycElem bases are multiplied in as scalars.
    """
    num = den = 1
    cyc = None
    for b, e in zip(bases, exponents):
        if not e:
            continue
        if isinstance(b, CycElem):
            cyc = b**e if cyc is None else cyc * b**e
            continue
        p, q = (b.numerator, b.denominator) if e > 0 else (b.denominator, b.numerator)
        num *= p ** abs(e)
        den *= q ** abs(e)
    r = Fraction(num, den)
    return r if cyc is None else cyc * r


@dataclass
class TorusSolutionSet:
    """Solutions of t^{A_r} = lambda_r over the algebraic torus.

    structure describes the subgroup {t : t^{A_r} = 1 for all r}; the full
    solution set, when consistent, is the coset particular * subgroup.
    """

    exponents: tuple
    targets: tuple
    consistent: bool
    structure: DiagGroupType
    particular: Optional[tuple]
    coset_note: str
    torsion_generators: tuple

    def enumerate_solutions(self) -> list:
        """All solutions as scalar tuples, for a finite set with a particular solution."""
        sols = []
        ranges = [range(d) for d in self.structure.invariant_factors]
        for powers in itertools.product(*ranges):
            t = list(self.particular)
            for a, gen in zip(powers, self.torsion_generators):
                if a == 0:
                    continue
                t = [ti * gi**a for ti, gi in zip(t, gen)]
            sols.append(tuple(t))
        return sols


def solve_torus_system(
    A: IntMat,
    targets,
    ncols: Optional[int] = None,
) -> TorusSolutionSet:
    """Solve the monomial system t^{A_r} = lambda_r with exact arithmetic.

    One Smith form U*A*V = D: consistency is decided purely over Q through
    the left-kernel relations U[rank:] of A; a particular solution is
    assembled from restricted exact root extractions and verified by
    substitution before being returned.  Every row has ncols entries, the
    first row's count when ncols is not given.
    """
    rows = [list(map(int, r)) for r in A]
    targets = [t if type(t) is Fraction else Fraction(t) for t in targets]
    if len(rows) != len(targets):
        raise ValueError("row count does not match number of targets")
    if any(t == 0 for t in targets):
        raise ValueError("targets must be nonzero")
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty system")
        ncols = len(rows[0])

    U, diag, rank, V = _smith(rows, ncols)
    structure = DiagGroupType(ncols - rank, tuple(d for d in diag if d > 1))

    torsion_generators = []
    for p in range(rank):
        e = diag[p]
        if e > 1:
            torsion_generators.append(
                tuple(canonical_scalar(zeta(e, V[j][p] % e)) for j in range(ncols))
            )

    # rows rank.. of U span the left kernel of A: consistent iff lambda^U[p] = 1 there
    mu = [power_product(targets, u) for u in U]
    bad = next((p for p in range(rank, len(rows)) if mu[p] != 1), None)
    consistent = bad is None
    note = ""
    if not consistent:  # printed with its first nonzero entry positive, whatever U is
        relation, forced = tuple(U[bad]), mu[bad]
        if next(c for c in relation if c) < 0:
            relation, forced = tuple(-c for c in relation), 1 / forced
        note = f"kernel relation {relation} forces {forced} = 1"

    particular = None
    if consistent:
        roots = []
        failed = None
        for p in range(rank):
            w = cyc_root_of_unity(mu[p], diag[p])
            if w is None:
                failed = f"no exact {diag[p]}-th root of {mu[p]} in the restricted repertoire"
                break
            if isinstance(w, CycElem) and w.order > ENUM_ORDER_BOUND:
                failed = f"root order {w.order} exceeds enumeration bound {ENUM_ORDER_BOUND}"
                break
            roots.append(w)
        if failed is None:
            t = [power_product(roots, V[j]) for j in range(ncols)]
            for row, lam in zip(rows, targets):
                if power_product(t, row) != lam:
                    raise AssertionError("particular solution failed verification")
            particular = tuple(t)
        else:
            note = failed + "; solution set described structurally only"

    return TorusSolutionSet(
        exponents=tuple(tuple(r) for r in rows),
        targets=tuple(targets),
        consistent=consistent,
        structure=structure,
        particular=particular,
        coset_note=note,
        torsion_generators=tuple(torsion_generators),
    )
