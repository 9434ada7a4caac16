"""Integer matrix normal forms and diagonalizable-group computations.

Subgroups of an ambient torus (K^x)^n are handled through their vanishing
lattices: the sublattice of Z^n of characters restricting trivially.
Intersection of subgroups corresponds to lattice sum, the subgroup generated
by two subgroups to lattice intersection, and the isomorphism type falls out
of the Smith normal form of a lattice basis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Optional

from .cyclotomic import CycElem, canonical_scalar, cyc_root_of_unity, zeta

IntMat = list  # list of list of int

# bound on the cyclotomic orders whose roots are enumerated
ENUM_ORDER_BOUND = 360


def identity_matrix(n: int) -> IntMat:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(A: IntMat, B: IntMat) -> IntMat:
    if not A:
        return []
    inner = len(B)
    return [
        [sum(row[k] * B[k][j] for k in range(inner)) for j in range(len(B[0]) if B else 0)]
        for row in A
    ]


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
    if mat_mul(mat_mul(U, [list(r) for r in A]), V) != D:
        return False
    if abs(det_int(U)) != 1 or abs(det_int(V)) != 1:
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


def left_kernel_basis(A: IntMat) -> IntMat:
    """Rows forming a Z-basis of {c : c*A = 0}."""
    r = len(A)
    if r == 0:
        return []
    c = len(A[0]) if A else 0
    if c == 0:
        return identity_matrix(r)
    U, D, _ = smith_normal_form(A)
    rank = sum(1 for i in range(min(r, c)) if D[i][i] != 0)
    return [list(U[i]) for i in range(rank, r)]


def hermite_normal_form(rows: IntMat, ncols: int) -> IntMat:
    """Canonical row-style HNF basis of the lattice spanned by the rows."""
    mat = [list(map(int, row)) for row in rows if any(row)]
    pivot_row = 0
    for col in range(ncols):
        while True:
            live = [i for i in range(pivot_row, len(mat)) if mat[i][col] != 0]
            if not live:
                break
            if len(live) == 1:
                break
            live.sort(key=lambda i: abs(mat[i][col]))
            i0 = live[0]
            for i in live[1:]:
                q = mat[i][col] // mat[i0][col]
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[i0])]
        live = [i for i in range(pivot_row, len(mat)) if mat[i][col] != 0]
        if not live:
            continue
        i0 = live[0]
        mat[pivot_row], mat[i0] = mat[i0], mat[pivot_row]
        if mat[pivot_row][col] < 0:
            mat[pivot_row] = [-a for a in mat[pivot_row]]
        for i in range(pivot_row):
            q = mat[i][col] // mat[pivot_row][col]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[pivot_row])]
        pivot_row += 1
    return [row for row in mat[:pivot_row]]


def lattice_intersect(L1: IntMat, L2: IntMat, ncols: int) -> IntMat:
    B1 = [list(r) for r in L1 if any(r)]
    B2 = [list(r) for r in L2 if any(r)]
    if not B1 or not B2:
        return []
    stacked = B1 + [[-a for a in row] for row in B2]
    kernel = left_kernel_basis(stacked)
    vecs = []
    for coeffs in kernel:
        v = [0] * ncols
        for x, row in zip(coeffs[: len(B1)], B1):
            if x:
                for j in range(ncols):
                    v[j] += x * row[j]
        vecs.append(v)
    return hermite_normal_form(vecs, ncols)


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

    def is_trivial(self) -> bool:
        return self.torus_rank == 0 and not self.invariant_factors

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
    rows = [r for r in rows if any(r)]
    if not rows:
        return DiagGroupType(ncols, ())
    _, D, _ = smith_normal_form(rows)
    diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
    rank = sum(1 for d in diag if d != 0)
    factors = tuple(d for d in diag if d > 1)
    return DiagGroupType(ncols - rank, factors)


@dataclass(frozen=True)
class DiagSubgroup:
    """Subgroup of (K^x)^ambient given by its vanishing character lattice."""

    ambient: int
    lattice: tuple

    @staticmethod
    def from_defining_characters(ambient: int, characters) -> "DiagSubgroup":
        rows = hermite_normal_form([list(ch) for ch in characters], ambient)
        return DiagSubgroup(ambient, tuple(tuple(r) for r in rows))

    @staticmethod
    def full_torus(ambient: int) -> "DiagSubgroup":
        return DiagSubgroup(ambient, ())

    @staticmethod
    def image_of_parameter(ambient: int, weights, modulus: int) -> "DiagSubgroup":
        """Image of t -> (t^w_1, ..., t^w_n) for t in mu_modulus (0: t in K^x)."""
        column = [[int(w)] for w in weights]
        if modulus:
            column.append([int(modulus)])
            kernel = left_kernel_basis(column)
            rows = [row[:ambient] for row in kernel]
        else:
            rows = left_kernel_basis(column)
        return DiagSubgroup(
            ambient, tuple(tuple(r) for r in hermite_normal_form(rows, ambient))
        )

    def group_type(self) -> DiagGroupType:
        return group_type_from_vanishing_lattice([list(r) for r in self.lattice], self.ambient)

    def intersection(self, other: "DiagSubgroup") -> "DiagSubgroup":
        self._check(other)
        # the intersection vanishes on the sum of the two lattices
        rows = hermite_normal_form(list(self.lattice) + list(other.lattice), self.ambient)
        return DiagSubgroup(self.ambient, tuple(tuple(r) for r in rows))

    def generated_with(self, other: "DiagSubgroup") -> "DiagSubgroup":
        self._check(other)
        rows = lattice_intersect(list(self.lattice), list(other.lattice), self.ambient)
        return DiagSubgroup(self.ambient, tuple(tuple(r) for r in rows))

    def _check(self, other: "DiagSubgroup") -> None:
        if self.ambient != other.ambient:
            raise ValueError("incompatible ambient torus dimensions")


@dataclass(frozen=True)
class QuotientResult:
    """Isomorphism type of (H x K)/(H cap K): the subgroup H and K generate.

    reported is read off the intersection of the two character lattices;
    intersection is the type of H cap K, read off their sum.
    """

    reported: DiagGroupType
    intersection: DiagGroupType


def diag_group_quotient(H: DiagSubgroup, K: DiagSubgroup) -> QuotientResult:
    return QuotientResult(
        reported=H.generated_with(K).group_type(),
        intersection=H.intersection(K).group_type(),
    )


# -- monomial equation systems over a torus -----------------------------------


@dataclass
class TorusSolutionSet:
    """Solutions of t^{A_r} = lambda_r over the algebraic torus.

    structure describes the subgroup {t : t^{A_r} = 1 for all r}; the full
    solution set, when consistent, is the coset particular * subgroup.
    """

    exponents: tuple
    targets: tuple
    ncols: int
    consistent: bool
    structure: DiagGroupType
    particular: Optional[tuple]
    coset_note: str
    torsion_generators: tuple
    torus_directions: tuple

    def is_finite(self) -> bool:
        return self.consistent and self.structure.is_finite()

    def enumerate_solutions(self, limit: int = 512) -> Optional[list]:
        """All solutions as scalar tuples, when finite, small, and explicit."""
        if not self.is_finite() or self.particular is None:
            return None
        order = self.structure.order()
        if order is None or order > limit:
            return None
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
    substitution before being returned.
    """
    rows = [list(map(int, r)) for r in A]
    targets = [Fraction(t) for t in targets]
    if len(rows) != len(targets):
        raise ValueError("row count does not match number of targets")
    if any(t == 0 for t in targets):
        raise ValueError("targets must be nonzero")
    if rows:
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged exponent matrix")
    elif ncols is None:
        raise ValueError("ncols required for an empty system")

    U, D, V = smith_normal_form(rows) if rows else ([], [], identity_matrix(ncols))
    ndiag = min(len(rows), ncols)
    diag = [D[i][i] for i in range(ndiag)] if rows else []
    rank = sum(1 for d in diag if d != 0)
    structure = DiagGroupType(
        ncols - rank, tuple(d for d in diag if d > 1)
    )

    torsion_generators = []
    for p in range(rank):
        e = diag[p]
        if e > 1:
            torsion_generators.append(
                tuple(canonical_scalar(zeta(e, V[j][p] % e)) for j in range(ncols))
            )
    torus_directions = tuple(
        tuple(V[j][p] for j in range(ncols)) for p in range(rank, ncols)
    )

    # rows rank.. of U span the left kernel of A: consistent iff lambda^U[p] = 1 there
    mu = [prod((lam**q for q, lam in zip(u, targets)), start=Fraction(1)) for u in U]
    bad = next((p for p in range(rank, len(rows)) if mu[p] != 1), None)
    consistent = bad is None
    note = "" if consistent else f"kernel relation {tuple(U[bad])} forces {mu[bad]} = 1"

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
            t = [
                prod((w ** V[j][p] for p, w in enumerate(roots) if V[j][p]), start=Fraction(1))
                for j in range(ncols)
            ]
            for row, lam in zip(rows, targets):
                if prod((tj**e for tj, e in zip(t, row) if e), start=Fraction(1)) != lam:
                    raise AssertionError("particular solution failed verification")
            particular = tuple(t)
        else:
            note = failed + "; solution set described structurally only"

    return TorusSolutionSet(
        exponents=tuple(tuple(r) for r in rows),
        targets=tuple(targets),
        ncols=ncols,
        consistent=consistent,
        structure=structure,
        particular=particular,
        coset_note=note,
        torsion_generators=tuple(torsion_generators),
        torus_directions=torus_directions,
    )
