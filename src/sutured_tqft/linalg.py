"""Exact linear algebra over Z, Q and F2.

Matrices over Z/Q are lists of rows of Python ints (or Fractions); F2
matrices are lists of row bitmasks.  Everything here is deterministic:
pivots are chosen lowest-index-first, except that the Smith form takes
the smallest absolute value first (first in row-major order, on ties).
Inverses take one elimination per ring: over Z one Smith form gives the
left inverse V*U[:k], and unimodular inversion is its square case; over
F2 one Gauss-Jordan pass runs beside the identity.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InternalConsistencyError

__all__ = [
    "identity",
    "mat_mul",
    "mat_vec",
    "transpose",
    "rank_q",
    "det_q",
    "smith_normal_form",
    "solve_z",
    "invert_unimodular",
    "left_inverse_z",
    "f2_rank",
    "f2_solve",
    "f2_invert",
    "f2_row_space",
]

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = 1
    return out


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    n, k = len(a), len(b)
    m = len(b[0]) if k else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    oi[j] += c * bt[j]
    return out


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    """a*v, reading only the nonzero entries of v."""
    nonzero = [(j, x) for j, x in enumerate(v) if x]
    return [sum(row[j] * x for j, x in nonzero) for row in a]


def transpose(a: Sequence[Sequence[int]]) -> Matrix:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def rank_q(a: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals by fraction-exact Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in a]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        inv = 1 / prow[col]
        rows[rank] = prow = [x * inv for x in prow]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [x - c * y for x, y in zip(rows[r], prow)]
        rank += 1
    return rank


def det_q(a: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, by fraction-free (Bareiss)
    elimination: each entry update divides exactly by the previous pivot."""
    n = len(a)
    rows = [list(row) for row in a]
    sign, prev = 1, 1
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        prow = rows[col]
        p = prow[col]
        for row in rows[col + 1:]:
            c = row[col]
            for j in range(col + 1, n):
                row[j] = (row[j] * p - c * prow[j]) // prev
        prev = p
    return sign * prev


@dataclass(frozen=True)
class SmithForm:
    """Decomposition U*A*V = D with U, V unimodular and D diagonal.

    ``u`` holds the rows of U and ``v`` the columns of V.  D is zero
    except for its leading diagonal, ``diag``: the nonzero invariant
    factors d_1 | d_2 | ... ; ``rank`` is their number.
    """
    nrows: int
    ncols: int
    diag: list[int]
    u: Matrix
    v: Matrix

    @property
    def rank(self) -> int:
        return len(self.diag)


def smith_normal_form(a: Sequence[Sequence[int]]) -> SmithForm:
    """Smith normal form of the rows ``a``, with the transforms U and V.

    Each row of ``du`` is a row of D beside the same row of U, so one list
    operation is a row operation on both; V is held by columns, so a
    column operation on D is a row operation on ``v``.  Every operation
    keeps U*A*V = D.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    du = [list(row) + e for row, e in zip(a, identity(nrows))]
    v = identity(ncols)

    def col_swap(i: int, j: int) -> None:
        for row in du:
            row[i], row[j] = row[j], row[i]
        v[i], v[j] = v[j], v[i]

    t = 0
    while t < min(nrows, ncols):
        # deterministic pivot: least |entry|, first in row-major order;
        # nothing beats a unit, so the scan stops at the first one
        best = 0
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = abs(du[i][j])
                if x and (not best or x < best):
                    best, pi, pj = x, i, j
                    if x == 1:
                        break
            if best == 1:
                break
        if not best:
            break
        du[t], du[pi] = du[pi], du[t]
        col_swap(t, pj)
        while True:
            # clear column t, then row t; a remainder becomes the pivot
            done = True
            for i in range(t + 1, nrows):
                if du[i][t]:
                    c = -(du[i][t] // du[t][t])
                    du[i] = [x + c * y for x, y in zip(du[i], du[t])]
                    if du[i][t]:
                        du[t], du[i] = du[i], du[t]
                        done = False
            if not done:
                continue
            for j in range(t + 1, ncols):
                if du[t][j]:
                    c = -(du[t][j] // du[t][t])
                    for row in du:
                        row[j] += c * row[t]
                    v[j] = [x + c * y for x, y in zip(v[j], v[t])]
                    if du[t][j]:
                        col_swap(t, j)
                        done = False
            if done:
                break
        if du[t][t] < 0:
            du[t] = [-x for x in du[t]]
        # enforce divisibility d_t | everything below-right; a unit divides all
        p = du[t][t]
        offender = None if p == 1 else next(
            (i for i in range(t + 1, nrows) if any(x % p for x in du[i][t + 1:ncols])),
            None)
        if offender is not None:
            du[t] = [x + y for x, y in zip(du[t], du[offender])]
            continue
        t += 1
    return SmithForm(nrows, ncols, [du[i][i] for i in range(t)],
                     [row[ncols:] for row in du], v)


def solve_z(a: Sequence[Sequence[int]], b: Sequence[int]) -> list[int] | None:
    """An integer solution x of a*x = b, or None when none exists."""
    sf = smith_normal_form(a)
    ub = mat_vec(sf.u, b)
    if any(ub[sf.rank:]) or any(x % dt for x, dt in zip(ub, sf.diag)):
        return None
    # x = V * D^+ * U * b, and V is held by columns
    return mat_vec(transpose(sf.v), [x // dt for x, dt in zip(ub, sf.diag)])


def invert_unimodular(c: Sequence[Sequence[int]]) -> Matrix:
    """Inverse of a square integer matrix with determinant ±1: the square
    case of `left_inverse_z`, whose image is a direct summand exactly when
    the matrix is unimodular."""
    n = len(c)
    if any(len(row) != n for row in c):
        raise InternalConsistencyError("matrix is not unimodular (not square)")
    inv = left_inverse_z(c)
    if inv is None:
        raise InternalConsistencyError(f"matrix is not unimodular (size {n})")
    if mat_mul(c, inv) != identity(n):
        raise InternalConsistencyError("unimodular inverse failed its check")
    return inv


def left_inverse_z(j: Sequence[Sequence[int]]) -> Matrix | None:
    """Integer Q with Q*J = I, when im(J) is a direct summand of full column rank."""
    sf = smith_normal_form(j)
    if sf.rank != sf.ncols or any(di != 1 for di in sf.diag):
        return None
    # U*J*V = [I; 0], so V times the first ncols rows of U is a left inverse.
    return mat_mul(transpose(sf.v), sf.u[:sf.ncols])


# -- F2: rows as bitmasks -------------------------------------------------

def f2_rank(rows: Sequence[int]) -> int:
    """Rank of an F2 matrix given as row bitmasks.

    Each kept row is filed under its top bit; a new row is reduced only by
    the kept rows whose top bit it carries, so sparse rows cost little.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def f2_row_space(rows: Sequence[int]) -> list[int]:
    """Reduced row-echelon basis (as bitmasks) of the row space."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    for i in range(len(basis)):
        hi = 1 << (basis[i].bit_length() - 1)
        for k in range(len(basis)):
            if k != i and basis[k] & hi:
                basis[k] ^= basis[i]
    basis.sort(reverse=True)
    return basis


def f2_solve(a_rows: Sequence[int], b: Sequence[int], ncols: int) -> list[int] | None:
    """Solve A*x = b over F2; A given as row bitmasks (bit j = column j)."""
    colmask = (1 << ncols) - 1
    pivots: list[tuple[int, int]] = []  # (pivot column, reduced augmented row)
    for arow, bit in zip(a_rows, b):
        row = arow | (bit << ncols)
        for pc, brow in pivots:
            if (row >> pc) & 1:
                row ^= brow
        low = row & colmask
        if not low:
            if row:
                return None  # inconsistent: 0 = 1
            continue
        pivots.append(((low & -low).bit_length() - 1, row))
    x = [0] * ncols
    for pc, row in sorted(pivots, reverse=True):
        acc = (row >> ncols) & 1
        cols = (row & colmask) & ~(1 << pc)
        while cols:
            lowb = cols & -cols
            acc ^= x[lowb.bit_length() - 1]
            cols ^= lowb
        x[pc] = acc
    return x


def f2_invert(a_rows: Sequence[int], n: int) -> list[int] | None:
    """Inverse of an n x n F2 matrix as row bitmasks, or None if singular.

    One Gauss-Jordan pass runs on A beside the identity: the row reduced
    to the unit vector e_t carries, in its high bits, row t of A^-1.
    """
    aug = [row | (1 << (n + i)) for i, row in enumerate(a_rows[:n])]
    for col in range(n):
        piv = next((r for r in range(col, len(aug)) if (aug[r] >> col) & 1), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        for r, row in enumerate(aug):
            if r != col and (row >> col) & 1:
                aug[r] = row ^ aug[col]
    return [row >> n for row in aug]
