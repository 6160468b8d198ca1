"""Exact linear algebra over Z, Q and F2.

Matrices over Z/Q are lists of rows of Python ints (or Fractions); F2
matrices are lists of row bitmasks.  Everything here is deterministic:
pivots are chosen lowest-index-first (breaking ties in favour of small
absolute value where that speeds up Smith reduction).
"""
from __future__ import annotations

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
    "f2_left_inverse",
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
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


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


class SmithForm:
    """Decomposition U*A*V = D with U, V unimodular and D diagonal.

    ``diag`` holds the nonzero invariant factors d_1 | d_2 | ... ; ``rank`` is
    their number.  ``u``, ``u_inv`` and ``v`` are the three transforms, all
    integral; ``d`` starts as a copy of A and is reduced in place.
    """

    def __init__(self, a: Sequence[Sequence[int]]):
        self.nrows = len(a)
        self.ncols = len(a[0]) if self.nrows else 0
        self.d = [list(row) for row in a]
        self.u = identity(self.nrows)
        self.u_inv = identity(self.nrows)
        self.v = identity(self.ncols)
        self.diag: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.diag)

    # -- elementary operations keeping U*A*V = D in sync ------------------
    def _row_swap(self, i: int, j: int) -> None:
        self.d[i], self.d[j] = self.d[j], self.d[i]
        self.u[i], self.u[j] = self.u[j], self.u[i]
        for row in self.u_inv:
            row[i], row[j] = row[j], row[i]

    def _row_add(self, i: int, j: int, c: int) -> None:
        """row i += c * row j."""
        self.d[i] = [x + c * y for x, y in zip(self.d[i], self.d[j])]
        self.u[i] = [x + c * y for x, y in zip(self.u[i], self.u[j])]
        for row in self.u_inv:
            row[j] -= c * row[i]

    def _row_neg(self, i: int) -> None:
        self.d[i] = [-x for x in self.d[i]]
        self.u[i] = [-x for x in self.u[i]]
        for row in self.u_inv:
            row[i] = -row[i]

    def _col_swap(self, i: int, j: int) -> None:
        for row in self.d:
            row[i], row[j] = row[j], row[i]
        for row in self.v:
            row[i], row[j] = row[j], row[i]

    def _col_add(self, i: int, j: int, c: int) -> None:
        """col i += c * col j."""
        for row in self.d:
            row[i] += c * row[j]
        for row in self.v:
            row[i] += c * row[j]


def smith_normal_form(a: Sequence[Sequence[int]]) -> SmithForm:
    """Smith normal form with the transforms U, U^-1 and V."""
    sf = SmithForm(a)
    nrows, ncols, d = sf.nrows, sf.ncols, sf.d
    t = 0
    while True:
        # deterministic pivot: smallest |value|, lowest (row, col) tiebreak;
        # nothing beats a unit, so the scan stops at the first one
        pivot = None
        best = None
        for i in range(t, nrows):
            for j, x in enumerate(d[i][t:], t):
                if x and (best is None or abs(x) < best):
                    best, pivot = abs(x), (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            sf._row_swap(t, pi)
        if pj != t:
            sf._col_swap(t, pj)
        while True:
            # clear column t
            done = True
            for i in range(t + 1, nrows):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    sf._row_add(i, t, -q)
                    if d[i][t]:
                        sf._row_swap(t, i)
                        done = False
            if not done:
                continue
            # clear row t
            for j in range(t + 1, ncols):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    sf._col_add(j, t, -q)
                    if d[t][j]:
                        sf._col_swap(t, j)
                        done = False
            if done:
                break
        if d[t][t] < 0:
            sf._row_neg(t)
        # enforce divisibility d_t | everything below-right; a unit divides all
        p = d[t][t]
        offender = None if p == 1 else next(
            (i for i in range(t + 1, nrows)
             if any(x % p for x in d[i][t + 1:])), None)
        if offender is not None:
            sf._row_add(t, offender, 1)
            continue
        t += 1
        if t >= min(nrows, ncols):
            break
    sf.diag = [d[i][i] for i in range(min(nrows, ncols)) if d[i][i]]
    return sf


def solve_z(a: Sequence[Sequence[int]], b: Sequence[int]) -> list[int] | None:
    """An integer solution x of a*x = b, or None when none exists."""
    sf = smith_normal_form(a)
    ub = mat_vec(sf.u, b)
    y = [0] * sf.ncols
    for i, di in enumerate(sf.diag):
        if ub[i] % di:
            return None
        y[i] = ub[i] // di
    if any(ub[i] for i in range(sf.rank, sf.nrows)):
        return None
    return mat_vec(sf.v, y)


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
    return mat_mul(sf.v, sf.u[:sf.ncols])


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
    """Inverse of an n x n F2 matrix as row bitmasks, or None if singular."""
    return f2_left_inverse(a_rows[:n], n)


def f2_left_inverse(rows: Sequence[int], ncols: int) -> list[int] | None:
    """F2 matrix Q (row bitmasks) with Q*J = I, or None when J is not injective.

    J is given as row bitmasks.  One Gauss-Jordan pass runs on J beside the
    identity: the row reduced to the unit vector e_t carries, in its high
    bits, the combination of J's rows that gives e_t, which is row t of Q.
    """
    aug = [row | (1 << (ncols + i)) for i, row in enumerate(rows)]
    used = [False] * len(aug)
    order: list[int] = []
    for col in range(ncols):
        piv = next((r for r, row in enumerate(aug)
                    if not used[r] and (row >> col) & 1), None)
        if piv is None:
            return None
        used[piv] = True
        order.append(piv)
        prow = aug[piv]
        for r, row in enumerate(aug):
            if r != piv and (row >> col) & 1:
                aug[r] = row ^ prow
    return [aug[r] >> ncols for r in order]
