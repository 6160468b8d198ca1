"""Exact linear algebra over Z, Q and F2.

Matrices over Z/Q are lists of rows of Python ints (or Fractions); F2
matrices are lists of row bitmasks.  The Smith normal form works sparse
inside.  Everything here is deterministic: pivots are chosen
lowest-index-first, except that the Smith form takes the smallest
absolute value first (lowest row, then lowest column position, on ties).
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


@dataclass(frozen=True)
class SmithForm:
    """Decomposition U*A*V = D with U, V unimodular and D diagonal, held sparse.

    ``u`` is one {column: value} dict per row of U; ``u_inv`` and ``v``
    are one {row: value} dict per column of U^-1 and V; absent entries
    are zero.  D is zero except for its leading diagonal, ``diag``: the
    nonzero invariant factors d_1 | d_2 | ... ; ``rank`` is their number.
    """
    nrows: int
    ncols: int
    diag: list[int]
    u: list[dict[int, int]]
    u_inv: list[dict[int, int]]
    v: list[dict[int, int]]

    @property
    def rank(self) -> int:
        return len(self.diag)


def _axpy(dst: dict[int, int], src: dict[int, int], c: int) -> None:
    """dst += c * src for sparse vectors, dropping the zeros it makes."""
    for k, x in src.items():
        y = dst.get(k, 0) + c * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def smith_normal_form(a: Sequence[Sequence[int]]) -> SmithForm:
    """Smith normal form of the dense rows ``a``, with the transforms U,
    U^-1 and V.

    D and U are reduced as sparse rows and U^-1 and V as sparse columns,
    so an elementary operation costs the nonzeros it touches.  D's columns
    keep their labels and only their order is permuted, so a column swap
    is free.  Once column t is cleared, a column operation changes row t
    of D alone; only a remainder left by a non-unit pivot swaps a full
    column into place t and makes column operations walk the rows.
    Finding the rows to clear in column t costs one membership test per
    row below t.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    d = [{j: x for j, x in enumerate(row) if x} for row in a]
    u = [{i: 1} for i in range(nrows)]
    u_inv = [{i: 1} for i in range(nrows)]
    v = [{j: 1} for j in range(ncols)]  # by column label, like D's keys
    lab = list(range(ncols))  # lab[position] = column label
    pos = list(range(ncols))  # its inverse
    axpy = _axpy
    # The elementary operations are written out in place, each keeping
    # U*A*V = D: a row swap swaps rows of D and U and columns of U^-1;
    # row i += c * row t adds to row i of D and U and subtracts c times
    # column i of U^-1 from its column t; a column swap swaps two labels.

    t = 0
    while t < min(nrows, ncols):
        # deterministic pivot: smallest |value|, lowest (row, position)
        # tiebreak; nothing beats a unit, so the scan stops at the first
        # one.  Rows from t on are zero before position t.
        best = 0
        for i in range(t, nrows):
            row = d[i]
            if row:
                ax = min(map(abs, row.values()))
                if not best or ax < best:
                    best, pi = ax, i
                    if ax == 1:
                        break
        if not best:
            break
        if pi != t:
            d[t], d[pi] = d[pi], d[t]
            u[t], u[pi] = u[pi], u[t]
            u_inv[t], u_inv[pi] = u_inv[pi], u_inv[t]
        dt = d[t]
        pj = pos[next(iter(dt))] if len(dt) == 1 else min(
            pos[k] for k, x in dt.items() if x == best or x == -best)
        if pj != t:
            ct, cj = lab[t], lab[pj]
            lab[t], lab[pj], pos[cj], pos[ct] = cj, ct, t, pj
        while True:
            # clear column t; clearing one row changes only it and row t,
            # so the rows below it can be listed up front
            done = True
            ct = lab[t]
            for i in [r for r in range(t + 1, nrows) if ct in d[r]]:
                di, dt = d[i], d[t]
                c = -(di[ct] // dt[ct])
                if c:
                    axpy(di, dt, c)
                    axpy(u[i], u[t], c)
                    axpy(u_inv[t], u_inv[i], -c)
                if ct in di:  # a remainder: it becomes the pivot row
                    d[t], d[i] = di, dt
                    u[t], u[i] = u[i], u[t]
                    u_inv[t], u_inv[i] = u_inv[i], u_inv[t]
                    done = False
            if not done:
                continue
            # clear row t, by the same argument on positions.  Column t is
            # zero off row t, so a column operation changes row t alone,
            # until a remainder swaps a full column into place t.
            clean, dt = True, d[t]
            for j in sorted(pos[k] for k in dt if k != ct) if len(dt) > 1 else ():
                ci, ct = lab[j], lab[t]
                c = -(dt[ci] // dt[ct])
                if c:
                    for row in [dt] if clean else d[t:]:
                        if ct in row:
                            y = row.get(ci, 0) + c * row[ct]
                            if y:
                                row[ci] = y
                            else:
                                del row[ci]
                    axpy(v[ci], v[ct], c)
                if ci in dt:
                    lab[t], lab[j], pos[ci], pos[ct] = ci, ct, t, j
                    clean = done = False
            if done:
                break
        p = dt[lab[t]]
        if p < 0:
            for m in (dt, u[t], u_inv[t]):
                for k in m:
                    m[k] = -m[k]
            p = -p
        # enforce divisibility d_t | everything below-right; a unit divides all
        offender = None if p == 1 else next(
            (i for i in range(t + 1, nrows)
             if any(x % p for x in d[i].values())), None)
        if offender is not None:
            axpy(dt, d[offender], 1)
            axpy(u[t], u[offender], 1)
            axpy(u_inv[offender], u_inv[t], -1)
            continue
        t += 1
    diag = [d[i][lab[i]] for i in range(t)]
    return SmithForm(nrows, ncols, diag, u, u_inv, [v[c] for c in lab])


def solve_z(a: Sequence[Sequence[int]], b: Sequence[int]) -> list[int] | None:
    """An integer solution x of a*x = b, or None when none exists."""
    sf = smith_normal_form(a)
    ub = [sum(x * b[j] for j, x in row.items()) for row in sf.u]
    if any(ub[sf.rank:]):
        return None
    x = [0] * sf.ncols
    for t, dt in enumerate(sf.diag):
        if ub[t] % dt:
            return None
        for r, c in sf.v[t].items():
            x[r] += c * (ub[t] // dt)
    return x


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
    q = [[0] * sf.nrows for _ in range(sf.ncols)]
    for t in range(sf.ncols):
        for r, x in sf.v[t].items():
            row = q[r]
            for c, y in sf.u[t].items():
                row[c] += x * y
    return q


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
