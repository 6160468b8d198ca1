"""Exact matrix kernels: Smith form against sympy, solvers, F2 elimination."""
import random
from fractions import Fraction

import pytest
from sympy import Matrix as SymMatrix
from sympy.matrices.normalforms import invariant_factors

from sutured_tqft.errors import InternalConsistencyError
from sutured_tqft.linalg import (
    det_q,
    f2_invert,
    f2_rank,
    f2_solve,
    identity,
    invert_unimodular,
    left_inverse_z,
    mat_mul,
    mat_vec,
    rank_q,
    smith_normal_form,
    solve_z,
    transpose,
)


def f2_left_inverse(rows, ncols):
    """F2 matrix Q (row bitmasks) with Q*J = I, or None when J is not
    injective: the general left inverse, an oracle beside `f2_invert`.

    J is given as row bitmasks.  One Gauss-Jordan pass runs on J beside the
    identity: the row reduced to the unit vector e_t carries, in its high
    bits, the combination of J's rows that gives e_t, which is row t of Q.
    """
    aug = [row | (1 << (ncols + i)) for i, row in enumerate(rows)]
    used = [False] * len(aug)
    order = []
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


def random_matrix(rng, n, m, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


def test_smith_small_known():
    sf = smith_normal_form([[2, 4], [4, 8]])
    assert sf.diag == [2]
    sf = smith_normal_form([[1, 0], [0, 1]])
    assert sf.diag == [1, 1]
    sf = smith_normal_form([[0, 0], [0, 0]])
    assert sf.diag == []


class DenseSmith:
    """U*A*V = D held as dense lists, with its own elementary operations:
    the state of the oracle Smith loops below."""

    def __init__(self, a):
        self.nrows = len(a)
        self.ncols = len(a[0]) if self.nrows else 0
        self.d = [list(row) for row in a]
        self.u = identity(self.nrows)
        self.u_inv = identity(self.nrows)
        self.v = identity(self.ncols)
        self.diag = []

    def row_swap(self, i, j):
        self.d[i], self.d[j] = self.d[j], self.d[i]
        self.u[i], self.u[j] = self.u[j], self.u[i]
        for row in self.u_inv:
            row[i], row[j] = row[j], row[i]

    def row_add(self, i, j, c):
        """row i += c * row j."""
        self.d[i] = [x + c * y for x, y in zip(self.d[i], self.d[j])]
        self.u[i] = [x + c * y for x, y in zip(self.u[i], self.u[j])]
        for row in self.u_inv:
            row[j] -= c * row[i]

    def row_neg(self, i):
        self.d[i] = [-x for x in self.d[i]]
        self.u[i] = [-x for x in self.u[i]]
        for row in self.u_inv:
            row[i] = -row[i]

    def col_swap(self, i, j):
        for row in self.d:
            row[i], row[j] = row[j], row[i]
        for row in self.v:
            row[i], row[j] = row[j], row[i]

    def col_add(self, i, j, c):
        """col i += c * col j."""
        for row in self.d:
            row[i] += c * row[j]
        for row in self.v:
            row[i] += c * row[j]


def dense_smith_normal_form(a):
    """The dense Smith loop, its pivot scan stopping at the first unit: the
    oracle that `smith_normal_form` matches entry by entry."""
    return _dense_smith_loop(a, full_scan=False)


def reference_smith_normal_form(a):
    """The Smith loop with full pivot and divisibility scans at every step:
    the oracle for the unit-pivot shortcuts."""
    return _dense_smith_loop(a, full_scan=True)


def _dense_smith_loop(a, full_scan):
    sf = DenseSmith(a)
    nrows, ncols, d = sf.nrows, sf.ncols, sf.d
    t = 0
    while t < min(nrows, ncols):
        pivot = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if d[i][j] and (best is None or abs(d[i][j]) < best):
                    best, pivot = abs(d[i][j]), (i, j)
                    if best == 1 and not full_scan:
                        break
            if best == 1 and not full_scan:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            sf.row_swap(t, pi)
        if pj != t:
            sf.col_swap(t, pj)
        while True:
            done = True
            for i in range(t + 1, nrows):
                if d[i][t]:
                    sf.row_add(i, t, -(d[i][t] // d[t][t]))
                    if d[i][t]:
                        sf.row_swap(t, i)
                        done = False
            if not done:
                continue
            for j in range(t + 1, ncols):
                if d[t][j]:
                    sf.col_add(j, t, -(d[t][j] // d[t][t]))
                    if d[t][j]:
                        sf.col_swap(t, j)
                        done = False
            if done:
                break
        if d[t][t] < 0:
            sf.row_neg(t)
        p = d[t][t]
        offender = None
        if full_scan or p != 1:
            offender = next((i for i in range(t + 1, nrows)
                             if any(x % p for x in d[i][t + 1:])), None)
        if offender is not None:
            sf.row_add(t, offender, 1)
            continue
        t += 1
    sf.diag = [d[i][i] for i in range(min(nrows, ncols)) if d[i][i]]
    return sf


def densify(sf):
    """D, U and V of a `SmithForm`, all as dense rows."""
    n, m, r = sf.nrows, sf.ncols, sf.rank
    d = [[sf.diag[i] if i == j and i < r else 0 for j in range(m)] for i in range(n)]
    return {"d": d, "u": sf.u, "v": transpose(sf.v), "diag": sf.diag}


def assert_same_smith(a):
    """The Smith form of the rows `a` equals the dense loop and the
    full-scan loop entry by entry."""
    sf = smith_normal_form(a)
    for oracle in (dense_smith_normal_form(a), reference_smith_normal_form(a)):
        want = {f: getattr(oracle, f) for f in ("d", "u", "v", "diag")}
        assert (sf.nrows, sf.ncols) == (oracle.nrows, oracle.ncols)
        assert densify(sf) == want


def test_smith_transforms_and_oracle():
    rng = random.Random(7)
    for _ in range(40):
        n, m = rng.randint(0, 5), rng.randint(0, 5)
        a = random_matrix(rng, n, m)
        sf = smith_normal_form(a)
        dense = densify(sf)
        # U*A*V == D
        if n and m:
            uav = mat_mul(mat_mul(dense["u"], a), dense["v"])
            assert uav == dense["d"]
        assert abs(det_q(dense["u"])) == abs(det_q(dense["v"])) == 1
        for i in range(len(sf.diag) - 1):
            assert sf.diag[i + 1] % sf.diag[i] == 0
        if n and m:
            oracle = [abs(int(d)) for d in invariant_factors(SymMatrix(a)) if d]
            assert sf.diag == oracle


def test_smith_matches_full_scan_reference():
    rng = random.Random(7)
    for _ in range(40):
        assert_same_smith(random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5)))
    rng = random.Random(61)
    for _ in range(150):
        # mostly units, as in face-boundary matrices
        assert_same_smith(random_matrix(rng, rng.randint(1, 9), rng.randint(1, 9), -1, 1))
    for _ in range(40):
        a = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), -1, 1)
        assert_same_smith([[2 * x for x in row] for row in a])  # no unit at all
    assert_same_smith([[2, 1], [1, 1]])
    assert_same_smith([[3, 0, -1], [0, 2, 0]])


def test_smith_matches_dense_loop_on_random_matrices():
    rng = random.Random(1301)
    non_unit = 0
    for trial in range(3200):
        n, m = rng.randint(0, 7), rng.randint(0, 7)
        kind = trial % 4
        if kind == 0:
            a = random_matrix(rng, n, m, -6, 6)
        elif kind == 1:  # all even: the gcd and divisibility paths
            a = [[2 * x for x in row] for row in random_matrix(rng, n, m, -3, 3)]
        elif kind == 2:  # sparse units with a zero row and a zero column
            a = [[rng.choice((-1, 1)) if rng.random() < 0.3 else 0
                  for _ in range(m)] for _ in range(n)]
            if n and m:
                a[rng.randrange(n)] = [0] * m
                zc = rng.randrange(m)
                for row in a:
                    row[zc] = 0
        else:  # a few large entries among small ones
            a = [[rng.choice((0, 0, 1, -1, 2, 3, -4, 6, 9, -12))
                  for _ in range(m)] for _ in range(n)]
        assert_same_smith(a)
        non_unit += any(x != 1 for x in smith_normal_form(a).diag)
    assert non_unit > 800


def test_mat_vec_matches_the_dense_product():
    # mat_vec skips the zero entries of v; the dense sum over every column
    # is the oracle, on sparse and dense vectors with negative entries
    rng = random.Random(59)
    for _ in range(300):
        n, m = rng.randint(0, 6), rng.randint(0, 7)
        a = [[rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(m)]
             for _ in range(n)]
        v = [rng.choice((0, 0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(m)]
        assert mat_vec(a, v) == [sum(row[j] * v[j] for j in range(m)) for row in a]
    assert mat_vec([[2, -3]], [0, 0]) == [0]


def test_solve_z_roundtrip():
    rng = random.Random(13)
    for _ in range(40):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, n, m)
        x = [rng.randint(-3, 3) for _ in range(m)]
        b = mat_vec(a, x)
        sol = solve_z(a, b)
        assert sol is not None
        assert mat_vec(a, sol) == b


def test_solve_z_unsolvable():
    assert solve_z([[2]], [1]) is None
    assert solve_z([[1, 1], [1, 1]], [0, 1]) is None


def random_unimodular(rng, n):
    m = identity(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for t in range(n):
            m[i][t] += c * m[j][t]
    return m


def reference_invert_unimodular(c):
    """The determinant check plus one solve per column: the oracle for
    the one-Smith-form inverse."""
    n = len(c)
    assert abs(det_q(c)) == 1
    cols = [solve_z(c, [1 if i == j else 0 for i in range(n)]) for j in range(n)]
    return [list(row) for row in zip(*cols)] if n else []


def test_invert_unimodular():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(1, 5)
        u = random_unimodular(rng, n)
        assert abs(det_q(u)) == 1
        assert mat_mul(u, invert_unimodular(u)) == identity(n)


def test_invert_unimodular_matches_column_solves():
    rng = random.Random(2024)
    for n in list(range(0, 9)) + [12, 16, 20, 24]:
        u = random_unimodular(rng, n)
        # permuted rows, some negated, so the pivots move around
        perm = list(range(n))
        rng.shuffle(perm)
        u = [[-x for x in u[p]] if rng.random() < 0.3 else u[p] for p in perm]
        assert invert_unimodular(u) == reference_invert_unimodular(u)


@pytest.mark.parametrize("c", [
    [[2]],
    [[1, 1], [1, 1]],
    [[2, 1], [0, 1]],
    [[1, 2], [3, 4]],
    [[0, 0], [0, 0]],
    [[1, 0, 0], [0, 1, 0]],
    [[1, 0], [0, 1], [0, 0]],
    [[1, 0], [0]],
])
def test_invert_unimodular_rejects_other_matrices(c):
    with pytest.raises(InternalConsistencyError, match="not unimodular"):
        invert_unimodular(c)


def test_left_inverse():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        k = rng.randint(0, n)
        u = random_unimodular(rng, n)
        j = [row[:k] for row in u]  # first k columns: a direct summand
        q = left_inverse_z(j)
        assert q is not None
        assert mat_mul(q, j) == identity(k)
    # injective, but the image has index 2, so it is not a direct summand
    assert left_inverse_z([[2], [0]]) is None


def f2_mat_mul(a_rows, b_rows):
    """Product of F2 matrices given as row bitmasks."""
    out = []
    for row in a_rows:
        acc = 0
        for t, b in enumerate(b_rows):
            if (row >> t) & 1:
                acc ^= b
        out.append(acc)
    return out


def test_f2_left_inverse():
    rng = random.Random(41)
    count = 0
    while count < 20:
        n = rng.randint(1, 7)
        rows = [rng.getrandbits(n) for _ in range(n)]
        if f2_invert(rows, n) is None:
            continue
        count += 1
        k = rng.randint(0, n)
        j = [row & ((1 << k) - 1) for row in rows]  # first k columns
        q = f2_left_inverse(j, k)
        assert q is not None and len(q) == k
        assert f2_mat_mul(q, j) == [1 << i for i in range(k)]
    # two equal columns: not injective
    assert f2_left_inverse([0b11, 0b00, 0b11], 2) is None


def reference_det_q(a):
    """Fraction-exact Gaussian elimination: the oracle for the Bareiss
    determinant."""
    n = len(a)
    rows = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        prow = [x * inv for x in rows[col]]
        for r in range(col + 1, n):
            if rows[r][col]:
                c = rows[r][col]
                rows[r] = [x - c * y for x, y in zip(rows[r], prow)]
    return det


def test_det_q_matches_fraction_elimination():
    rng = random.Random(87)
    singular = 0
    for trial in range(400):
        n = trial % 9
        a = random_matrix(rng, n, n, -3, 3)
        if n >= 2 and trial % 3 == 0:
            i, j = rng.sample(range(n), 2)
            a[i] = list(a[j])  # a repeated row
        if n >= 1 and trial % 7 == 0:
            a[rng.randrange(n)] = [0] * n
        d = det_q(a)
        assert type(d) is int
        assert d == reference_det_q(a)
        singular += d == 0
    assert 100 < singular < 400
    assert det_q([]) == 1
    assert det_q([[0, 1], [1, 0]]) == -1
    assert det_q([[2, 1, 0], [-1, 3, 1], [0, 1, 1]]) == 5


def test_rank_q():
    assert rank_q([[1, 2], [2, 4]]) == 1
    assert rank_q([[1, 0], [0, 1]]) == 2
    assert rank_q([[0, 0], [0, 0]]) == 0
    rng = random.Random(3)
    for _ in range(20):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, n, m)
        assert rank_q(a) == SymMatrix(a).rank()


def brute_f2_rank(rows):
    seen = {0}
    for row in rows:
        seen |= {row ^ s for s in seen}
    return len(seen).bit_length() - 1


def sorted_basis_f2_rank(rows):
    """Reduce each row by every kept row, largest first: the oracle for the
    top-bit-indexed `f2_rank` on matrices too big for the brute force."""
    basis = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    return len(basis)


def test_f2_rank_matches_sorted_basis_oracle():
    rng = random.Random(1210)
    for trial in range(300):
        n, width = rng.randint(0, 60), rng.randint(1, 90)
        density = rng.choice((0.02, 0.1, 0.5))
        rows = [sum(1 << j for j in range(width) if rng.random() < density)
                for _ in range(n)]
        if n >= 2 and trial % 3 == 0:
            rows.append(rows[0] ^ rows[1])  # a dependent row
        assert f2_rank(rows) == sorted_basis_f2_rank(rows)


def test_f2_rank_against_bruteforce():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(0, 8)
        width = rng.randint(1, 10)
        rows = [rng.getrandbits(width) for _ in range(n)]
        assert f2_rank(rows) == brute_f2_rank(rows)


def test_f2_solve():
    rng = random.Random(23)
    for _ in range(40):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        rows = [rng.getrandbits(m) for _ in range(n)]
        x = [rng.getrandbits(1) for _ in range(m)]
        b = [sum(((row >> j) & 1) * x[j] for j in range(m)) % 2 for row in rows]
        sol = f2_solve(rows, b, m)
        assert sol is not None
        for row, bit in zip(rows, b):
            assert sum(((row >> j) & 1) * sol[j] for j in range(m)) % 2 == bit
    assert f2_solve([0b1, 0b1], [0, 1], 1) is None


def test_f2_invert():
    rng = random.Random(31)
    count = 0
    while count < 20:
        n = rng.randint(1, 7)
        rows = [rng.getrandbits(n) for _ in range(n)]
        inv = f2_invert(rows, n)
        if inv is None:
            assert f2_rank(rows) < n
            continue
        count += 1
        # check product = identity
        for i in range(n):
            for j in range(n):
                acc = 0
                for t in range(n):
                    acc ^= ((rows[i] >> t) & 1) & ((inv[t] >> j) & 1)
                assert acc == (1 if i == j else 0)


def picked_rows_f2_left_inverse(rows, ncols):
    """The first `ncols` independent rows of J, inverted as a square block
    and scattered back, zero on the other rows: the oracle for the one-pass
    Gauss-Jordan left inverse."""
    picked = []
    for i, row in enumerate(rows):
        if len(picked) < ncols and f2_rank([rows[p] for p in picked] + [row]) > len(picked):
            picked.append(i)
    inv = f2_invert([rows[i] for i in picked], ncols) if len(picked) == ncols else None
    if inv is None:
        return None
    return [sum(((r >> t) & 1) << picked[t] for t in range(ncols)) for r in inv]


def test_f2_left_inverse_matches_picked_rows_oracle():
    rng = random.Random(1207)
    injective = 0
    for trial in range(600):
        ncols = rng.randint(0, 12)
        nrows = rng.randint(0, 16)
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        if trial % 4 == 0 and nrows >= ncols:
            # an injective J: an invertible block below some random rows
            block = random_unimodular(rng, ncols)
            rows = rows[:nrows - ncols] + [
                sum((x & 1) << c for c, x in enumerate(row)) for row in block]
            rng.shuffle(rows)
        got, want = f2_left_inverse(rows, ncols), picked_rows_f2_left_inverse(rows, ncols)
        assert (got is None) == (want is None)
        if got is None:
            continue
        injective += 1
        assert f2_mat_mul(got, rows) == [1 << i for i in range(ncols)]
        if nrows == ncols:
            assert got == want
            assert f2_invert(rows, ncols) == got
    assert 150 < injective < 600


def smith_transpose_left_inverse_z(j):
    """V * D^T * U from the dense Smith loop: the oracle for V * U[:ncols]."""
    sf = dense_smith_normal_form(j)
    if len(sf.diag) != sf.ncols or any(di != 1 for di in sf.diag):
        return None
    dt = [[0] * sf.nrows for _ in range(sf.ncols)]
    for i in range(len(sf.diag)):
        dt[i][i] = 1
    return mat_mul(mat_mul(sf.v, dt), sf.u)


def test_left_inverse_z_matches_smith_transpose_oracle():
    rng = random.Random(1208)
    summands = 0
    for trial in range(300):
        n = rng.randint(0, 8)
        k = rng.randint(0, n)
        if trial % 3:
            u = random_unimodular(rng, n)
            j = [row[:k] for row in u]  # a direct summand
        else:
            j = random_matrix(rng, n, k, -2, 2)
        got = left_inverse_z(j)
        assert got == smith_transpose_left_inverse_z(j)
        if got is not None:
            summands += 1
            assert mat_mul(got, j) == identity(k)
    assert 150 < summands < 300
