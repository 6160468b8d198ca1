"""Exact matrix kernels: Smith form against sympy, solvers, F2 elimination."""
import random

import pytest
from sympy import Matrix as SymMatrix
from sympy.matrices.normalforms import invariant_factors

from sutured_tqft.linalg import (
    det_q,
    f2_invert,
    f2_left_inverse,
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
)


def random_matrix(rng, n, m, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


def test_smith_small_known():
    sf = smith_normal_form([[2, 4], [4, 8]])
    assert sf.diag == [2]
    sf = smith_normal_form([[1, 0], [0, 1]])
    assert sf.diag == [1, 1]
    sf = smith_normal_form([[0, 0], [0, 0]])
    assert sf.diag == []


def test_smith_transforms_and_oracle():
    rng = random.Random(7)
    for _ in range(40):
        n, m = rng.randint(0, 5), rng.randint(0, 5)
        a = random_matrix(rng, n, m)
        sf = smith_normal_form(a)
        # U*A*V == D
        if n and m:
            uav = mat_mul(mat_mul(sf.u, a), sf.v)
            assert uav == sf.d
        assert mat_mul(sf.u, sf.u_inv) == identity(sf.nrows)
        assert mat_mul(sf.v, sf.v_inv) == identity(sf.ncols)
        for i in range(len(sf.diag) - 1):
            assert sf.diag[i + 1] % sf.diag[i] == 0
        if n and m:
            oracle = [abs(int(d)) for d in invariant_factors(SymMatrix(a)) if d]
            assert sf.diag == oracle


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


def test_invert_unimodular():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(1, 5)
        u = random_unimodular(rng, n)
        assert abs(det_q(u)) == 1
        assert mat_mul(u, invert_unimodular(u)) == identity(n)


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
