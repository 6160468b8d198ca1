"""Exterior algebra kernel: laws, pairing oracle, interior-product adjunction,
and the per-pair loops the kernel replaced as differential oracles."""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import sutured_tqft.exterior as exterior
from sutured_tqft.errors import ValidationError
from sutured_tqft.exterior import (
    RING_F2,
    RING_Z,
    Multivector,
    equal_up_to_sign,
    indices_of,
    induced_map,
    interior,
    pair,
    _odd_below,
)
from sutured_tqft.linalg import f2_rank, mat_mul


def grade_project(x, d):
    """The degree-d part of a multivector."""
    return Multivector(x.rank, {m: c for m, c in x.terms.items() if m.bit_count() == d},
                       x.ring, x.dual)


def mask_of(indices):
    mask = 0
    for i in indices:
        bit = 1 << i
        if mask & bit:
            raise ValueError(f"repeated index {i}")
        mask |= bit
    return mask


def mv(rank, entries, ring=RING_Z, dual=False):
    """A multivector from (index list, coefficient) entries."""
    terms = {}
    for indices, c in entries:
        mask = mask_of(indices)
        terms[mask] = terms.get(mask, 0) + c
    return Multivector(rank, terms, ring, dual)


def merge_sign(a, b):
    """Sign of merging index sets a before b by the kernel's rule: the
    parity of a & P(b)."""
    return -1 if (a & _odd_below(b)).bit_count() & 1 else 1


rings = st.sampled_from([RING_Z, RING_F2])


@st.composite
def multivectors(draw, rank=None, ring=None, dual=False, max_terms=4):
    r = draw(st.integers(0, 5)) if rank is None else rank
    ring = draw(rings) if ring is None else ring
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        mask = draw(st.integers(0, (1 << r) - 1))
        terms[mask] = draw(st.integers(-3, 3))
    return Multivector(r, terms, ring, dual)


def test_zero_and_unit():
    z = Multivector.zero(3)
    u = Multivector.unit(3)
    assert z.is_zero() and not u.is_zero()
    assert u.wedge(u) == u
    assert (z + u) == u
    assert u.text() == "1"
    assert z.text() == "0"


def test_wedge_basis_sign():
    e0 = Multivector.basis_vector(3, 0)
    e1 = Multivector.basis_vector(3, 1)
    e2 = Multivector.basis_vector(3, 2)
    assert e0.wedge(e1).terms == {0b011: 1}
    assert e1.wedge(e0).terms == {0b011: -1}
    assert e2.wedge(e0).wedge(e1).terms == {0b111: 1}  # two transpositions
    assert e0.wedge(e0).is_zero()


def test_text_form():
    x = mv(4, [((0, 2), 1), ((1,), -2), ((), 3)])
    assert x.text() == "3 + -2·[1] + [0,2]"
    assert mv(2, [((0,), -1)]).text() == "-[0]"


def test_rank_bound_enforced():
    with pytest.raises(ValueError):
        Multivector.zero(-1)
    # no upper cap: coefficients are keyed by unbounded int bitmasks
    wide = Multivector.basis_vector(80, 79).wedge(Multivector.basis_vector(80, 0))
    assert wide.terms == {(1 << 79) | 1: -1}


@settings(max_examples=200)
@given(multivectors(rank=4, ring=RING_Z), multivectors(rank=4, ring=RING_Z),
       multivectors(rank=4, ring=RING_Z))
def test_wedge_associative_bilinear(a, b, c):
    assert a.wedge(b.wedge(c)) == a.wedge(b).wedge(c)
    assert (a + b).wedge(c) == a.wedge(c) + b.wedge(c)


@settings(max_examples=200)
@given(st.data())
def test_graded_anticommutativity(data):
    ring = data.draw(rings)
    a = data.draw(multivectors(rank=5, ring=ring))
    b = data.draw(multivectors(rank=5, ring=ring))
    p = data.draw(st.integers(0, 5))
    q = data.draw(st.integers(0, 5))
    a, b = grade_project(a, p), grade_project(b, q)
    lhs = a.wedge(b)
    rhs = b.wedge(a)
    if p * q % 2:
        rhs = -rhs
    assert lhs == rhs


def det_by_permutation_expansion(mat):
    n = len(mat)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= mat[i][perm[i]]
        total += sign * prod
    return total


@settings(max_examples=100)
@given(st.integers(1, 4), st.data())
def test_pairing_is_determinant(k, data):
    """<f1^...^fk | e1^...^ek> = det(f_i(e_j)), the permutation-expansion oracle."""
    rank = 4
    fs = [data.draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank))
          for _ in range(k)]
    es = [data.draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank))
          for _ in range(k)]
    fwedge = Multivector.unit(rank, dual=True)
    for f in fs:
        fwedge = fwedge.wedge(Multivector.vector(rank, f, dual=True))
    ewedge = Multivector.unit(rank)
    for e in es:
        ewedge = ewedge.wedge(Multivector.vector(rank, e))
    gram = [[sum(f[t] * e[t] for t in range(rank)) for e in es] for f in fs]
    assert pair(fwedge, ewedge) == det_by_permutation_expansion(gram)


def test_pairing_matrix_is_identity():
    rank = 6
    for mi in range(1 << rank):
        ci = Multivector(rank, {mi: 1}, dual=True)
        bi = Multivector(rank, {mi: 1})
        assert pair(ci, bi) == 1
    # a handful of off-diagonal entries, including cross-degree ones
    for mi, mj in [(0b1, 0b10), (0b11, 0b101), (0b111, 0b11), (0, 0b1)]:
        assert pair(Multivector(rank, {mi: 1}, dual=True), Multivector(rank, {mj: 1})) == 0


def test_pairing_variance_checked():
    with pytest.raises(ValueError):
        pair(Multivector.unit(2), Multivector.unit(2))


@settings(max_examples=200)
@given(st.data())
def test_interior_adjunction(data):
    """<iota_x y | g> = <y | x ^ g> for random x, g primal and y dual."""
    ring = data.draw(rings)
    x = data.draw(multivectors(rank=4, ring=ring))
    g = data.draw(multivectors(rank=4, ring=ring))
    y = data.draw(multivectors(rank=4, ring=ring, dual=True))
    assert pair(interior(x, y), g) == pair(y, x.wedge(g))


@settings(max_examples=200)
@given(st.data())
def test_interior_adjunction_mirrored(data):
    """Contracting a dual element into a primal one, same adjunction."""
    ring = data.draw(rings)
    f = data.draw(multivectors(rank=4, ring=ring, dual=True))
    g = data.draw(multivectors(rank=4, ring=ring, dual=True))
    y = data.draw(multivectors(rank=4, ring=ring))
    assert pair(interior(f, y), g) == pair(y, f.wedge(g))


def test_interior_worked_example():
    """iota_{c2+c3}(b1^b2^b3) = b1^b2 - b1^b3 (indices 0-based here)."""
    eta = mv(3, [((1,), 1), ((2,), 1)], dual=True)
    x = mv(3, [((0, 1, 2), 1)])
    assert interior(eta, x) == mv(3, [((0, 1), 1), ((0, 2), -1)])


def test_interior_interval_contraction():
    """Contracting a basis wedge on an interval removes it up to sign."""
    y = Multivector(5, {0b11111: 1}, dual=True)
    x = Multivector(5, {0b01100: 1})  # indices 2,3
    out = interior(x, y)
    (m, c), = out.terms.items()
    assert m == 0b10011 and c in (1, -1)


@settings(max_examples=100)
@given(st.data())
def test_induced_map_functorial(data):
    ring = data.draw(rings)
    x = data.draw(multivectors(rank=3, ring=ring))
    a = [[data.draw(st.integers(-2, 2)) for _ in range(3)] for _ in range(3)]
    b = [[data.draw(st.integers(-2, 2)) for _ in range(3)] for _ in range(3)]
    assert induced_map(a, induced_map(b, x)) == induced_map(mat_mul(a, b), x)


def test_induced_map_refuses_a_step_past_the_term_budget(monkeypatch):
    # columns e_i + e_(i+1): the last of the four steps forms 4 * 2
    # products, the most of any
    matrix = [[1 if i in (j, j + 1) else 0 for j in range(4)] for i in range(5)]
    top = Multivector.top(4, RING_Z)
    full = induced_map(matrix, top)
    monkeypatch.setattr(exterior, "TERM_BUDGET", 7)
    with pytest.raises(ValidationError, match="budget"):
        induced_map(matrix, top)
    monkeypatch.setattr(exterior, "TERM_BUDGET", 8)
    assert induced_map(matrix, top) == full


def test_induced_map_is_determinant_on_top():
    a = [[2, 1, 0], [-1, 3, 1], [0, 1, 1]]
    top = Multivector.top(3)
    out = induced_map(a, top)
    assert out.terms == {0b111: det_by_permutation_expansion(a)}


def test_tensor_block_factorization():
    """Wedges supported on disjoint index blocks multiply like a tensor product."""
    x = mv(5, [((0, 1), 2), ((0,), 1)])
    y = mv(5, [((3,), 1), ((3, 4), -1)])
    out = x.wedge(y)
    for (mx, cx) in x.terms.items():
        for (my, cy) in y.terms.items():
            assert out.terms[mx | my] == merge_sign(mx, my) * cx * cy


@pytest.mark.parametrize("rank", [2, 4, 6, 8])
def test_wedge_by_generator_is_acyclic_over_f2(rank):
    """Over F2, e0 ^ - squares to zero and its kernel equals its image."""
    dim = 1 << rank
    e0 = Multivector.basis_vector(rank, 0, RING_F2)
    rows = []
    for m in range(dim):
        x = Multivector(rank, {m: 1}, RING_F2)
        y = e0.wedge(x)
        row = 0
        for mm, c in y.terms.items():
            assert c % 2 == 1
            row |= 1 << mm
        rows.append(row)
        assert e0.wedge(y).is_zero()
    # rank = dim/2 together with W^2 = 0 forces ker W = im W
    assert f2_rank(rows) == dim // 2


def test_grade_project():
    x = mv(4, [((0, 1), 1), ((2,), 5), ((), 7)])
    assert grade_project(x, 1) == mv(4, [((2,), 5)])
    assert grade_project(x, 2) == mv(4, [((0, 1), 1)])
    assert grade_project(x, 3).is_zero()
    assert x.degree() is None
    assert grade_project(x, 0).degree() == 0


def test_equal_up_to_sign():
    x = mv(3, [((0, 1), 1), ((2,), -3)])
    y = mv(3, [((0, 2), 1)])
    assert equal_up_to_sign(x, x) and equal_up_to_sign(x, -x)
    assert not equal_up_to_sign(x, x.scale(2)) and not equal_up_to_sign(x, y)
    # over F2 -xf is xf itself, so only equality can match
    xf = mv(3, [((0, 1), 1), ((2,), 1)], RING_F2)
    yf = mv(3, [((0, 2), 1)], RING_F2)
    assert equal_up_to_sign(xf, xf) and equal_up_to_sign(xf, -xf)
    assert not equal_up_to_sign(xf, yf) and not equal_up_to_sign(xf, xf + yf)
    # another rank, ring or variance is another algebra
    for other in (mv(4, [((0, 1), 1), ((2,), -3)]), xf,
                  mv(3, [((0, 1), 1), ((2,), -3)], dual=True)):
        assert not equal_up_to_sign(x, other) and not equal_up_to_sign(other, x)
        assert not equal_up_to_sign(x, -other)


def test_f2_normalization():
    x = mv(3, [((0,), 2)], ring=RING_F2)
    assert x.is_zero()
    y = mv(3, [((0,), 3)], ring=RING_F2)
    assert y.terms == {1: 1}
    assert (y + y).is_zero()


# -- differential oracles: the per-pair loops the kernel replaced -----------

def reference_merge_sign(a, b):
    """Count, bit by bit of b, the bits of a above it."""
    count = 0
    rest = b
    while rest:
        low = rest & -rest
        count += (a >> low.bit_length()).bit_count()
        rest ^= low
    return -1 if count & 1 else 1


def reference_wedge(x, y):
    terms = {}
    for ma, ca in x.terms.items():
        for mb, cb in y.terms.items():
            if ma & mb:
                continue
            m = ma | mb
            terms[m] = terms.get(m, 0) + reference_merge_sign(ma, mb) * ca * cb
    return Multivector(x.rank, terms, x.ring, x.dual)


def reference_interior(x, y):
    terms = {}
    for mi, cy in y.terms.items():
        for mj, cx in x.terms.items():
            if mj & ~mi:
                continue
            rest = mi & ~mj
            terms[rest] = terms.get(rest, 0) + reference_merge_sign(mj, rest) * cx * cy
    return Multivector(y.rank, terms, y.ring, y.dual)


def reference_induced_map(matrix, x, target_rank=None):
    rows = len(matrix)
    if target_rank is None:
        target_rank = rows
    cols = [Multivector.vector(target_rank,
                               [matrix[i][j] for i in range(rows)] + [0] * (target_rank - rows),
                               x.ring, x.dual)
            for j in range(x.rank)]
    out = Multivector.zero(target_rank, x.ring, x.dual)
    for mask, c in x.terms.items():
        acc = Multivector.unit(target_rank, x.ring, x.dual)
        for j in indices_of(mask):
            acc = reference_wedge(acc, cols[j])
            if acc.is_zero():
                break
        out = out + acc.scale(c)
    return out


def assert_kernel_output(got, want):
    """Equal to the oracle, and unchanged by the public constructor's
    range and ring checks, which the kernel skips."""
    assert got == want
    rewrapped = Multivector(got.rank, dict(got.terms), got.ring, got.dual)
    assert rewrapped == got and rewrapped.terms == got.terms


def test_merge_sign_matches_loop_on_all_disjoint_pairs():
    rank = 10
    full = (1 << rank) - 1
    for a in range(1 << rank):
        free = full & ~a
        b = free
        while True:  # every submask of the complement, 0 included
            assert merge_sign(a, b) == reference_merge_sign(a, b)
            if not b:
                break
            b = (b - 1) & free


coefficients = st.one_of(st.integers(-3, 3), st.integers(-(1 << 40), 1 << 40))


@st.composite
def kernel_inputs(draw, rank, ring, dual, max_terms=10, inside=()):
    """Mixed-degree elements; with ``inside``, half the masks are drawn
    as subsets of those masks, so contractions do not all vanish."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mask = draw(st.integers(0, (1 << rank) - 1))
        if inside and draw(st.booleans()):
            mask &= draw(st.sampled_from(sorted(inside)))
        terms[mask] = draw(coefficients)
    return Multivector(rank, terms, ring, dual)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12), rings, st.booleans(), st.data())
def test_wedge_matches_reference(rank, ring, dual, data):
    x = data.draw(kernel_inputs(rank, ring, dual))
    y = data.draw(kernel_inputs(rank, ring, dual))
    assert_kernel_output(x.wedge(y), reference_wedge(x, y))
    assert_kernel_output(y.wedge(x), reference_wedge(y, x))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12), rings, st.booleans(), st.data())
def test_interior_matches_reference(rank, ring, dual, data):
    y = data.draw(kernel_inputs(rank, ring, dual))
    x = data.draw(kernel_inputs(rank, ring, not dual, inside=y.terms))
    assert_kernel_output(interior(x, y), reference_interior(x, y))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12), rings, st.booleans(), st.integers(0, 8),
       st.integers(-1, 3), st.booleans(), st.data())
def test_induced_map_matches_reference(rank, ring, dual, rows, extra, zero, data):
    """Non-square and zero matrices, and targets wider than the matrix."""
    x = data.draw(kernel_inputs(rank, ring, dual, max_terms=6))
    matrix = [[0 if zero else data.draw(coefficients) for _ in range(rank)]
              for _ in range(rows)]
    target = None if extra < 0 else rows + extra
    assert_kernel_output(induced_map(matrix, x, target),
                         reference_induced_map(matrix, x, target))
