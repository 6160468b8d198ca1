"""Relative H_1: tree-cotree computation against a naive rank oracle."""
import random
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sutured_tqft.axioms as axioms_module
import sutured_tqft.contact as contact_module
import sutured_tqft.gluing as gluing_module
from sutured_tqft import homology, linalg
from sutured_tqft.axioms import (DEFAULT_SEED, _grid_disk, random_sutured_surface,
                                 run_axiom_suite)
from sutured_tqft.contact import _region, contact_element
from sutured_tqft.dividing import chord_to_dividing_set, enumerate_chord_diagrams, regions
from sutured_tqft.errors import InternalConsistencyError, ValidationError
from sutured_tqft.exterior import RING_F2, RING_Z
from sutured_tqft.gluing import check_respect, glue
from sutured_tqft.homology import HomologyBasis, RelativeH1, induced_matrix
from sutured_tqft.linalg import mat_vec, rank_q
from sutured_tqft.models import annulus_surface, one_holed_torus
from sutured_tqft.surface import (UnionFind, chain_add, chain_boundary,
                                  chain_from_path, disjoint_union,
                                  face_boundary_chain, split_face, standard_disk,
                                  subdivide_edge, subsurface, transport_chain)

from test_linalg import assert_same_smith, dense_smith_normal_form
from test_surface import one_vertex_torus


def naive_relative_rank(s, rel):
    """rank H_1(S, rel) over Q from the full chain complex."""
    rel = set(rel)
    verts = sorted(v for v in s.vertices if v not in rel)
    vidx = {v: i for i, v in enumerate(verts)}
    edges = s.edges()
    d1 = [[0] * len(edges) for _ in verts]
    for j, e in enumerate(edges):
        if s.head[e] in vidx:
            d1[vidx[s.head[e]]][j] += 1
        if s.tail(e) in vidx:
            d1[vidx[s.tail(e)]][j] -= 1
    d2 = [[face_boundary_chain(s, f).get(e, 0) for f in range(len(s.faces))]
          for e in edges]
    return len(edges) - rank_q(d1) - rank_q(d2)


def test_disk_absolute_and_relative_ranks():
    for n in range(1, 5):
        s = standard_disk(n)
        assert RelativeH1(s).rank == 0
        h = RelativeH1(s, s.marks["alpha_plus"])
        assert h.rank == n - 1
        assert h.rank == len(s.marks["alpha_plus"]) - s.euler_characteristic()
        assert h.rank == naive_relative_rank(s, s.marks["alpha_plus"])


def test_torus_rank_two():
    t = one_vertex_torus()
    h = RelativeH1(t)
    assert h.rank == 2
    assert naive_relative_rank(t, set()) == 2
    # the two loop edges are independent classes
    assert h.reduce({0: 1}) != h.reduce({2: 1})
    assert h.reduce(chain_add({0: 1}, {2: 1})) == [a + b for a, b in
                                                  zip(h.reduce({0: 1}), h.reduce({2: 1}))]


def test_express_representative_roundtrip():
    s = standard_disk(4)
    h = RelativeH1(s, s.marks["alpha_plus"])
    for ring in (RING_Z, RING_F2):
        basis = HomologyBasis(h, ring)
        for i in range(h.rank):
            want = [1 if j == i else 0 for j in range(h.rank)]
            assert basis.express(h.representative(i)) == want


def test_boundary_path_is_relative_cycle():
    s = standard_disk(2)
    # boundary halfedges from a_1 (vertex 1) to a_3 (vertex 5): ids 2, 4, 6, 8
    path = [2, 4, 6, 8]
    chain = chain_from_path(s, path)
    bnd = chain_boundary(s, chain)
    assert bnd == {5: 1, 1: -1}
    h = RelativeH1(s, s.marks["alpha_plus"])
    coeffs = h.reduce(chain)
    assert len(coeffs) == 1 and coeffs[0] in (1, -1)


def test_non_cycle_rejected():
    s = standard_disk(2)
    h = RelativeH1(s, s.marks["alpha_plus"])
    with pytest.raises(ValidationError):
        h.reduce({0: 1})  # boundary hits unmarked vertices


def test_prescribed_basis_change():
    s = standard_disk(3)
    h = RelativeH1(s, s.marks["alpha_plus"])
    r0, r1 = h.representative(0), h.representative(1)
    combo = [dict(r0), chain_add(r0, r1)]
    bz = HomologyBasis(h, RING_Z, combo)
    assert bz.express(r0) == [1, 0]
    assert bz.express(r1) == [-1, 1]
    bf = HomologyBasis(h, RING_F2, combo)
    assert bf.express(r1) == [1, 1]


def test_prescribed_non_basis_rejected():
    s = standard_disk(3)
    h = RelativeH1(s, s.marks["alpha_plus"])
    r0, r1 = h.representative(0), h.representative(1)
    with pytest.raises(ValidationError, match="not an integral basis"):
        HomologyBasis(h, RING_Z, [r0, chain_add(r0, r0)])
    with pytest.raises(ValidationError):
        HomologyBasis(h, RING_F2, [r0, r0])
    with pytest.raises(ValidationError):
        HomologyBasis(h, RING_Z, [r0])


def test_vertex_functionals_sum_to_zero():
    s = standard_disk(3)
    h = RelativeH1(s, s.marks["alpha_plus"])
    basis = HomologyBasis(h, RING_Z)
    total = [0] * h.rank
    for v in sorted(s.marks["alpha_plus"]):
        f = basis.vertex_functional(v)
        total = [a + b for a, b in zip(total, f)]
    assert total == [0] * h.rank


def test_induced_matrix_under_refinement():
    s = standard_disk(3)
    rel = s.marks["alpha_plus"]
    h = RelativeH1(s, rel)
    src = HomologyBasis(h, RING_Z)
    ref, _ = subdivide_edge(s, 0)
    ref2, _, _, _ = split_face(ref.surface, 0, 1, 6)
    s2 = ref2.surface
    h2 = RelativeH1(s2, rel)
    assert h2.rank == h.rank
    dst = HomologyBasis(h2, RING_Z)
    mat = induced_matrix(src, dst, lambda c: transport_chain(ref2, transport_chain(ref, c)))
    # a refinement is a homotopy equivalence rel marks: the matrix is unimodular
    from sutured_tqft.linalg import det_q
    assert abs(det_q(mat)) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.lists(st.integers(0, 10 ** 6), max_size=5))
def test_random_refined_disks_match_oracle(n, seeds):
    s = standard_disk(n)
    for seed in seeds:
        kind = seed % 2
        if kind == 0:
            edges = s.edges()
            refn, _ = subdivide_edge(s, edges[seed // 2 % len(edges)])
        else:
            fid = seed // 2 % len(s.faces)
            walk = s.faces[fid]
            if len(walk) < 4:
                continue
            i = seed // 5 % len(walk)
            j = (i + 2 + seed // 11 % (len(walk) - 3)) % len(walk)
            i, j = min(i, j), max(i, j)
            if j - i < 1 or s.tail(walk[i]) == s.tail(walk[j]):
                continue
            refn, _, _, _ = split_face(s, fid, i, j)
        s = refn.surface
    for rel in (set(), s.marks["alpha_plus"], s.marks["alpha_minus"]):
        h = RelativeH1(s, rel)
        assert h.rank == naive_relative_rank(s, rel)
        for i in range(h.rank):
            basisz = HomologyBasis(h, RING_Z)
            assert basisz.express(h.representative(i))[i] == 1


def _surfaces_with_relative_sets():
    rng = random.Random(3)
    surfaces = [standard_disk(n) for n in range(1, 6)]
    surfaces += [annulus_surface(), one_holed_torus(), one_vertex_torus()]
    surfaces += [random_sutured_surface(rng) for _ in range(6)]
    for s in surfaces:
        for rel in (set(), s.marks["alpha_plus"], s.marks["alpha_minus"]):
            yield s, RelativeH1(s, rel)


def test_a_whole_surface_build_spans_the_surface():
    # the default face set is every face, so the complex is the surface
    for s, h in _surfaces_with_relative_sets():
        assert h.faces == tuple(range(len(s.faces)))
        assert h._edges == list(s.edges())
        assert h.euler_characteristic == s.euler_characteristic()


def face_boundary_rows(h):
    """The boundaries of h's faces in its cotree coordinates: one dense
    row per cotree edge, one column per face."""
    chains = [face_boundary_chain(h.surface, f) for f in h.faces]
    return [[c.get(e, 0) for c in chains] for e in h.cotree]


def assert_matches_dense_smith(h, rng):
    """Rank, generic representatives and `reduce` of h are those of the
    dense Smith loop U*A*V = D on its face-boundary rows A: the rank is
    the cotree size less rank(A), class i is the combination of cycles in
    column rank + i of U^-1, and a class reduces by the rows of U past
    rank(A)."""
    s = h.surface
    oracle = dense_smith_normal_form(face_boundary_rows(h))
    rank = len(oracle.diag)
    assert h.rank == len(h.cotree) - rank
    for _ in range(4):
        chain = {}
        for j in range(len(h.cotree)):
            chain = chain_add(chain, h.cycle(j), rng.randint(-3, 3))
        for f in h.faces:
            chain = chain_add(chain, face_boundary_chain(s, f), rng.randint(-2, 2))
        for ring in (RING_Z, RING_F2):
            full = mat_vec(oracle.u, h.coordinates(chain, ring))[rank:]
            if ring == RING_F2:
                full = [x % 2 for x in full]
            assert h.reduce(chain, ring) == full
    for i in range(h.rank):
        want = {}
        for j in range(len(h.cotree)):
            if oracle.u_inv[j][rank + i]:
                want = chain_add(want, h.cycle(j), oracle.u_inv[j][rank + i])
        assert list(h.representative(i).items()) == list(want.items())


def test_face_boundary_smith_forms_match_full_scan_reference():
    for s, h in _surfaces_with_relative_sets():
        assert_same_smith(face_boundary_rows(h))


def test_reduce_matches_the_full_product_with_u():
    rng = random.Random(17)
    seen_rank = 0
    for s, h in _surfaces_with_relative_sets():
        seen_rank = max(seen_rank, h.rank)
        assert_matches_dense_smith(h, rng)
    assert seen_rank >= 4


def recorded_builds(monkeypatch, build):
    """Every `RelativeH1` built in `build()`."""
    built = []
    init = RelativeH1.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(RelativeH1, "__init__", recording)
    build()
    monkeypatch.undo()
    return built


def assert_distinct_builds_match_dense_loop(builds, rng):
    """The first build of each distinct face-boundary matrix against the
    dense Smith loops; returns the number of distinct matrices."""
    distinct = {}
    for h in builds:
        distinct.setdefault(tuple(map(tuple, face_boundary_rows(h))), h)
    for rows, h in distinct.items():
        assert_same_smith([list(row) for row in rows])
        assert_matches_dense_smith(h, rng)
    return len(distinct)


def test_axiom_suite_boundary_matrices_match_dense_loop(monkeypatch):
    # repeated draws share their surfaces, so count distinct matrices
    builds = recorded_builds(monkeypatch, run_axiom_suite)
    assert assert_distinct_builds_match_dense_loop(builds, random.Random(29)) > 300


def test_only_unimodular_inverses_take_a_smith_form(monkeypatch):
    # homology reads its quotient off the dual graph: in a default suite,
    # every Smith form is the one inside `left_inverse_z`, and each matrix
    # it sees matches the dense and full-scan oracles
    callers = Counter()
    seen = []
    smith_normal_form = linalg.smith_normal_form

    def recording(a):
        callers[sys._getframe(1).f_code.co_name] += 1
        seen.append(a)
        return smith_normal_form(a)

    monkeypatch.setattr(linalg, "smith_normal_form", recording)
    assert all(r.verdict for r in run_axiom_suite())
    assert not hasattr(homology, "smith_normal_form")
    assert set(callers) == {"left_inverse_z"} and callers["left_inverse_z"] > 0
    for a in seen:
        assert_same_smith(a)


def marked_grid_disk(w):
    """The w-by-w grid disk with every perimeter vertex marked, in the
    cycle F+, alpha+, F-, alpha- along the boundary."""
    kinds = ("F_plus", "alpha_plus", "F_minus", "alpha_minus")
    perimeter = ([(i, 0) for i in range(w)] + [(w, j) for j in range(w)]
                 + [(i, w) for i in range(w, 0, -1)] + [(0, j) for j in range(w, 0, -1)])
    return _grid_disk(w, w, {p: kinds[k % 4] for k, p in enumerate(perimeter)})


@pytest.mark.parametrize("w", [2, 3, 5])
def test_small_grid_disks_match_oracle(w):
    s = marked_grid_disk(w)
    for rel in (s.marks["alpha_plus"], s.marks["alpha_minus"]):
        assert RelativeH1(s, rel).rank == naive_relative_rank(s, rel) == w - 1


def test_grid_disk_boundary_matrices_match_dense_loop(monkeypatch):
    def build():
        for w in range(1, 13):
            s = marked_grid_disk(w)
            for rel in (s.marks["alpha_plus"], s.marks["alpha_minus"]):
                RelativeH1(s, rel)

    builds = recorded_builds(monkeypatch, build)
    assert len(builds) == 24
    assert_distinct_builds_match_dense_loop(builds, random.Random(31))


def test_grid_disk_homology_scales_with_cells():
    s = marked_grid_disk(40)
    start = time.perf_counter()
    h = RelativeH1(s, s.marks["alpha_plus"])
    elapsed = time.perf_counter() - start
    assert h.rank == 39
    assert elapsed < 2.0, f"40x40 grid disk homology took {elapsed:.2f} s"


def test_grid_disk_homology_is_near_linear_in_cells():
    # 9,216 faces: the build is two union-find passes and one forest walk
    s = marked_grid_disk(96)
    start = time.perf_counter()
    h = RelativeH1(s, s.marks["alpha_plus"])
    elapsed = time.perf_counter() - start
    assert h.rank == 95
    assert elapsed < 1.0, f"96x96 grid disk homology took {elapsed:.2f} s"


# -- the one-pass build against the direct oracle -------------------------

class OracleUnionFind:
    """Reference union-find: nothing is seeded, and every item joins
    through `setdefault`."""

    def __init__(self):
        self.parent = {}

    def find(self, x):
        parent = self.parent
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        parent = self.parent
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        parent.setdefault(b, b)
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a == b:
            return False
        parent[a] = b
        return True


def oracle_chain_boundary(s, chain):
    out = {}
    for e, c in chain.items():
        for v, sgn in ((s.head[e], 1), (s.tail(e), -1)):
            out[v] = out.get(v, 0) + sgn * c
    return {v: c for v, c in out.items() if c}


class OracleH1(RelativeH1):
    """Reference `RelativeH1`, built the direct way: three comprehensions
    over the walks, the spanning and dual union-find passes one after the
    other, the dual forest and quotient functionals walked in the
    constructor, and coordinates read off every cotree edge and checked
    by the full residual, cotree part included."""

    def __init__(self, surface, rel=(), faces=None):
        self.surface = surface
        head, twin = surface.head, surface.twin
        rel = frozenset(rel)
        if faces is None:
            faces = range(len(surface.faces))
        self.faces = tuple(sorted(set(faces)))
        walk_face = {h: f for f in self.faces for h in surface.faces[f]}
        vertices = {head[h] for h in walk_face}
        self._edges = edges = sorted({min(h, twin[h]) for h in walk_face})
        self.euler_characteristic = len(vertices) - len(edges) + len(self.faces)
        self.rel = rel & vertices
        if len(self.rel) < len(rel):
            stray = rel - surface.vertices
            if stray:
                raise ValidationError(f"relative vertices {sorted(stray)} not in surface")

        mv = {v: -1 if v in self.rel else v for v in vertices}
        adj = {v: [] for v in sorted(set(mv.values()))}
        union = OracleUnionFind().union
        self.cotree = []
        for e in edges:
            u, v = mv[head[twin[e]]], mv[head[e]]
            if union(u, v):
                adj[u].append((e, v, 1))
                adj[v].append((e, u, -1))
            else:
                self.cotree.append(e)
        self._up, self._depth = homology._rooted_forest(adj)
        self._cycles = {}

        ends = [(walk_face.get(e), walk_face.get(twin[e])) for e in self.cotree]
        dual = {}
        union = OracleUnionFind().union
        order = list(range(len(ends)))
        t = 0
        for i, (a, b) in enumerate(ends):
            if union(a, b):
                order[t], order[i] = i, order[t]
                t += 1
                dual.setdefault(b, []).append((i, a, 1))
                dual.setdefault(a, []).append((i, b, -1))
        masks = [(0 if a is None else 1 << a) ^ (0 if b is None else 1 << b) for a, b in ends]
        if linalg.f2_rank(masks) != t:
            raise InternalConsistencyError("mod-2 rank of boundary map dropped")
        self.rank = len(ends) - t
        up, depth = homology._rooted_forest(dual)
        self._quotient = [[] for _ in ends]
        self._lifts = order[t:]
        for r, i in enumerate(self._lifts):
            self._quotient[i].append((r, 1))
            for j, sgn in homology._tree_path(up, depth, *ends[i]):
                self._quotient[j].append((r, sgn))

    def coordinates(self, chain, ring=RING_Z):
        if ring == RING_F2:
            chain = homology._mod2(chain)
        boundary = oracle_chain_boundary(self.surface, chain)
        if ring == RING_F2:
            boundary = {v: c % 2 for v, c in boundary.items() if c % 2}
        bad = boundary.keys() - self.rel
        if bad:
            raise ValidationError(f"chain is not a relative cycle (boundary at {sorted(bad)})")
        w = [chain.get(e, 0) for e in self.cotree]
        residual = dict(chain)
        for j, wi in enumerate(w):
            if wi:
                for e, c in self.cycle(j).items():
                    residual[e] = residual.get(e, 0) - wi * c
        if any(c % 2 for c in residual.values()) if ring == RING_F2 else any(residual.values()):
            raise InternalConsistencyError("relative cycle escaped the tree-cotree span")
        return w


def random_relative_cycle(h, rng):
    """A random integer combination of h's fundamental cycles and face
    boundaries: a relative cycle of h's complex."""
    chain = {}
    for j in range(len(h.cotree)):
        chain = chain_add(chain, h.cycle(j), rng.randint(-2, 2))
    for f in h.faces:
        chain = chain_add(chain, face_boundary_chain(h.surface, f), rng.randint(-1, 1))
    return chain


def assert_matches_oracle(args, rng=None):
    """A fresh build on ``args`` (surface, rel, faces) against the oracle:
    the same cells, forest, rank, lifts, quotient functionals and cycles;
    and, given ``rng``, the same boundary, coordinates and class of a
    random relative cycle over both rings."""
    new, old = RelativeH1(*args), OracleH1(*args)
    assert "_quotient" not in vars(new)
    assert new.faces == old.faces
    assert new._edges == old._edges
    assert new.euler_characteristic == old.euler_characteristic
    assert new.rel == old.rel
    assert new.cotree == old.cotree
    assert new._up == old._up and new._depth == old._depth
    assert new.rank == old.rank
    assert new._lifts == old._lifts
    assert new._quotient == old._quotient
    for j in range(len(new.cotree)):
        assert list(new.cycle(j).items()) == list(old.cycle(j).items())
    if rng is not None:
        chain = random_relative_cycle(old, rng)
        assert chain_boundary(new.surface, chain) == oracle_chain_boundary(old.surface, chain)
        for ring in (RING_Z, RING_F2):
            assert new.coordinates(chain, ring) == old.coordinates(chain, ring)
            assert new.reduce(chain, ring) == old.reduce(chain, ring)
        assert_refusals_match_oracle(new, chain, rng)


def oracle_coordinates(h, chain, ring=RING_Z):
    """`RelativeH1.coordinates` with its former boundary pass up front,
    and the off-complex refusal asked for on each failure."""
    def refuse_off_complex(chain):
        off = chain.keys() - set(h._edges)
        if off:
            raise ValidationError(f"chain leaves the complex (edges {sorted(off)})")

    if ring == RING_F2:
        chain = homology._mod2(chain)
    try:
        boundary = chain_boundary(h.surface, chain)
    except KeyError:
        refuse_off_complex(chain)
        raise
    if ring == RING_F2:
        boundary = {v: c % 2 for v, c in boundary.items() if c % 2}
    bad = boundary.keys() - h.rel
    if bad:
        refuse_off_complex(chain)
        raise ValidationError(f"chain is not a relative cycle (boundary at {sorted(bad)})")
    index = h._coordinate
    w = [0] * len(index)
    residual = dict(chain)
    for e, wi in chain.items():
        j = index.get(e)
        if j is not None and wi:
            w[j] = wi
            del residual[e]
            for f, c in list(h.cycle(j).items())[1:]:
                residual[f] = residual.get(f, 0) - wi * c
    if any(c % 2 for c in residual.values()) if ring == RING_F2 else any(residual.values()):
        refuse_off_complex(chain)
        raise InternalConsistencyError("relative cycle escaped the tree-cotree span")
    return w


def coordinates_outcome(coordinates, h, chain, ring):
    """The coordinates a chain gets, or the type and message of its refusal."""
    try:
        return coordinates(h, chain, ring)
    except (ValidationError, InternalConsistencyError) as exc:
        return type(exc), str(exc)


def assert_refusals_match_oracle(h, chain, rng):
    """Coordinates and refusals agree with `oracle_coordinates` in both
    rings on ``chain``, a relative cycle of h, and on its faulty variants."""
    s = h.surface
    nonzero = (-3, -2, -1, 1, 2, 3)
    off_edges = sorted(set(s.edges()) - set(h._edges))
    tree_edges = [e for e in chain if e not in h._coordinate]
    feeds = [chain, {**chain, max(s.twin) + 1: rng.choice(nonzero)}]
    feeds += [{**chain, e: rng.choice(nonzero)} for e in off_edges]
    if s.boundary_halfedges():
        b = rng.choice(s.boundary_halfedges())
        feeds += [chain_add(chain, {b: 1}), chain_add(chain, {s.canonical(b): 1})]
    if tree_edges:
        dropped = dict(chain)
        del dropped[rng.choice(tree_edges)]
        feeds.append(dropped)
    # even coefficients vanish over F2, on and off the complex
    even = chain_add(chain, {rng.choice(h.cotree): 2} if h.cotree else {})
    even.update({e: rng.choice((-2, 2, 4)) for e in off_edges[:3]})
    feeds.append(even)
    for ring in (RING_Z, RING_F2):
        for feed in feeds:
            want = coordinates_outcome(oracle_coordinates, h, feed, ring)
            assert coordinates_outcome(RelativeH1.coordinates, h, feed, ring) == want
        assert isinstance(coordinates_outcome(RelativeH1.coordinates, h, even, RING_F2), list)


@pytest.mark.parametrize("ring", [RING_Z, RING_F2])
def test_an_accepted_chain_has_no_boundary_walk(monkeypatch, ring):
    # the respect corpus of a default suite, up to the gluing check
    class Drawn(Exception):
        pass

    def stop(corpus, **kwargs):
        raise Drawn(list(corpus))

    monkeypatch.setattr(axioms_module, "check_gluing_axiom", stop)
    with pytest.raises(Drawn) as drawn:
        run_axiom_suite()
    corpus = drawn.value.args[0]
    calls = []

    def counted(s, chain):
        calls.append(chain)
        return chain_boundary(s, chain)

    monkeypatch.setattr(homology, "chain_boundary", counted)
    assert all(check_respect(glue(tau), ds, ring) for ds, tau in corpus)
    assert len(corpus) > 200 and calls == []
    s = standard_disk(2)
    with pytest.raises(ValidationError, match="not a relative cycle"):
        RelativeH1(s, s.marks["alpha_plus"]).coordinates({0: 1}, ring)
    assert len(calls) == 1


def recorded_build_args(monkeypatch, build):
    """The (surface, rel, faces) of every `RelativeH1` built in `build()`."""
    seen = []
    init = RelativeH1.__init__

    def recording(self, surface, rel=(), faces=None):
        rel, faces = tuple(rel), faces if faces is None else tuple(faces)
        init(self, surface, rel, faces)
        seen.append((surface, rel, faces))

    monkeypatch.setattr(RelativeH1, "__init__", recording)
    build()
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7])
def test_suite_builds_match_the_direct_oracle(monkeypatch, seed):
    # every build the suite makes, whole surfaces and regions alike
    seen = recorded_build_args(monkeypatch, lambda: run_axiom_suite(seed))
    assert len(seen) > 600 and any(faces is not None for _, _, faces in seen)
    rng = random.Random(seed)
    for args in seen:
        assert_matches_oracle(args, rng)


def gluing_rank_rounds(monkeypatch, count):
    """The first ``count`` rounds of the benchmark's gluing_rank inputs."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    return workloads.build("gluing_rank", DEFAULT_SEED)[:count]


def test_gluing_rank_builds_match_the_direct_oracle(monkeypatch):
    rounds = gluing_rank_rounds(monkeypatch, 2)
    ops = [op for ops in rounds for op in ops]
    seen = recorded_build_args(monkeypatch, lambda: [op.run() for op in ops])
    # a respect check builds two regions and the quotient's H_1
    assert len(seen) == 3 * len(ops) > 0
    rng = random.Random(11)
    for args in seen:
        assert_matches_oracle(args, rng)


def test_large_grid_disk_matches_the_direct_oracle():
    s = marked_grid_disk(96)
    assert_matches_oracle((s, s.marks["alpha_plus"]))


def test_union_find_matches_the_setdefault_oracle():
    # seeded up front or joining on first use: the same merges, the same
    # roots and the same parent links
    rng = random.Random(5)
    for n in (1, 2, 10, 200):
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)]
        new, old = UnionFind(range(n)), OracleUnionFind()
        assert [new.union(a, b) for a, b in pairs] == [old.union(a, b) for a, b in pairs]
        assert [new.find(x) for x in range(n)] == [old.find(x) for x in range(n)]
        assert new.parent == old.parent


def test_only_the_ambient_basis_walks_its_dual_forest(monkeypatch):
    # regions are read only through their representatives, so neither
    # builds its quotient functionals; the basis the classes are expressed
    # in builds them once, if there is a class to express
    def split(builds):
        whole = [h for h in builds if h.faces == tuple(range(len(h.surface.faces)))]
        assert len(whole) == 1
        parts = [h for h in builds if h is not whole[0]]
        assert all("_quotient" not in vars(h) for h in parts)
        return whole[0], parts

    for cd in enumerate_chord_diagrams(4):
        ds = chord_to_dividing_set(cd)
        for ring in (RING_Z, RING_F2):
            basis, [region] = split(recorded_builds(monkeypatch, lambda: contact_element(ds, ring)))
            assert ("_quotient" in vars(basis)) == (region.rank > 0)
    for op in gluing_rank_rounds(monkeypatch, 1)[0]:
        basis, parts = split(recorded_builds(monkeypatch, op.run))
        assert len(parts) == 2 and "_quotient" in vars(basis)


# -- the checks a build keeps ---------------------------------------------

def test_a_corrupted_tree_path_is_an_internal_error():
    s = standard_disk(4)
    rel = s.marks["alpha_plus"]
    h = RelativeH1(s, rel)
    j = next(j for j in range(len(h.cotree)) if len(h.cycle(j)) > 2)
    chain = dict(h.cycle(j))
    for ring in (RING_Z, RING_F2):
        # a cycle that lost the last edge of its tree path
        h = RelativeH1(s, rel)
        z = h.cycle(j)
        del z[next(reversed(z))]
        with pytest.raises(InternalConsistencyError, match="relative cycle escaped"):
            h.coordinates(chain, ring)
    # a forest edge whose sign was flipped
    h = RelativeH1(s, rel)
    f = list(chain)[1]
    x = next(x for x, (e, _, _) in h._up.items() if e == f)
    e, parent, sgn = h._up[x]
    h._up[x] = (e, parent, -sgn)
    with pytest.raises(InternalConsistencyError, match="relative cycle escaped"):
        h.reduce(chain)


def test_a_region_refuses_a_chain_off_its_complex():
    # each failure path of `coordinates`: an unknown id, a boundary off
    # the relative set, and a relative cycle with an edge off the region
    ds = chord_to_dividing_set(enumerate_chord_diagrams(4)[0])
    s = ds.surface
    hr, _ = _region(ds, "plus")
    off_edges = sorted(set(s.edges()) - set(hr._edges))
    ambient = RelativeH1(s, s.marks["alpha_plus"])
    cycle = next(ambient.cycle(j) for j in range(len(ambient.cotree))
                 if ambient.cycle(j).keys() - set(hr._edges))
    for chain in ({max(s.twin) + 1: 1}, {off_edges[0]: 1}, cycle):
        for ring in (RING_Z, RING_F2):
            with pytest.raises(ValidationError, match="chain leaves the complex"):
                hr.coordinates(chain, ring)


def test_a_stray_relative_vertex_is_refused():
    ds = chord_to_dividing_set(enumerate_chord_diagrams(4)[0])
    s = ds.surface
    stray = max(s.vertices) + 1
    faces = sorted(regions(ds).faces_plus)
    # a vertex of the surface off the faces drops out
    h = RelativeH1(s, s.vertices, faces)
    assert h.rel < s.vertices
    for span in (None, faces):
        with pytest.raises(ValidationError, match=rf"relative vertices \[{stray}\] not in surface"):
            RelativeH1(s, [*s.marks["alpha_plus"], stray], span)


# -- regions spanned by their faces on the host ---------------------------

def assert_region_matches_subsurface_build(ds, side):
    """`_region`'s H_1, read off ds's surface by face set, against the
    H_1 of the region's subsurface: the same cotree, rank, lifts,
    quotient functionals, cycles and representatives (in item order),
    and the grade n - χ of that subsurface."""
    s = ds.surface
    sign, key = {"plus": (1, "alpha_plus"), "minus": (-1, "alpha_minus")}[side]
    faces = sorted(f for f, x in ds.face_signs.items() if x == sign)
    sub = subsurface(s, faces)
    old = RelativeH1(sub, sorted(sub.marks[key]))
    new, grade = _region(ds, side)
    assert new.surface is s and new.faces == tuple(faces)
    assert new.euler_characteristic == sub.euler_characteristic()
    assert grade == len(s.marks["F_plus"]) - sub.euler_characteristic()
    assert new.rel == old.rel
    assert (new.cotree, new.rank, new._lifts) == (old.cotree, old.rank, old._lifts)
    assert new._quotient == old._quotient
    for j in range(len(new.cotree)):
        assert list(new.cycle(j).items()) == list(old.cycle(j).items())
    for i in range(new.rank):
        assert list(new.representative(i).items()) == list(old.representative(i).items())


def test_region_builds_match_subsurface_builds_on_small_disks():
    for n in range(1, 7):
        for cd in enumerate_chord_diagrams(n):
            ds = chord_to_dividing_set(cd)
            for side in ("plus", "minus"):
                assert_region_matches_subsurface_build(ds, side)


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7])
def test_suite_region_builds_match_subsurface_builds(monkeypatch, seed):
    # both sides of every dividing set whose region a suite builds
    seen = {}
    for module in (contact_module, gluing_module):
        def recording(ds, side, region=module._region):
            seen.setdefault(id(ds), ds)
            return region(ds, side)

        monkeypatch.setattr(module, "_region", recording)
    assert all(r.verdict for r in run_axiom_suite(seed))
    monkeypatch.undo()
    assert len(seen) > 300
    for ds in seen.values():
        for side in ("plus", "minus"):
            assert_region_matches_subsurface_build(ds, side)


# -- tree paths from the relative set -------------------------------------

def test_path_from_rel_joins_every_quotient_vertex_to_the_sutures(monkeypatch):
    # every quotient the default axiom suite builds, every vertex of it
    results = []

    def recording(tau):
        data = glue(tau)
        results.append(data)
        return data

    monkeypatch.setattr(axioms_module, "glue", recording)
    assert all(r.verdict for r in run_axiom_suite())
    assert len(results) > 180 and sum(1 for d in results if d.swallowed) > 40
    for data in results:
        s = data.result
        h = RelativeH1(s, s.marks["alpha_plus"])
        for v in sorted(s.vertices):
            bd = chain_boundary(s, h.path_from_rel(v))
            if v in h.rel:
                assert bd == {}
            else:
                (a,) = bd.keys() - {v}
                assert bd == {v: 1, a: -1} and a in h.rel


def test_path_from_rel_refuses_a_component_away_from_the_sutures():
    s, vmap, _ = disjoint_union(standard_disk(2), standard_disk(3))
    h = RelativeH1(s, [vmap[v] for v in standard_disk(3).marks["alpha_plus"]])
    assert h.path_from_rel(vmap[0]) != {}
    with pytest.raises(InternalConsistencyError, match="not connected"):
        h.path_from_rel(0)
    with pytest.raises(InternalConsistencyError, match="not connected"):
        h.path_from_rel(min(standard_disk(2).marks["alpha_plus"]))
