"""Welding boundary collections, cutting along arcs, and the induced maps."""

import hashlib
import itertools
import json
import random
from functools import cached_property
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import sutured_tqft.axioms as axioms_module
import sutured_tqft.gluing as gluing_module
import sutured_tqft.homology as homology_module
from sutured_tqft.axioms import (
    check_basis_of_contact_elements,
    check_relabel_invariance,
    random_glued_dividing_sets,
    random_sutured_surface,
    run_axiom_suite,
)
from sutured_tqft.contact import _region, _wedge_region, contact_element, default_basis
from sutured_tqft.dividing import (
    ChordDiagram,
    DividingSet,
    add_trivial_circle,
    chord_to_dividing_set,
    enumerate_chord_diagrams,
    regions,
)
from sutured_tqft.errors import InternalConsistencyError, InvalidGluingError, ValidationError
from sutured_tqft.exterior import (
    Multivector,
    RING_F2,
    RING_Z,
    equal_up_to_sign,
    indices_of,
    induced_map,
    interior,
)
from sutured_tqft.gluing import (
    Gluing,
    check_respect,
    cut_open,
    glue,
    glued_relative_basis,
    gluing_morphism,
    gluing_violations,
    push_dividing_set,
    pushforward_class,
    quadrangulate,
    square_chord_family,
    _morphism,
    _realize_arc,
    _respect_parts,
)
from sutured_tqft.homology import HomologyBasis, RelativeH1, induced_matrix
from sutured_tqft.linalg import (
    f2_rank,
    f2_row_space,
    f2_solve,
    invert_unimodular,
    left_inverse_z,
    rank_q,
    solve_z,
)
from sutured_tqft.models import annulus_model, annulus_surface, disk_model, one_holed_torus
from sutured_tqft.surface import (
    MARK_KEYS,
    Surface,
    _Draft,
    add_detached_circle,
    chain_add,
    chain_boundary,
    chain_scale,
    disjoint_union,
    push_chain,
    standard_disk,
    subdivide_edge,
    validate_surface,
)

from test_disks import _random_diagram
from test_dividing import oracle_dividing_set, record_dividing_sets
from test_linalg import f2_left_inverse


def _same_surface(a, b):
    return (a.twin == b.twin and a.head == b.head
            and a.faces == b.faces and a.marks == b.marks)


# The running example: the disk with dividing set 1-8,2-3,4-5,6-7 welded to
# itself along a five-vertex stretch, leaving an annulus and swallowing one
# positive suture.
def _welding_fixture():
    ds = chord_to_dividing_set(ChordDiagram.parse("1-8,2-3,4-5,6-7"))
    tau = Gluing(ds.surface, (30, 0, 2, 4), (20, 18, 16, 14))
    return ds, ds.surface, tau


# -- validation -----------------------------------------------------------

def test_gluing_validation_rejects_bad_data():
    s = standard_disk(3)
    # folding an arc onto its own neighbour pins vertex 3 to itself
    assert any("glued to itself" in v for v in gluing_violations(s, (2, 4), (8, 6)))
    with pytest.raises(InvalidGluingError):
        Gluing(s, (2, 4), (8, 6))
    with pytest.raises(InvalidGluingError):
        Gluing(s, (2, 4), (16,))
    # faceless halfedge
    with pytest.raises(InvalidGluingError):
        Gluing(s, (3,), (17,))
    # suture glued to a suture of the same sign
    assert any("clash" in v for v in gluing_violations(s, (0,), (14,)))
    # a stretch may not end in the middle of a marked-point pair
    assert any("non-suture" in v for v in gluing_violations(s, (2,), (16,)))


def test_gluing_that_closes_a_sphere_is_rejected():
    s, _, hmap = disjoint_union(standard_disk(1), standard_disk(1))
    gamma = (0, 2, 4, 6)
    gamma_prime = (hmap[2], hmap[0], hmap[6], hmap[4])
    assert "close" in " ".join(gluing_violations(s, gamma, gamma_prime))
    with pytest.raises(InvalidGluingError):
        Gluing(s, gamma, gamma_prime)


def _union_find_gluing_violations(host, gamma, gamma_prime):
    """The validation as first written: a union-find over every host
    halfedge and two passes over the sorted boundary per call."""
    out = []
    if len(gamma) != len(gamma_prime):
        out.append("gamma and gamma_prime have different lengths")
        return out
    boundary = sorted(h for h in host.twin
                      if host.in_face(h) and not host.in_face(host.twin[h]))
    for h in (*gamma, *gamma_prime):
        if h not in host.twin:
            out.append(f"unknown halfedge {h}")
            return out
        if h not in boundary:
            out.append(f"halfedge {h} is not a face-resident boundary halfedge")
    if out:
        return out
    canon = [host.canonical(h) for h in (*gamma, *gamma_prime)]
    if len(set(canon)) != len(canon):
        out.append("gamma and gamma_prime reuse an edge")
    link = {}
    for g, gp in zip(gamma, gamma_prime):
        for a, b in ((host.tail(g), host.head[gp]), (host.head[g], host.tail(gp))):
            if a == b:
                out.append(f"vertex {a} would be glued to itself")
            elif link.setdefault(a, b) != b:
                out.append(f"vertex {a} sent to both {link[a]} and {b}")
    values = [b for _, b in sorted(link.items())]
    if len(set(values)) != len(values):
        out.append("vertex identification is not injective")
    for a, b in sorted(link.items()):
        ka, kb = host.mark_of(a), host.mark_of(b)
        if kb != gluing_module._OPPOSITE_MARK[ka]:
            out.append(f"marks of glued vertices {a} ({ka}) and {b} ({kb}) clash")
    degree = {}
    for h in (*gamma, *gamma_prime):
        for v in (host.tail(h), host.head[h]):
            degree[v] = degree.get(v, 0) + 1
    for v, d in sorted(degree.items()):
        if d > 2:
            out.append(f"vertex {v} is an endpoint of {d} glued halfedges")
        if d == 1 and host.mark_of(v) not in ("alpha_plus", "alpha_minus"):
            out.append(f"glued stretch ends at non-suture vertex {v}")
    if not out and gamma:
        parent = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for h in host.twin:
            a, b = find(host.tail(h)), find(host.head[h])
            if a != b:
                parent[a] = b
        for a, b in link.items():
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        glued_edges = {host.canonical(h) for h in (*gamma, *gamma_prime)}
        open_comps = {find(host.tail(h)) for h in boundary
                      if host.canonical(h) not in glued_edges}
        for h in boundary:
            if find(host.tail(h)) not in open_comps:
                out.append("gluing would close a component")
                break
    return out


def _boundary_arcs(s, sutures):
    """Boundary runs from an alpha vertex over `sutures` marked points; a
    run over every alpha vertex of its circle goes once around it."""
    alpha = s.marks["alpha_plus"] | s.marks["alpha_minus"]
    arcs = []
    for circle in s.boundary_circles():
        m = len(circle)
        at = [i for i in range(m) if s.tail(circle[i]) in alpha]
        if sutures > len(at):
            continue
        for j in range(len(at)):
            i, stop = at[j], at[(j + sutures) % len(at)]
            run = [circle[i]]
            i = (i + 1) % m
            while i != stop:
                run.append(circle[i])
                i = (i + 1) % m
            arcs.append(tuple(run))
    return arcs


def test_gluing_violations_match_union_find_version():
    rng = random.Random(3)
    hosts = [standard_disk(n) for n in (3, 4, 5)]
    hosts += [annulus_model().surface,
              disjoint_union(standard_disk(1), standard_disk(1))[0],
              disjoint_union(standard_disk(1), standard_disk(2))[0]]
    hosts += [random_sutured_surface(rng) for _ in range(2)]
    seen = set()
    for host in hosts:
        arcs = [a for k in (1, 2, 4) for a in _boundary_arcs(host, k)]
        for ga in arcs:
            for gb in arcs:
                for gp in (tuple(reversed(gb)), gb):
                    got = gluing_violations(host, ga, gp)
                    assert got == _union_find_gluing_violations(host, ga, gp)
                    seen.update(got or ["accepted"])
    # two one-suture disks: weld both halves of one onto the other
    s, _, hmap = disjoint_union(standard_disk(1), standard_disk(1))
    halves = _boundary_arcs(s, 1)
    for ga, gb in itertools.product(itertools.permutations(halves, 2), repeat=2):
        gamma, gamma_prime = ga[0] + ga[1], tuple(reversed(gb[0] + gb[1]))
        got = gluing_violations(s, gamma, gamma_prime)
        assert got == _union_find_gluing_violations(s, gamma, gamma_prime)
        seen.update(got or ["accepted"])
    assert {"accepted", "gluing would close a component"} <= seen
    assert any("clash" in v for v in seen) and any("reuse" in v for v in seen)


def test_gluing_json_round_trip():
    s = standard_disk(3)
    tau = Gluing(s, (2, 4), (16, 14))
    blob = json.dumps(tau.to_json_dict())
    tau2 = Gluing.from_json_dict(s, json.loads(blob))
    assert tau2.gamma == tau.gamma and tau2.gamma_prime == tau.gamma_prime
    bad = tau.to_json_dict()
    bad["vertex_map"]["1"] = 5
    with pytest.raises(InvalidGluingError):
        Gluing.from_json_dict(s, bad)


# -- quotient structure ---------------------------------------------------

def test_welding_quotient_structure():
    _, host, tau = _welding_fixture()
    g = glue(tau)
    res = g.result
    # five seam identifications, one interior positive suture
    assert g.swallowed == (1,)
    assert res.euler_characteristic() == 0
    assert res.genus() == 0
    assert len(res.boundary_circles()) == 2
    assert res.marks["F_plus"] == {4, 12}
    assert res.marks["alpha_plus"] == {5, 13}
    assert res.marks["F_minus"] == {6, 14}
    assert res.marks["alpha_minus"] == {3, 11}
    # quotient vertex classes collapse to the smaller id
    for a, b in ((0, 10), (1, 9), (2, 8), (3, 7), (11, 15)):
        assert g.vertex_map[b] == a and g.vertex_map[a] == a
    assert glued_relative_basis(g, RING_Z).rank == 3


def test_empty_gluing_is_identity():
    s = annulus_surface()
    g = glue(Gluing(s, (), ()))
    assert _same_surface(g.result, s)
    assert g.swallowed == ()
    x = Multivector(2, {0b01: 1, 0b11: -2}, RING_Z)
    assert gluing_morphism(g, x) == x


def test_pushforward_fixes_chains_away_from_the_seam():
    ds, host, tau = _welding_fixture()
    g = glue(tau)
    chord = {host.canonical(ds.k_halfedges[0]): 1}
    assert pushforward_class(g, chord) == chord


def _pushforward_by_canonical_edges(g, chain):
    """The quotient pushforward as written before `push_chain`, which
    canonicalized each key on the host first: the oracle for it."""
    host, result = g.gluing.host, g.result
    out = {}
    for e, c in chain.items():
        ce = host.canonical(e)
        coeff = c if e == ce else -c
        h = g.halfedge_map[ce]
        ch = result.canonical(h)
        out[ch] = out.get(ch, 0) + (coeff if h == ch else -coeff)
    return {e: c for e, c in out.items() if c}


def test_push_chain_matches_the_pushforward_loop():
    # each host cycle both as stored and keyed by the reversed halfedges,
    # so the host-side canonicalization of the old loop is exercised too
    pushed = 0
    for seed in (1, 7):
        for _, tau in random_glued_dividing_sets(random.Random(seed), 200):
            g = glue(tau)
            host = tau.host
            for c in default_basis(host, RING_Z).cycles:
                expect = _pushforward_by_canonical_edges(g, c)
                assert push_chain(c, g.halfedge_map, g.result) == expect
                flipped = {host.twin[e]: -x for e, x in c.items()}
                assert push_chain(flipped, g.halfedge_map, g.result) == expect
                pushed += 1
    assert pushed > 1000


# -- the swallowing morphism ----------------------------------------------

def test_swallowing_morphism_matches_hand_computation():
    ds, host, tau = _welding_fixture()
    g = glue(tau)
    m = disk_model(4).rebind(host)
    b1, b3, b5 = m.beta_plus
    # the three dividing curves in terms of the disk basis
    g1 = chain_scale(chain_add(b3, b5), -1)
    g2 = dict(b3)
    g3 = chain_scale(b1, -1)
    hb = HomologyBasis(RelativeH1(host, host.marks["alpha_plus"]), RING_Z,
                       cycles=[g1, g2, g3])

    def push(c):
        return pushforward_class(g, c)

    rel_mid = sorted({g.vertex_map[v] for v in host.marks["alpha_plus"]})
    assert rel_mid == [1, 5, 13]
    h1_mid = RelativeH1(g.result, rel_mid)
    # boundary-evaluation of the swallowed vertex, on either pushed basis
    mid_beta = HomologyBasis(h1_mid, RING_Z, cycles=[push(b1), push(b3), push(b5)])
    assert mid_beta.vertex_functional(1) == [-1, 1, -1]
    mid_gamma = HomologyBasis(h1_mid, RING_Z, cycles=[push(g1), push(g2), push(g3)])
    assert mid_gamma.vertex_functional(1) == [0, 1, 1]

    closed = chain_add(g2, g3, -1)  # b1 + b3: the re-welded boundary circle
    rb = HomologyBasis(RelativeH1(g.result, sorted(g.result.marks["alpha_plus"])),
                       RING_Z, cycles=[push(g1), push(closed)])
    got = gluing_morphism(g, Multivector.top(3, RING_Z),
                          host_basis=hb, result_basis=rb)
    assert got == Multivector.top(2, RING_Z)


def test_respect_on_the_swallowing_example():
    ds, _, tau = _welding_fixture()
    g = glue(tau)
    assert check_respect(g, ds, ring=RING_F2)
    assert check_respect(g, ds, ring=RING_Z)


def test_interior_image_spans_the_sub_algebra():
    # rank comparison: iota_eta over a basis of the big algebra against the
    # wedges of the sub-basis of classes with boundary in the new sutures
    _, _, tau = _welding_fixture()
    g = glue(tau)
    mid = glued_relative_basis(g, RING_F2)
    eta_mv = _oracle_eta(g, mid)
    a_rows = []
    for mask in range(1 << mid.rank):
        y = interior(eta_mv, Multivector(mid.rank, {mask: 1}, RING_F2))
        a_rows.append(sum((c & 1) << t for t, c in y.terms.items()))
    tb = default_basis(g.result, RING_F2)
    j = induced_matrix(tb, mid)
    cols = [Multivector.vector(mid.rank, [j[i][k] for i in range(mid.rank)], RING_F2)
            for k in range(tb.rank)]
    b_rows = []
    for mask in range(1 << tb.rank):
        acc = Multivector.unit(mid.rank, RING_F2)
        for idx in range(tb.rank):
            if mask >> idx & 1:
                acc = acc.wedge(cols[idx])
        b_rows.append(sum((c & 1) << t for t, c in acc.terms.items()))
    assert f2_row_space(a_rows) == f2_row_space(b_rows)


# -- the split-basis morphism against the middle-homology oracle ----------
#
# The morphism as first written: push into a generic basis of the middle
# homology H_1(S', A ∪ B), contract with the wedge of the swallowed
# vertices' boundary functionals, and solve Lambda(J) x = y for the result
# basis J inside it, by a left inverse or by the C(L,k)-sized exterior
# solve.

def _oracle_eta(g, mid):
    """The orientation of a gluing over a basis of the middle homology:
    the wedge, by increasing id, of the functionals "coefficient of v in
    the boundary of a relative cycle" of the swallowed vertices v."""
    acc = Multivector.unit(mid.rank, mid.ring, dual=True)
    for v in g.swallowed:
        row = mid.vertex_functional(v)
        acc = acc.wedge(Multivector.vector(mid.rank, row, mid.ring, dual=True))
    return acc


def _express_by_left_inverse(j, y, src_rank, ring):
    """Solve Lambda(J) x = y as x = Lambda(Q) y for a left inverse Q of the
    column matrix J of a sub-basis, and check that Lambda(J) x = y."""
    if ring == RING_F2:
        q_rows = f2_left_inverse([sum((v & 1) << c for c, v in enumerate(row)) for row in j],
                                 src_rank)
        q = None if q_rows is None else [[(r >> i) & 1 for i in range(y.rank)]
                                         for r in q_rows]
    else:
        q = left_inverse_z(j)
    if q is None:
        raise InternalConsistencyError("glued sub-basis is not a direct summand")
    x = induced_map(q, y, target_rank=src_rank)
    if induced_map(j, x, target_rank=y.rank) != y:
        raise InternalConsistencyError(
            "interior product left the image of the glued sub-basis")
    return x


def _express_by_exterior_solve(j, y, src_rank, ring):
    """Solve Lambda(J) x = y where J is the column matrix of a sub-basis."""
    nrows = len(j)
    cols = [Multivector.vector(nrows, [j[i][k] for i in range(nrows)], ring)
            for k in range(src_rank)]
    out_terms = {}
    for k in sorted({m.bit_count() for m in y.terms}):
        src_masks = [m for m in range(1 << src_rank) if m.bit_count() == k]
        wedges = []
        for mask in src_masks:
            acc = Multivector.unit(nrows, ring)
            for idx in indices_of(mask):
                acc = acc.wedge(cols[idx])
                if acc.is_zero():
                    break
            wedges.append(acc)
        tgt_masks = [m for m in range(1 << nrows) if m.bit_count() == k]
        if ring == RING_F2:
            rows = [sum(((w.terms.get(t, 0) & 1) << c) for c, w in enumerate(wedges))
                    for t in tgt_masks]
            b = [y.terms.get(t, 0) & 1 for t in tgt_masks]
            sol = f2_solve(rows, b, len(src_masks))
        else:
            a = [[w.terms.get(t, 0) for w in wedges] for t in tgt_masks]
            b = [y.terms.get(t, 0) for t in tgt_masks]
            sol = solve_z(a, b)
        if sol is None:
            raise InternalConsistencyError(
                "interior product left the image of the glued sub-basis")
        for mask, c in zip(src_masks, sol):
            if c:
                out_terms[mask] = c
    return Multivector(src_rank, out_terms, ring)


class _Oracle:
    """The middle pipeline of one gluing between given host and result
    bases: the host -> middle matrix, eta, and J, built once."""

    def __init__(self, g, hb, tb):
        ring = hb.ring
        mid = glued_relative_basis(g, ring)
        self.m = induced_matrix(hb, mid, push=lambda c: pushforward_class(g, c))
        self.eta = _oracle_eta(g, mid)
        if g.swallowed and self.eta.is_zero():
            raise InternalConsistencyError("orientation functionals are dependent")
        self.j = induced_matrix(tb, mid)
        self.mid_rank, self.tb_rank, self.ring = mid.rank, tb.rank, ring

    def contract(self, x):
        return interior(self.eta, induced_map(self.m, x, target_rank=self.mid_rank))

    def morphism(self, x, exterior_solve=False):
        """The morphism by the left inverse; with exterior_solve, also by
        the exterior solve, which must agree."""
        y = self.contract(x)
        out = _express_by_left_inverse(self.j, y, self.tb_rank, self.ring)
        if exterior_solve:
            assert _express_by_exterior_solve(self.j, y, self.tb_rank, self.ring) == out
        return out


def _swallowing_site(n, a, b):
    """Four-halfedge arcs of standard_disk(n) that start at the alpha_minus
    vertices 4a+3 and 4b+3; welding them swallows one positive suture
    whenever 2 <= (b - a) mod n <= n - 2."""
    m = 4 * n
    p, q = 4 * a + 3, 4 * b + 3
    return (tuple(2 * ((p + i) % m) for i in range(4)),
            tuple(2 * ((q + 3 - i) % m) for i in range(4)))


def _scrambled_basis(rng, basis):
    """Another basis of the same homology, by elementary moves on the
    cycles; over F2 one cycle is tripled, which keeps an F2 basis that is
    not an integral one."""
    cycles = [dict(c) for c in basis.cycles]
    for _ in range(basis.rank if basis.rank > 1 else 0):
        k, i = rng.sample(range(basis.rank), 2)
        cycles[k] = chain_add(cycles[k], cycles[i], rng.choice((-1, 1)))
    if basis.ring == RING_F2 and cycles:
        cycles[0] = chain_scale(cycles[0], 3)
    return HomologyBasis(basis.h1, basis.ring, cycles=cycles)


def _bases(g, ring, rng=None):
    """Default host and result bases; with rng, both scrambled."""
    hb = default_basis(g.gluing.host, ring)
    tb = default_basis(g.result, ring)
    if rng is not None:
        hb, tb = _scrambled_basis(rng, hb), _scrambled_basis(rng, tb)
    return hb, tb


def _degree_sets(rank):
    """Every degree at once, then each degree alone."""
    return [range(rank + 1)] + [[d] for d in range(rank + 1)]


def _random_element(rng, rank, ring, degrees, coeffs=(-3, -2, -1, 1, 2, 3)):
    terms = {}
    for d in degrees:
        for _ in range(2):
            mask = sum(1 << i for i in rng.sample(range(rank), d))
            terms[mask] = rng.choice(coeffs)
    return Multivector(rank, terms, ring)


def _compare_morphisms(g, ring, xs, rng=None, exterior_solve=True):
    """The split-basis morphism equals the oracle on every host element in
    xs; the oracle's two solves agree and invert Lambda(J) on the
    contracted image."""
    hb, tb = _bases(g, ring, rng)
    oracle = _Oracle(g, hb, tb)
    for x in xs:
        want = oracle.morphism(x, exterior_solve)
        assert induced_map(oracle.j, want, target_rank=oracle.mid_rank) == oracle.contract(x)
        assert _morphism(g, x, hb.cycles, tb) == want
        assert gluing_morphism(g, x, host_basis=hb, result_basis=tb) == want
    return oracle


@pytest.mark.parametrize("scramble", [False, True])
@pytest.mark.parametrize("ring", [RING_Z, RING_F2])
def test_left_inverse_solve_matches_exterior_solve(ring, scramble):
    rng = random.Random(20260823)
    for n in range(4, 13):  # host rank L = n - 1 = 3..11
        g = glue(Gluing(standard_disk(n), *_swallowing_site(n, 0, n // 2)))
        assert len(g.swallowed) == 1
        L = n - 1
        # the exterior solve is C(L,k)-sized; beyond L = 9 only the left inverse
        small = L <= 9
        xs = [_random_element(rng, L, ring, ds) for ds in _degree_sets(L)]
        oracle = _compare_morphisms(g, ring, xs, rng if scramble else None, small)
        j, mid_rank, tb_rank = oracle.j, oracle.mid_rank, oracle.tb_rank
        for ds in _degree_sets(tb_rank) if small else ():
            x0 = _random_element(rng, tb_rank, ring, ds)
            y0 = induced_map(j, x0, target_rank=mid_rank)
            assert _express_by_left_inverse(j, y0, tb_rank, ring) == x0
            assert _express_by_exterior_solve(j, y0, tb_rank, ring) == x0


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_left_inverse_solve_matches_exterior_solve_drawn(data):
    n = data.draw(st.integers(4, 8), label="n")
    a = data.draw(st.integers(0, n - 1), label="a")
    b = (a + data.draw(st.integers(2, n - 2), label="offset")) % n
    ring = data.draw(st.sampled_from([RING_Z, RING_F2]), label="ring")
    terms = data.draw(st.dictionaries(st.integers(0, (1 << (n - 1)) - 1),
                                      st.integers(-3, 3), max_size=8), label="x")
    seed = data.draw(st.integers(0, 2**32 - 1), label="basis seed")
    g = glue(Gluing(standard_disk(n), *_swallowing_site(n, a, b)))
    _compare_morphisms(g, ring, [Multivector(n - 1, terms, ring)], random.Random(seed))


def test_left_inverse_solve_matches_exterior_solve_on_axiom_corpus(monkeypatch):
    # every morphism the axiom suite computes over its 200-gluing corpus,
    # on the region classes of K, and per call one more: a random element
    # with coefficients in {-2, -1, 1, 3} between scrambled host and
    # result bases
    morphism = gluing_module._morphism
    rng = random.Random(20261018)
    calls, mismatches = [], []

    def checked(g, x, chains, tb):
        out = morphism(g, x, chains, tb)
        calls.append((x.rank, len(g.swallowed)))
        region = SimpleNamespace(cycles=chains, ring=tb.ring)
        if out != _Oracle(g, region, tb).morphism(x, exterior_solve=True):
            mismatches.append((g.gluing, x))
        shb = _scrambled_basis(rng, default_basis(g.gluing.host, tb.ring))
        stb = _scrambled_basis(rng, tb)
        x2 = _random_element(rng, shb.rank, x.ring, range(shb.rank + 1), (-2, -1, 1, 3))
        if morphism(g, x2, shb.cycles, stb) != _Oracle(g, shb, stb).morphism(x2):
            mismatches.append((g.gluing, x2))
        return out

    monkeypatch.setattr(gluing_module, "_morphism", checked)
    assert all(r.verdict for r in run_axiom_suite())
    assert len(calls) > 400 and max(rank for rank, _ in calls) >= 4
    assert sum(1 for _, k in calls if k) > 80
    assert mismatches == []


def _unshared_respect_sides(g, ds, ring):
    """Both sides of the respect check with every default basis built on
    its own, as before the bases were shared."""
    lhs = gluing_morphism(g, contact_element(ds, ring=ring).value)
    rhs = contact_element(push_dividing_set(g, ds), ring=ring).value
    return lhs, rhs


def test_shared_bases_match_unshared_on_axiom_corpus(monkeypatch):
    # every respect check the axiom suite makes over its 200-gluing corpus:
    # one set of ring-free parts per gluing serves the F2 and the Z check
    build, respects = axioms_module._respect_parts, axioms_module._respects
    current = {}
    checks = []

    def built(g, ds, host_regions):
        current.update(parts=build(g, ds, host_regions), ds=ds,
                       n=current.get("n", -1) + 1)
        return current["parts"]

    def checked(parts, ring, result_basis):
        assert parts is current["parts"]
        g, ds = parts[0], current["ds"]
        host_basis = default_basis(g.gluing.host, ring)
        assert result_basis.cycles == default_basis(g.result, ring).cycles
        verdict = respects(parts, ring, result_basis)
        lhs, rhs = _unshared_respect_sides(g, ds, ring)
        x = contact_element(ds, ring=ring, basis=host_basis).value
        assert gluing_morphism(g, x, host_basis=host_basis,
                               result_basis=result_basis) == lhs
        pushed = push_dividing_set(g, ds)
        assert contact_element(pushed, ring=ring, basis=result_basis).value == rhs
        # the two sides as the shared parts give them, and the oracle's side
        _, source, target = parts
        shared_x = _wedge_region(*source, host_basis, ring).value
        assert shared_x == x
        assert _morphism(g, shared_x, host_basis.cycles, result_basis) == lhs
        assert _Oracle(g, host_basis, result_basis).morphism(shared_x) == lhs
        assert _wedge_region(*target, result_basis, ring).value == rhs
        assert verdict == (lhs == rhs or (ring == RING_Z and lhs == rhs.scale(-1)))
        checks.append((current["n"], ring))
        return verdict

    monkeypatch.setattr(axioms_module, "_respect_parts", built)
    monkeypatch.setattr(axioms_module, "_respects", checked)
    assert all(r.verdict for r in run_axiom_suite())
    rings = [ring for _, ring in checks]
    assert rings.count(RING_F2) == rings.count(RING_Z) > 200
    assert checks == [(n, ring) for n in range(len(checks) // 2)
                      for ring in (RING_F2, RING_Z)]


# -- the factored lhs: region classes pushed, no host basis ---------------
#
# c(K) is the wedge of the region classes v_i of K (or 0 off grade), so the
# respect check runs the morphism on the top class of the exterior algebra
# on those classes.  The oracle is the expanded lhs: c(K) in the host's
# default basis, pushed through the gluing.  The lhs the check computes is
# read off `_morphism`, so it must match exactly, not only up to sign.

def _region_classes(hr, grade, ring):
    """The respect check's input: x and the region cycles it lives on."""
    x = (Multivector.top if grade == hr.rank else Multivector.zero)(hr.rank, ring)
    return x, [hr.representative(i) for i in range(hr.rank)]


def _expanded_respect(g, ds, ring):
    """(lhs, verdict) of the respect check through the host basis."""
    lhs, rhs = _unshared_respect_sides(g, ds, ring)
    return lhs, lhs == rhs or (ring == RING_Z and lhs == rhs.scale(-1))


@pytest.fixture
def pushed_lhs(monkeypatch):
    """Every output of `_morphism`, in call order."""
    seen = []

    def recorded(*args):
        seen.append(_morphism(*args))
        return seen[-1]

    monkeypatch.setattr(gluing_module, "_morphism", recorded)
    return seen


def _assert_factored_lhs(g, ds, pushed_lhs):
    """The respect check's lhs equals the expanded one exactly, and the
    verdicts agree, in both rings; returns the F2 lhs."""
    for ring in (RING_Z, RING_F2):
        lhs, verdict = _expanded_respect(g, ds, ring)
        pushed_lhs.clear()
        assert check_respect(g, ds, ring=ring) == verdict
        assert pushed_lhs == [lhs]
    return lhs


@pytest.mark.parametrize("seed", [None, 7])
def test_factored_lhs_matches_expanded_on_axiom_corpus(monkeypatch, pushed_lhs, seed):
    build, respects = axioms_module._respect_parts, axioms_module._respects
    current = {}
    swallowing = []

    def built(g, ds, host_regions):
        current.update(parts=build(g, ds, host_regions), ds=ds)
        return current["parts"]

    def checked(parts, ring, result_basis):
        g = parts[0]
        lhs, verdict = _expanded_respect(g, current["ds"], ring)
        pushed_lhs.clear()
        assert respects(parts, ring, result_basis) == verdict
        assert pushed_lhs == [lhs]
        swallowing.append(bool(g.swallowed))
        return verdict

    monkeypatch.setattr(axioms_module, "_respect_parts", built)
    monkeypatch.setattr(axioms_module, "_respects", checked)
    assert all(r.verdict for r in run_axiom_suite(**({} if seed is None else {"seed": seed})))
    assert len(swallowing) > 400 and sum(swallowing) >= 80


def test_factored_lhs_matches_expanded_on_self_glued_disks(pushed_lhs):
    rng = random.Random(20261019)
    nonzero = 0
    for n in range(9, 14):
        found = 0
        while found < 2:
            ds = chord_to_dividing_set(_random_diagram(rng, n))
            sites = axioms_module._suture_corner_sites(ds.surface, sutures=2)
            g = glue(Gluing(ds.surface, *rng.choice(sites))) if sites else None
            if g is None or not g.swallowed:
                continue
            nonzero += not _assert_factored_lhs(g, ds, pushed_lhs).is_zero()
            found += 1
    assert nonzero >= 5


def test_factored_lhs_matches_expanded_off_grade(pushed_lhs):
    # a trivial circle can isolate a region: then L(K) differs from the
    # rank of H_1(R+, a+), x is 0 and so is the expanded lhs
    off_grade = 0
    for n in (3, 4):
        for cd in enumerate_chord_diagrams(n)[::3]:
            base = chord_to_dividing_set(cd)
            for fid in range(len(base.surface.faces)):
                ds, _ = add_trivial_circle(base, fid)
                hr, grade = _region(ds, "plus")
                if grade == hr.rank:
                    continue
                for sutures in (1, 2):
                    for site in axioms_module._suture_corner_sites(ds.surface, sutures)[:2]:
                        g = glue(Gluing(ds.surface, *site))
                        assert _assert_factored_lhs(g, ds, pushed_lhs).is_zero()
                        off_grade += 1
    assert off_grade >= 60


@pytest.mark.parametrize("ring", [RING_Z, RING_F2])
def test_factored_lhs_sees_a_mutated_region_class(ring):
    # adding a host class outside the span of the region classes to one
    # of them changes the pushed wedge, and the check must then fail; the
    # first drawn swallowing self-gluing of a 6-chord disk whose regions
    # span less than the host and whose lhs is nonzero
    rng = random.Random(6)
    while True:
        ds = chord_to_dividing_set(_random_diagram(rng, 6))
        sites = axioms_module._suture_corner_sites(ds.surface, sutures=2)
        g = glue(Gluing(ds.surface, *rng.choice(sites))) if sites else None
        if g is None or not g.swallowed:
            continue
        _, (hr, grade), target = _respect_parts(g, ds, {})
        tb = default_basis(g.result, ring)
        x, reps = _region_classes(hr, grade, ring)
        lhs = _morphism(g, x, reps, tb)
        hb = default_basis(ds.surface, ring)
        if hr.rank < hb.rank and not lhs.is_zero():
            break
    rhs = _wedge_region(*target, tb, ring).value
    assert equal_up_to_sign(lhs, rhs)
    span = [hb.express(r) for r in reps]

    def rank(rows):
        if ring == RING_F2:
            return f2_rank([sum((v & 1) << i for i, v in enumerate(row)) for row in rows])
        return rank_q(rows)

    mutated = 0
    for c in hb.cycles:
        if rank(span + [hb.express(c)]) == len(reps):
            continue
        bad = _morphism(g, x, [chain_add(reps[0], c)] + reps[1:], tb)
        if bad != lhs:
            assert not equal_up_to_sign(bad, rhs)
            mutated += 1
    assert mutated > 0


def test_respect_builds_each_default_basis_once(monkeypatch):
    ds, host, tau = _welding_fixture()
    g = glue(tau)
    new_h1 = RelativeH1.__init__
    built, passed = [], []

    def counting_init(self, *args, **kwargs):
        built.append(self)
        new_h1(self, *args, **kwargs)

    def spy(fn, *positions):
        def wrapper(*args):
            passed.append([args[i] for i in positions])
            return fn(*args)
        return wrapper

    def no_surface(*args, **kwargs):
        raise AssertionError("the respect check built a Surface")

    _, reps = _region_classes(*_region(ds, "plus"), RING_Z)
    # the regions span their faces on the host and on the quotient
    spans = [(host, tuple(sorted(regions(ds).faces_plus))),
             (g.result, tuple(sorted(regions(push_dividing_set(g, ds)).faces_plus))),
             (g.result, tuple(range(len(g.result.faces))))]
    monkeypatch.setattr(RelativeH1, "__init__", counting_init)
    # the check builds no Surface at all, so no subsurface either
    monkeypatch.setattr(Surface, "__init__", no_surface)
    # the morphism pushes the region classes of K into the result basis,
    # in which c(K_tau) is wedged; the host gets no basis
    monkeypatch.setattr(gluing_module, "default_basis", spy(default_basis, 0))
    monkeypatch.setattr(gluing_module, "_wedge_region", spy(_wedge_region, 2))
    monkeypatch.setattr(gluing_module, "_morphism", spy(_morphism, 2, 3))
    for ring in (RING_F2, RING_Z):
        built.clear()
        passed.clear()
        assert check_respect(g, ds, ring=ring)
        # the two regions and the result basis; no host or middle homology
        assert [(h1.surface, tuple(h1.faces)) for h1 in built] == spans
        assert len(spans[0][1]) < len(host.faces)
        [[result], [chains, mrb], [rb]] = passed
        assert result is g.result and rb is mrb and rb.ring == ring
        assert chains == reps
        assert rb.cycles == default_basis(g.result, ring).cycles


def test_respect_checks_the_dividing_set_surface_first(monkeypatch):
    g = glue(Gluing(standard_disk(4), *_swallowing_site(4, 0, 2)))
    ds = chord_to_dividing_set(ChordDiagram.parse("1-2,3-4"))

    def too_early(*args, **kwargs):
        raise AssertionError("work done before the surface check")

    for name in ("_region", "_wedge_region", "default_basis", "_morphism"):
        monkeypatch.setattr(gluing_module, name, too_early)
    for ring in (RING_Z, RING_F2):
        with pytest.raises(ValidationError, match="different surface"):
            check_respect(g, ds, ring=ring)


def test_off_image_input_is_an_internal_error(monkeypatch):
    # the projection's check: a contraction that leaves a swallowed
    # vertex's generator in a term is an internal error, not truncated away
    g = glue(Gluing(standard_disk(4), *_swallowing_site(4, 0, 2)))
    hb, tb = _bases(g, RING_Z)
    oracle = _Oracle(g, hb, tb)
    xs = [Multivector.basis_vector(hb.rank, i, RING_Z) for i in range(hb.rank)]
    for x in xs:
        assert _morphism(g, x, hb.cycles, tb) == oracle.morphism(x)
    # without the contraction, a host generator whose pushed cycle has
    # boundary at the swallowed vertex keeps its q_b coordinate
    monkeypatch.setattr(gluing_module, "interior", lambda eta, y: y)
    (v,) = g.swallowed
    raised = 0
    for x, c in zip(xs, hb.cycles):
        if chain_boundary(g.result, pushforward_class(g, c)).get(v, 0):
            with pytest.raises(InternalConsistencyError, match="left the image"):
                _morphism(g, x, hb.cycles, tb)
            raised += 1
    assert raised > 0


def test_gluing_morphism_rejects_bases_of_other_homologies():
    s = standard_disk(4)
    one = glue(Gluing(s, (2, 4), (16, 14)))
    assert not one.swallowed
    x = Multivector.top(3, RING_Z)
    # the result's basis has the host's rank, but another surface
    foreign = default_basis(one.result, RING_Z)
    assert foreign.rank == 3
    with pytest.raises(ValidationError, match="host basis lives on a different surface"):
        gluing_morphism(one, x, host_basis=foreign)
    with pytest.raises(ValidationError, match="result basis lives on a different surface"):
        gluing_morphism(one, x, result_basis=default_basis(s, RING_Z))
    # H_1 of the quotient rel every old positive suture, swallowed ones
    # included, is not H_1 of the quotient rel its own positive sutures
    g = glue(Gluing(s, *_swallowing_site(4, 0, 2)))
    for ring in (RING_Z, RING_F2):
        with pytest.raises(ValidationError, match="result basis is not relative"):
            gluing_morphism(g, Multivector.top(3, ring),
                            result_basis=glued_relative_basis(g, ring))
        h1 = RelativeH1(s, s.marks["alpha_minus"])
        with pytest.raises(ValidationError, match="host basis is not relative"):
            gluing_morphism(g, Multivector.top(h1.rank, ring),
                            host_basis=HomologyBasis(h1, ring))
    with pytest.raises(ValidationError, match="host basis is over"):
        gluing_morphism(g, x, host_basis=default_basis(s, RING_F2))
    with pytest.raises(ValidationError, match="result basis is over"):
        gluing_morphism(g, x, result_basis=default_basis(g.result, RING_F2))
    # H_1(R+, a+) lives on the host and is relative to all of its positive
    # sutures, but spans only the positive faces
    ds, host, tau = _welding_fixture()
    hr, _ = _region(ds, "plus")
    assert hr.surface is host and hr.rel == host.marks["alpha_plus"]
    with pytest.raises(ValidationError, match="host basis spans only part"):
        gluing_morphism(glue(tau), Multivector.top(hr.rank, RING_Z),
                        host_basis=HomologyBasis(hr, RING_Z))


@pytest.mark.parametrize("ring", [RING_F2, RING_Z])
def test_disk_rotation_commutes_with_swallowing_gluings(ring):
    # rotating standard_disk(n) by one suture period carries each site to
    # another, and the two morphisms agree up to the rotation of the result
    sites = [(4, 0, 2), (5, 0, 2), (5, 1, 3), (6, 0, 3)]
    for n, a, b in sites:
        s = standard_disk(n)
        tau = Gluing(s, *_swallowing_site(n, a, b))
        assert glue(tau).swallowed
        vmap = {v: (v + 4) % (4 * n) for v in s.vertices}
        r = check_relabel_invariance(s, vmap, gluings=(tau,), ring=ring)
        assert r.verdict, (n, a, b)


def test_respect_at_rank_fourteen():
    # the exterior solve would face a C(14,6) x C(13,6) system here
    cd = ChordDiagram.parse("1-30,2-23,3-22,4-5,6-21,7-8,9-20,10-19,11-12,"
                            "13-14,15-18,16-17,24-29,25-28,26-27")
    ds = chord_to_dividing_set(cd)
    g = glue(Gluing(ds.surface, *_swallowing_site(15, 0, 7)))
    assert g.swallowed and default_basis(ds.surface, RING_Z).rank == 14
    assert len(contact_element(ds, ring=RING_Z).value.terms) == 24
    assert check_respect(g, ds, ring=RING_Z)
    assert check_respect(g, ds, ring=RING_F2)


def test_simple_gluing_is_invertible():
    # one arc containing a single suture on each side
    s = standard_disk(3)
    g = glue(Gluing(s, (2, 4), (16, 14)))
    assert g.swallowed == ()
    assert g.result.euler_characteristic() == 0
    assert len(g.result.boundary_circles()) == 2

    def push(c):
        return pushforward_class(g, c)

    mat = induced_matrix(default_basis(s, RING_Z), default_basis(g.result, RING_Z),
                         push=push)
    assert invert_unimodular(mat) is not None
    mat2 = induced_matrix(default_basis(s, RING_F2),
                          default_basis(g.result, RING_F2), push=push)
    rows = [sum((mat2[i][j] & 1) << j for j in range(len(mat2[0])))
            for i in range(len(mat2))]
    assert f2_rank(rows) == len(mat2)


def test_disjoint_gluings_commute_up_to_sign():
    s = standard_disk(5)
    site_a = ((2, 4), (16, 14))
    site_b = ((22, 24), (36, 34))
    ga = glue(Gluing(s, *site_a))
    gb_after = glue(Gluing(ga.result, *site_b))
    gb = glue(Gluing(s, *site_b))
    ga_after = glue(Gluing(gb.result, *site_a))
    both = glue(Gluing(s, site_a[0] + site_b[0], site_a[1] + site_b[1]))
    assert _same_surface(gb_after.result, ga_after.result)
    assert _same_surface(both.result, gb_after.result)
    rank = default_basis(s, RING_Z).rank
    seq, direct = [], []
    for i in range(rank):
        x = Multivector.basis_vector(rank, i, RING_Z)
        seq.append(gluing_morphism(gb_after, gluing_morphism(ga, x)))
        direct.append(gluing_morphism(both, x))
    assert (all(y == d for y, d in zip(seq, direct))
            or all(y == d.scale(-1) for y, d in zip(seq, direct)))


def test_respect_on_randomized_disk_self_gluings():
    rng = random.Random(20260823)
    checked = 0
    for n in (3, 4, 5):
        m = 4 * n
        plain = standard_disk(n)
        sites = []
        for p in range(1, m, 2):
            for q in range(1, m, 2):
                gamma = (2 * p, 2 * ((p + 1) % m))
                gamma_prime = (2 * ((q + 1) % m), 2 * q)
                if not gluing_violations(plain, gamma, gamma_prime):
                    sites.append((gamma, gamma_prime))
        diagrams = enumerate_chord_diagrams(n)
        for _ in range(4):
            ds = chord_to_dividing_set(rng.choice(diagrams))
            gamma, gamma_prime = rng.choice(sites)
            g = glue(Gluing(ds.surface, gamma, gamma_prime))
            assert check_respect(g, ds, ring=RING_F2)
            if checked % 3 == 0:
                assert check_respect(g, ds, ring=RING_Z)
            checked += 1
    assert checked == 12


# -- cutting --------------------------------------------------------------

def test_cut_open_round_trips_the_annulus():
    s = annulus_surface()
    mid_s, hs = _realize_arc(s, 1, 5)
    cut_s = cut_open(mid_s, hs)
    # a disk with one extra suture pair on the new seam
    assert cut_s.euler_characteristic() == 1
    assert len(cut_s.boundary_circles()) == 1
    assert cut_s.n_of_f() == 3
    assert cut_s.genus() == 0
    back = glue(Gluing(cut_s, hs, [mid_s.twin[h] for h in hs]))
    assert _same_surface(back.result, mid_s)
    assert back.swallowed == ()


def test_cut_open_rejects_bad_arcs():
    s = annulus_surface()
    with pytest.raises(InvalidGluingError, match="subdivide"):
        cut_open(s, (16,))
    with pytest.raises(InvalidGluingError, match="not interior"):
        cut_open(s, (0, 2))
    ref, q = subdivide_edge(s, 16)
    s3 = ref.surface
    second = [x for x in s3.twin if s3.tail(x) == q and s3.head[x] == 0]
    with pytest.raises(InvalidGluingError, match="suture vertex"):
        cut_open(s3, (16, second[0]))


# -- quadrangulation ------------------------------------------------------

def test_quadrangulate_square_is_trivial():
    s = standard_disk(2)
    dec = quadrangulate(s)
    assert dec.cuts == ()
    assert dec.reverse.gamma == ()
    assert _same_surface(dec.pieces, s)
    assert _same_surface(dec.refined, s)


def test_quadrangulate_carries_one_suture_disks_atomically():
    s = standard_disk(1)
    dec = quadrangulate(s)
    assert dec.cuts == ()
    assert _same_surface(dec.pieces, s)


def test_quadrangulate_reports_a_singular_reweld(monkeypatch):
    def singular(c):
        raise InternalConsistencyError("matrix is not unimodular")

    monkeypatch.setattr(homology_module, "invert_unimodular", singular)
    with pytest.raises(InternalConsistencyError,
                       match="re-welding morphism is not invertible"):
        quadrangulate(standard_disk(3))


def test_quadrangulate_piece_counts():
    for build, expected in ((lambda: standard_disk(3), 2),
                            (lambda: standard_disk(5), 4),
                            (annulus_surface, 2),
                            (one_holed_torus, 2)):
        s = build()
        dec = quadrangulate(s)
        pieces = dec.pieces
        comps = pieces.components()
        assert len(comps) == expected
        assert pieces.genus() == 0
        assert len(pieces.boundary_circles()) == len(comps)
        for comp in comps:
            assert sum(1 for v in comp if v in pieces.marks["F_plus"]) == 2
        # each cut adds one suture and one to chi, so n(F) - chi is preserved
        assert (pieces.n_of_f() - pieces.euler_characteristic()
                == s.n_of_f() - s.euler_characteristic())


def test_quadrangulate_reglue_is_exact():
    for build in (lambda: standard_disk(3), annulus_surface, one_holed_torus):
        s = build()
        dec = quadrangulate(s)
        back = glue(dec.reverse)
        assert _same_surface(back.result, dec.refined)
        assert back.swallowed == ()
        assert dec.refined.marks == s.marks


def _pushed_square_family(s):
    """The square family of s, each member built on the pieces and pushed
    through the re-weld: the oracle for building members in place."""
    pieces, reverse, options = square_chord_family(quadrangulate(s))
    data = glue(reverse)
    out = []
    for combo in itertools.product(*[range(len(o)) for o in options]):
        k_edges = set()
        for opts, pick in zip(options, combo):
            for path in opts[pick]:
                k_edges |= {pieces.canonical(h) for h in path}
        out.append(push_dividing_set(data, DividingSet(pieces, sorted(k_edges))))
    return out


def test_reglued_square_dividing_sets_form_a_contact_basis():
    for build in (annulus_surface, lambda: standard_disk(3)):
        family = _pushed_square_family(build())
        rows = []
        for pushed in family:
            c = contact_element(pushed, ring=RING_F2).value
            rows.append(sum((v & 1) << t for t, v in c.terms.items()))
        assert len(rows) == 1 << default_basis(family[0].surface, RING_F2).rank
        assert f2_rank(rows) == len(rows)


def _face_scan_queries(s):
    """Chord candidates of every vertex pair and co-facial neighbours of
    every vertex, from one scan over every face walk: the oracle for the
    queries read from the fans."""
    candidates, neighbors = {}, {}
    for fi, walk in enumerate(s.faces):
        tails = [s.tail(h) for h in walk]
        for i, u in enumerate(tails):
            neighbors.setdefault(u, set()).update(tails)
            for j, w in enumerate(tails):
                if w != u:
                    candidates.setdefault((u, w), []).append((fi, i, j))
    return candidates, {u: sorted(vs - {u}) for u, vs in neighbors.items()}


def _per_component_genus(s):
    """Genus recounted component by component: the oracle for `genus()`."""
    circles = s.boundary_circles()
    total = 0
    for comp in s.components():
        b = sum(1 for c in circles if s.tail(c[0]) in comp)
        edge_count = sum(1 for e in s.edges() if s.head[e] in comp)
        face_count = sum(1 for w in s.faces if s.head[w[0]] in comp)
        total += (2 - (len(comp) - edge_count + face_count) - b) // 2
    return total


def _quadrangulation_hosts():
    hosts = [standard_disk(n) for n in range(2, 6)]
    hosts += [annulus_model().surface, one_holed_torus(),
              disjoint_union(standard_disk(2), standard_disk(3))[0]]
    rng = random.Random(1209)
    hosts += [random_sutured_surface(rng) for _ in range(20)]
    return hosts


def test_square_family_members_equal_their_pushed_sets(monkeypatch):
    # the basis check builds each member in place on the re-welded
    # surface; the one-suture gate is lifted so that every host counts
    built = record_dividing_sets(monkeypatch)
    monkeypatch.setattr(axioms_module, "_one_suture_disk_components", lambda s: False)
    hosts = _quadrangulation_hosts()
    members = []
    for s in hosts:
        check_basis_of_contact_elements(s)
        members.append([ds for ds, _, _ in built])
        built.clear()
    monkeypatch.undo()
    assert len(hosts) == 27
    for s, got in zip(hosts, members):
        want = _pushed_square_family(s)
        assert len(got) == len(want)
        for ds, pushed in zip(got, want):
            assert _same_surface(ds.surface, pushed.surface)
            assert ds.k_halfedges == pushed.k_halfedges
            assert ds.face_signs == pushed.face_signs


def test_square_family_check_builds_one_dividing_set_per_member(monkeypatch):
    # 2^L builds per check, where pushing each member doubled them; each
    # member's K and coloring match the construction the constructor replaced
    built = record_dividing_sets(monkeypatch)
    hosts = [standard_disk(n) for n in range(2, 8)]
    hosts += [annulus_model().surface, one_holed_torus(),
              disjoint_union(standard_disk(2), standard_disk(3))[0]]
    for s in hosts:
        assert check_basis_of_contact_elements(s).verdict
        assert len(built) == 1 << default_basis(s, RING_F2).rank
        for ds, surface, k_edges in built:
            assert (ds.k_halfedges, ds.face_signs) == oracle_dividing_set(surface, k_edges)
        built.clear()


def test_fan_queries_match_face_scans_on_quadrangulated_surfaces(monkeypatch):
    real = {name: getattr(gluing_module, name)
            for name in ("_chord_candidates", "_cofacial_neighbors")}
    visited, drafts = {}, []

    def spy(fn):
        def wrapped(s, *args):
            got = fn(s, *args)
            if isinstance(s, _Draft):
                # a draft answers from the indices it keeps up to date: the
                # same as a surface built from scratch on its current cells
                drafts.append(s)  # held, so that no later draft reuses its id
                key = (id(s), len(s.twin))
                if key not in visited:
                    visited[key] = Surface(s.twin, s.head, s.faces, s.marks)
                assert fn(visited[key], *args) == got
            else:
                visited[id(s), len(s.twin)] = s
            return got
        return wrapped

    for name, fn in real.items():
        monkeypatch.setattr(gluing_module, name, spy(fn))
    for s in _quadrangulation_hosts():
        dec = quadrangulate(s)
        square_chord_family(dec)
        visited[id(dec.pieces)] = dec.pieces
    assert len(visited) > 100
    for s in visited.values():
        assert s.genus() == _per_component_genus(s)
        candidates, neighbors = _face_scan_queries(s)
        vertices = sorted(s.vertices)
        for u in vertices:
            assert real["_cofacial_neighbors"](s, u) == neighbors.get(u, [])
            for w in vertices:
                if w != u:
                    assert real["_chord_candidates"](s, u, w) == candidates.get((u, w), [])


def _surface_record(s):
    return [sorted(s.twin.items()), sorted(s.head.items()), s.faces,
            [sorted(s.marks[k]) for k in MARK_KEYS]]


def test_quadrangulation_outputs_are_locked():
    # Every id the decomposition hands out: the cut paths, the reverse
    # gluing, the chord options and the three surfaces it builds.  The
    # digest was recorded before refinements inherited their indices.
    digest = hashlib.sha256()
    for s in _quadrangulation_hosts():
        dec = quadrangulate(s)
        pieces, reverse, options = square_chord_family(dec)
        assert reverse.gamma == dec.reverse.gamma
        digest.update(json.dumps([dec.cuts, dec.reverse.gamma_prime, options,
                                  _surface_record(dec.refined),
                                  _surface_record(dec.pieces),
                                  _surface_record(pieces)]).encode())
    assert digest.hexdigest() == (
        "e3235b1131d9b2f9c208df549071a95322497254184eb5cf728dd384ef664538")


def test_every_quadrangulation_cut_reglues_to_its_surface(monkeypatch):
    # gluing each cut halfedge to its old twin undoes the cut exactly
    cuts = []

    def spy(s, path):
        out = cut_open(s, path)
        cuts.append((s, tuple(path), out))
        return out

    monkeypatch.setattr(gluing_module, "cut_open", spy)
    for s in _quadrangulation_hosts():
        quadrangulate(s)
    assert len(cuts) > 30
    for s, path, cut in cuts:
        back = glue(Gluing(cut, path, [s.twin[h] for h in path]))
        assert _same_surface(back.result, s)
        assert back.swallowed == ()


def test_quadrangulation_validates_two_gluings_per_host(monkeypatch):
    # the reverse gluing of quadrangulate and its re-anchoring on the
    # chord refinement; a cut validates no gluing of its own
    hosts = _quadrangulation_hosts()
    calls = []
    check = gluing_module.gluing_violations

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(gluing_module, "gluing_violations", counted)
    for s in hosts:
        square_chord_family(quadrangulate(s))
    assert len(hosts) == 27
    assert len(calls) == 2 * len(hosts)


_INDICES = ("_face_of", "_walk_pos", "_boundary", "_fan_start", "_edges",
            "_circles", "_components", "_fresh", "_mark_of")


def _assert_indices_match_rebuilt(s):
    """Every index s holds, inherited or not, equals a from-scratch build."""
    rebuilt = Surface(s.twin, s.head, s.faces, s.marks)
    for name in _INDICES:
        if name in s.__dict__:
            assert s.__dict__[name] == getattr(rebuilt, name), name


# what a frozen draft is handed: the indices its edits keep current, and
# the parent's mark index, which no edit changes
_HANDED = {"_face_of", "_walk_pos", "_boundary", "_fan_start", "_fresh", "_mark_of"}


def _built_indices(s):
    return {name for name in s.__dict__ if name.startswith("_")}


def test_inherited_indices_match_a_rebuild(monkeypatch):
    made = []
    freeze = _Draft.freeze

    def spy(d):
        s = freeze(d)
        assert _built_indices(s) == _HANDED
        made.append(s)
        return s

    monkeypatch.setattr(_Draft, "freeze", spy)
    for s in _quadrangulation_hosts():
        square_chord_family(quadrangulate(s))
    # a batch of edits makes one surface: the 27 hosts freeze 63 drafts
    assert len(made) > 50
    monkeypatch.undo()

    # subdivisions the decomposition never makes: a boundary halfedge, its
    # faceless twin, and a keyhole edge with both sides in one face
    pieces = quadrangulate(one_holed_torus()).pieces
    keyhole = add_detached_circle(pieces, 0, 1)[0].surface
    k = keyhole.faces[0][1]
    assert keyhole.face_of(k) == keyhole.face_of(keyhole.twin[k])
    h = pieces.boundary_halfedges()[0]
    for parent, e in ((pieces, h), (pieces, pieces.twin[h]), (keyhole, k)):
        for name in _INDICES:
            getattr(parent, name)
        child = subdivide_edge(parent, e)[0].surface
        # the parent's edges, circles and components stay behind
        assert _built_indices(child) == _HANDED
        made.append(child)
        validate_surface(child)
    for s in made:
        _assert_indices_match_rebuilt(s)


def test_refinements_build_no_fan_index_of_their_own(monkeypatch):
    built = []
    rebuild = Surface._fan_start.func

    def counting(self):
        built.append(self)
        return rebuild(self)

    prop = cached_property(counting)
    prop.__set_name__(Surface, "_fan_start")
    monkeypatch.setattr(Surface, "_fan_start", prop)
    results = []

    def spy(fn):
        def wrapped(*args):
            out = fn(*args)
            results.append(out)
            return out
        return wrapped

    monkeypatch.setattr(gluing_module, "cut_open", spy(cut_open))
    monkeypatch.setattr(gluing_module, "glue", spy(glue))
    for host in (standard_disk(5), one_holed_torus()):
        built.clear()
        results.clear()
        square_chord_family(quadrangulate(host))
        # the host's own fans, then one build per cut or glued surface;
        # every split and subdivision inherits its parent's
        assert results
        assert len(built) <= len(results) + 1
