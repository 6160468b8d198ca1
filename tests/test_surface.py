"""Halfedge complex structure, validation, refinement, and JSON."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sutured_tqft.axioms import _suture_corner_sites, random_sutured_surface
from sutured_tqft.errors import InvalidSurfaceError
from sutured_tqft.gluing import Gluing, glue, quadrangulate
from sutured_tqft.models import annulus_model, one_holed_torus
from sutured_tqft.surface import (Refinement, Surface, UnionFind, _Draft,
                                  add_detached_circle, chain_boundary,
                                  chain_from_path, disjoint_union, disk_position,
                                  split_face, standard_disk, subdivide_edge,
                                  subsurface, transport_chain, validate_complex,
                                  validate_marking, validate_surface)


def one_vertex_torus():
    """Closed genus-1 complex: one vertex, two loops, one square face."""
    return Surface({0: 1, 1: 0, 2: 3, 3: 2},
                   {0: 0, 1: 0, 2: 0, 3: 0},
                   [[0, 2, 1, 3]])


def test_standard_disk_valid():
    for n in range(1, 5):
        s = standard_disk(n)
        validate_surface(s)
        assert s.euler_characteristic() == 1
        assert s.genus() == 0
        assert s.n_of_f() == n
        circles = s.boundary_circles()
        assert len(circles) == 1
        assert len(circles[0]) == 4 * n


def test_disk_boundary_orientation_is_walk_order():
    s = standard_disk(2)
    circle = s.boundary_circles()[0]
    # induced orientation: tails visit 0, 1, 2, ... counterclockwise
    tails = [s.tail(h) for h in circle]
    start = tails.index(0)
    assert tails[start:] + tails[:start] == list(range(8))


def test_disk_positions():
    s = standard_disk(3)
    assert disk_position("F", 1) == 0
    assert disk_position("a", 1) == 1
    assert disk_position("F", 4) == 6
    for k in (1, 3, 5):
        assert disk_position("a", k) in s.marks["alpha_plus"]
    for k in (2, 4, 6):
        assert disk_position("a", k) in s.marks["alpha_minus"]


def test_json_roundtrip():
    s = standard_disk(2)
    data = s.to_json_dict()
    s2 = Surface.from_json_dict(data)
    assert s2.twin == s.twin
    assert s2.head == s.head
    assert s2.faces == s.faces
    assert s2.marks == s.marks


def test_json_malformed():
    with pytest.raises(InvalidSurfaceError):
        Surface.from_json_dict({"halfedges": [{"id": 0}], "faces": []})
    good = standard_disk(1).to_json_dict()
    bad = dict(good)
    bad["vertices"] = [99]
    with pytest.raises(InvalidSurfaceError):
        Surface.from_json_dict(bad)


def test_validate_rejects_broken_twin():
    s = standard_disk(1)
    broken = Surface({**s.twin, 0: 0}, s.head, s.faces, s.marks)
    with pytest.raises(InvalidSurfaceError, match="its own twin"):
        validate_complex(broken)


def test_validate_rejects_repeated_halfedge():
    s = standard_disk(1)
    broken = Surface(s.twin, s.head, [*s.faces, [s.faces[0][0]]], s.marks)
    with pytest.raises(InvalidSurfaceError, match="appears twice"):
        validate_complex(broken)


def test_validate_rejects_pinched_boundary():
    # two squares sharing a single vertex
    a = standard_disk(1)
    b = standard_disk(1)
    u, vmap, _ = disjoint_union(a, b)
    u = u.relabel(vmap={vmap[0]: 0})
    with pytest.raises(InvalidSurfaceError):
        validate_complex(u)


def test_validate_closed_component():
    # a closed component is a valid complex but no sutured surface
    t = one_vertex_torus()
    validate_complex(t)
    with pytest.raises(InvalidSurfaceError) as err:
        validate_surface(t)
    assert str(err.value) == "closed component (no boundary) present"
    assert t.euler_characteristic() == 0
    assert t.genus() == 1


def _two_tori_at_one_vertex():
    return Surface({0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6},
                   dict.fromkeys(range(8), 0), [[0, 2, 1, 3], [4, 6, 5, 7]])


def _pinched_squares():
    u, vmap, _ = disjoint_union(standard_disk(1), standard_disk(1))
    return u.relabel(vmap={vmap[0]: 0})


_D1, _D2 = standard_disk(1), standard_disk(2)

# One malformed complex per raise site of validate_complex, with the message
# it gave before the checks read the indices directly, and the closed
# component that validate_surface refuses right after those checks.  The "interior vertex
# has a broken fan" site is missing: once the walks are connected, a fan
# that stays in faces returns to its start, and one that leaves them ends
# at a boundary vertex, so no complex reaches it.
_MALFORMED = [
    (lambda: Surface({**_D1.twin, 0: 0}, _D1.head, _D1.faces),
     "halfedge 0 is its own twin"),
    (lambda: Surface({**_D1.twin, 1: 3}, _D1.head, _D1.faces),
     "twin map not an involution at 0"),
    (lambda: Surface(_D1.twin, {h: v for h, v in _D1.head.items() if h != 7}, _D1.faces),
     "halfedge 7 has no head"),
    (lambda: Surface(_D1.twin, {**_D1.head, 99: 0}, _D1.faces),
     "halfedge 99 has no twin"),
    (lambda: Surface(_D1.twin, _D1.head, [*_D1.faces, []]),
     "face 1 has empty walk"),
    (lambda: Surface(_D1.twin, _D1.head, [_D1.faces[0] + (99,)]),
     "face 0 references unknown halfedge 99"),
    (lambda: Surface(_D1.twin, _D1.head, [*_D1.faces, [_D1.faces[0][0]]]),
     "halfedge 0 appears twice in face walks"),
    # breaks after 4, 10, 8 and 6: the first one is reported
    (lambda: Surface(_D2.twin, _D2.head, [[0, 2, 4, 10, 8, 6, 12, 14]]),
     "face 0 walk breaks after halfedge 4"),
    (lambda: Surface({**_D1.twin, 98: 99, 99: 98}, {**_D1.head, 98: 1, 99: 0}, _D1.faces),
     "edge 98/99 borders no face"),
    (_pinched_squares, "boundary is pinched at vertex 0"),
    (_two_tori_at_one_vertex, "vertex 0 is not locally a disk or half-disk"),
    (one_vertex_torus, "closed component (no boundary) present"),
]


@pytest.mark.parametrize("build, message", _MALFORMED)
def test_validate_complex_messages(build, message):
    with pytest.raises(InvalidSurfaceError) as err:
        validate_surface(build())
    assert str(err.value) == message


def test_validate_marking_pattern():
    s = standard_disk(1)
    validate_marking(s)
    swapped = Surface(s.twin, s.head, s.faces,
                      {**s.marks, "F_plus": s.marks["F_minus"],
                       "F_minus": s.marks["F_plus"]})
    # pattern becomes F- a+ F+ a- which is not a rotation of F+ a+ F- a-
    with pytest.raises(InvalidSurfaceError, match="pattern broken"):
        validate_marking(swapped)


def test_validate_marking_off_boundary():
    ref, _, _, _ = split_face(standard_disk(1), 0, 1, 3)
    ref2, m = subdivide_edge(ref.surface, ref.surface.faces[-1][-1])
    s = ref2.surface
    stray = Surface(s.twin, s.head, s.faces,
                    {**s.marks, "F_plus": s.marks["F_plus"] | {m}})
    with pytest.raises(InvalidSurfaceError, match="not on the boundary"):
        validate_marking(stray)


def test_surfaces_are_immutable():
    s = standard_disk(3)
    before = s.to_json_dict()
    assert s.copy() is s
    with pytest.raises(AttributeError):
        s.marks["F_plus"].add(99)
    with pytest.raises(AttributeError):
        s.faces[0].append(99)
    split_face(s, 0, 1, 5)
    subdivide_edge(s, 0)
    add_detached_circle(s, 0, 2)
    glue(Gluing(s, *_suture_corner_sites(s)[0]))
    quadrangulate(s)  # cuts open refinements of s and glues them back
    assert s.to_json_dict() == before


def test_walk_steps_reject_faceless_halfedges():
    s = standard_disk(1)
    for step in (s.walk_next, s.walk_prev):
        with pytest.raises(InvalidSurfaceError, match="lies in no face"):
            step(1)


def test_split_face_topology():
    s = standard_disk(1)
    ref, a, side, comp = split_face(s, 0, 1, 3)
    s2 = ref.surface
    validate_surface(s2)
    assert s2.euler_characteristic() == 1
    assert len(s2.faces) == 2
    assert s2.is_interior_edge(a)
    assert s2.face_of(a) == comp
    assert s2.face_of(s2.twin[a]) == side
    assert s2.tail(a) == 1 and s2.head[a] == 3
    # the side face keeps old walk positions 1..2
    assert [s2.tail(h) for h in s2.faces[side]] == [1, 2, 3]


def test_split_face_rejects_loop():
    s = standard_disk(1)
    ref, _ = add_detached_circle(s, 0, 2)
    # the ambient walk visits the circle attachment vertex twice
    with pytest.raises(InvalidSurfaceError):
        split_face(ref.surface, 0, 3, 5)
    with pytest.raises(InvalidSurfaceError):
        split_face(s, 0, 2, 2)


def test_subdivide_boundary_edge():
    s = standard_disk(1)
    ref, m = subdivide_edge(s, 0)
    s2 = ref.surface
    validate_surface(s2)
    assert s2.euler_characteristic() == 1
    assert m in s2.boundary_vertices()
    old = chain_from_path(s, [0])
    new = transport_chain(ref, old)
    assert chain_boundary(s2, new) == {1: 1, 0: -1}


def test_subdivide_interior_edge_and_transport_sign():
    s = standard_disk(1)
    ref1, a, _, _ = split_face(s, 0, 1, 3)
    s1 = ref1.surface
    c = s1.canonical(a)
    ref2, m = subdivide_edge(s1, s1.twin[c])
    s2 = ref2.surface
    validate_surface(s2)
    assert m not in s2.boundary_vertices()
    chain = {c: 1}
    moved = transport_chain(ref2, chain)
    assert chain_boundary(s2, moved) == chain_boundary(s1, chain)
    back = transport_chain(ref2, {c: -1})
    assert back == {e: -v for e, v in moved.items()}


def test_draft_subdivisions_file_each_edge_once():
    # one draft files the pieces of several subdivided edges in one edge
    # map; a piece cut again would need a composed map, so it is refused
    s = standard_disk(2)
    d = _Draft(s)
    edge_map = {}
    d.subdivide_mapped(0, edge_map)
    d.subdivide_mapped(5, edge_map)
    for piece in (0, d.twin[0], d.twin[1], 1):
        with pytest.raises(InvalidSurfaceError, match="subdivided before"):
            d.subdivide_mapped(piece, edge_map)
    ref = Refinement(d.freeze(), edge_map)
    chain = chain_from_path(s, [0, 2])
    assert edge_map == {0: [(0, 1), (ref.surface.twin[1], 1)],
                        4: [(4, 1), (ref.surface.twin[5], 1)]}
    assert chain_boundary(ref.surface, transport_chain(ref, chain)) == {2: 1, 0: -1}


def test_add_detached_circle():
    s = standard_disk(1)
    ref, (a, b) = add_detached_circle(s, 0, 2)
    s2 = ref.surface
    inner = len(s2.faces) - 1
    validate_complex(s2)
    validate_marking(s2)
    assert s2.euler_characteristic() == 1
    assert s2.face_of(a) == inner
    assert s2.face_of(s2.twin[a]) == 0
    assert s2.is_interior_edge(a) and s2.is_interior_edge(b)
    circle = chain_from_path(s2, [a, b])
    assert chain_boundary(s2, circle) == {}


def test_outgoing_fan_at_chord_endpoint():
    s = standard_disk(1)
    ref, a, _, _ = split_face(s, 0, 1, 3)
    s2 = ref.surface
    fan = s2.outgoing_fan(1)
    assert len(fan) == 3
    assert s2.is_boundary_halfedge(fan[0])
    assert not s2.in_face(fan[-1])
    assert fan[1] == a


def test_disjoint_union_counts():
    a = standard_disk(1)
    b = standard_disk(2)
    u, vmap, hmap = disjoint_union(a, b)
    validate_surface(u)
    assert u.euler_characteristic() == 2
    assert len(u.boundary_circles()) == 2
    assert u.n_of_f() == 3
    assert vmap[0] != 0 and hmap[0] != 0


def test_relabel_roundtrip():
    s = standard_disk(1)
    vmap = {v: v + 100 for v in s.vertices}
    hmap = {h: h + 100 for h in s.twin}
    s2 = s.relabel(vmap, hmap)
    validate_surface(s2)
    back = s2.relabel({v: k for k, v in vmap.items()},
                      {h: k for k, h in hmap.items()})
    assert back.to_json_dict() == s.to_json_dict()


def test_subsurface_of_split_disk():
    s = standard_disk(2)
    ref, a, side, comp = split_face(s, 0, 1, 5)
    s2 = ref.surface
    sub = subsurface(s2, [side])
    validate_complex(sub)
    assert len(sub.faces) == 1
    assert sub.euler_characteristic() == 1
    assert set(sub.marks["alpha_plus"]) <= s.marks["alpha_plus"]
    circle = sub.boundary_circles()[0]
    assert len(circle) == 5


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.lists(st.integers(0, 10 ** 6), max_size=6))
def test_random_refinements_preserve_validity(n, seeds):
    s = standard_disk(n)
    cur = s
    base_chain = moved = chain_from_path(s, [0, 2, 4])
    for seed in seeds:
        kind = seed % 3
        if kind == 0:
            edges = cur.edges()
            step, _ = subdivide_edge(cur, edges[seed // 3 % len(edges)])
        elif kind == 1:
            fid = seed // 3 % len(cur.faces)
            walk = cur.faces[fid]
            if len(walk) < 4:
                continue
            i = seed // 7 % len(walk)
            j = (i + 2 + seed // 11 % (len(walk) - 3)) % len(walk)
            i, j = min(i, j), max(i, j)
            if j - i < 1 or cur.tail(walk[i]) == cur.tail(walk[j]):
                continue
            step, _, _, _ = split_face(cur, fid, i, j)
        else:
            fid = seed // 3 % len(cur.faces)
            step, _ = add_detached_circle(cur, fid, seed // 5 % len(cur.faces[fid]))
        cur = step.surface
        moved = transport_chain(step, moved)
    validate_complex(cur)
    validate_marking(cur)
    assert cur.euler_characteristic() == 1
    # original vertices keep their ids, so the boundary 0-chain is unchanged
    assert chain_boundary(cur, moved) == chain_boundary(s, base_chain)


# -- the indexed queries against naive definitions --------------------------

def naive_face_of(s, h):
    for fi, walk in enumerate(s.faces):
        if h in walk:
            return fi
    return None


def naive_is_boundary(s, h):
    return naive_face_of(s, h) is not None and naive_face_of(s, s.twin[h]) is None


def naive_walk_next(s, h):
    walk = list(s.faces[naive_face_of(s, h)])
    return walk[(walk.index(h) + 1) % len(walk)]


def naive_walk_prev(s, h):
    walk = list(s.faces[naive_face_of(s, h)])
    return walk[walk.index(h) - 1]


def naive_boundary_halfedges(s):
    return sorted(h for h in s.twin if naive_is_boundary(s, h))


def naive_boundary_vertices(s):
    return {v for h in naive_boundary_halfedges(s) for v in (s.head[h], s.tail(h))}


def naive_boundary_circles(s):
    succ = {}
    for h in naive_boundary_halfedges(s):
        succ.setdefault(s.tail(h), h)
    remaining = set(naive_boundary_halfedges(s))
    circles = []
    while remaining:
        start = min(remaining)
        circle = [start]
        remaining.discard(start)
        cur = start
        while True:
            nxt = succ.get(s.head[cur])
            if nxt is None or nxt == start:
                break
            circle.append(nxt)
            remaining.discard(nxt)
            cur = nxt
        circles.append(circle)
    return circles


def naive_outgoing_fan(s, v):
    outgoing = [h for h in s.twin if s.tail(h) == v]
    if not outgoing:
        return []
    starts = [h for h in outgoing if naive_is_boundary(s, h)]
    start = starts[0] if starts else min(outgoing)
    fan = [start]
    cur = start
    while naive_face_of(s, cur) is not None:
        nxt = s.twin[naive_walk_prev(s, cur)]
        if nxt == start:
            break
        fan.append(nxt)
        cur = nxt
    return fan


def naive_components(s):
    adjacent = {v: set() for v in s.head.values()}
    for h in s.twin:
        adjacent[s.head[h]].add(s.tail(h))
        adjacent[s.tail(h)].add(s.head[h])
    comps = []
    seen = set()
    for v in sorted(adjacent):
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            for w in adjacent[stack.pop()] - comp:
                comp.add(w)
                stack.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def assert_indices_match_naive(s):
    assert s.vertices == set(s.head.values())
    assert list(s.edges()) == sorted(h for h in s.twin if h < s.twin[h])
    for h in [*s.twin, max(s.twin) + 1]:
        fi = naive_face_of(s, h)
        assert s.face_of(h) == fi
        assert s.in_face(h) == (fi is not None)
        if h not in s.twin:
            continue
        assert s.is_boundary_halfedge(h) == naive_is_boundary(s, h)
        assert s.is_interior_edge(h) == (
            fi is not None and naive_face_of(s, s.twin[h]) is not None)
        if fi is not None:
            assert s.walk_next(h) == naive_walk_next(s, h)
            assert s.walk_prev(h) == naive_walk_prev(s, h)
    assert list(s.boundary_halfedges()) == naive_boundary_halfedges(s)
    assert s.boundary_vertices() == naive_boundary_vertices(s)
    assert [list(c) for c in s.boundary_circles()] == naive_boundary_circles(s)
    for v in s.vertices:
        assert s.outgoing_fan(v) == naive_outgoing_fan(s, v)
    comps = naive_components(s)
    assert list(s.components()) == comps
    for i, comp in enumerate(comps):
        assert all(s.component_of(v) == i for v in comp)
        assert s.boundary_size(i) == sum(
            1 for h in naive_boundary_halfedges(s) if s.head[h] in comp)
    for v in s.vertices:
        assert s.corners(v) == [(fi, p) for fi, walk in enumerate(s.faces)
                                for p, h in enumerate(walk) if s.tail(h) == v]
        for u in s.vertices:
            assert sorted(s.halfedges_between(v, u)) == sorted(
                h for h in s.twin if s.tail(h) == v and s.head[h] == u)
    circles = naive_boundary_circles(s)
    assert s.component_topology() == [
        (comp,
         [tuple(c) for c in circles if s.tail(c[0]) in comp],
         len(comp) - sum(1 for e in s.edges() if s.head[e] in comp)
         + sum(1 for w in s.faces if s.head[w[0]] in comp))
        for comp in comps]


def _index_corpus():
    out = [standard_disk(n) for n in range(1, 6)]
    out += [annulus_model().surface, one_holed_torus(),
            disjoint_union(standard_disk(2), standard_disk(3))[0]]
    rng = random.Random(5)
    out += [random_sutured_surface(rng) for _ in range(6)]
    return out


def test_indices_match_naive_definitions():
    for s in _index_corpus():
        assert_indices_match_naive(s)


def test_indices_match_naive_on_cut_and_glued_surfaces():
    dec = quadrangulate(one_holed_torus())
    assert_indices_match_naive(dec.pieces)
    assert_indices_match_naive(dec.refined)
    for host in (standard_disk(4), annulus_model().surface):
        for site in _suture_corner_sites(host, sutures=2)[:4]:
            assert_indices_match_naive(glue(Gluing(host, *site)).result)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_indices_match_naive_on_drawn_surfaces(seed):
    rng = random.Random(seed)
    s = random_sutured_surface(rng)
    assert_indices_match_naive(s)
    sites = _suture_corner_sites(s)
    if sites:
        assert_indices_match_naive(glue(Gluing(s, *rng.choice(sites))).result)


# -- union-find -----------------------------------------------------------

def test_union_find_matches_set_merging_oracle():
    rng = random.Random(20261018)
    for trial in range(200):
        n = rng.randint(1, 40)
        items = rng.sample(range(-5, 1000), n)
        uf, blocks = UnionFind(items), {}  # the oracle: item -> its shared set
        for _ in range(rng.randint(0, 3 * n)):
            a, b = rng.choice(items), rng.choice(items)
            sa, sb = blocks.setdefault(a, {a}), blocks.setdefault(b, {b})
            assert uf.union(a, b) == (sa is not sb)
            if sa is not sb:
                sa |= sb
                for x in sb:
                    blocks[x] = sa
        assert set(uf.parent) == set(items)
        groups = {}
        for x in items:
            groups.setdefault(uf.find(x), set()).add(x)
        want = {frozenset(blocks.get(x, {x})) for x in items}
        assert {frozenset(g) for g in groups.values()} == want
        # each root is a member of its own class
        assert all(root in g for root, g in groups.items())
