"""Combinatorial sutured surfaces as halfedge complexes.

A surface is a finite 2-complex: vertices, halfedges paired by a twin
involution, and faces given as closed counterclockwise walks of
halfedges.  Every halfedge appears in at most one face walk; an edge
whose two halfedges both lie in walks is interior.  A *boundary
halfedge* is a face-resident halfedge whose reversal lies in no face;
following boundary halfedges head-to-tail traverses each boundary
circle with its induced orientation (surface on the left).

The sutured structure marks four disjoint sets of boundary vertices
(``F_plus``, ``alpha_plus``, ``F_minus``, ``alpha_minus``); on every
boundary circle the marked vertices must repeat the cyclic pattern
F+ a+ F- a- with the same positive multiplicity for all four sets.

`validate_surface` checks every rule everywhere; loaders and
`gluing.quadrangulate` run it on their input.  The vertex rules (the
boundary pinch, the fan) and the marking pattern are each written once,
for one vertex or one boundary circle, so that `validate_near` can run
them only where a local step changed the complex: `gluing.glue` at the
merged vertex classes, `gluing.cut_open` at the copies of the arc's
vertices.  Each step argues in its docstring why the rules it does not
re-check hold.

Surfaces are immutable: the constructor is the only writer, mark sets
are frozensets and face walks tuples, and every refinement or gluing
builds a new surface, so no derived index (face and walk position of a
halfedge, boundary halfedges, fan starts, edges, boundary circles,
components, the mark of each vertex, next free ids) is invalidated.  A
surface builds each index on first use, and only the private edit draft
(`_Draft`), on which face splits and edge subdivisions go in by
batches, hands indices on: those its own edits keep current.

1-chains on the complex are dicts mapping the canonical halfedge of an
edge (the smaller id of the twin pair) to an integer coefficient.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InvalidSurfaceError, json_int

__all__ = [
    "Surface",
    "UnionFind",
    "MARK_KEYS",
    "validate_complex",
    "validate_marking",
    "validate_surface",
    "validate_near",
    "standard_disk",
    "disk_position",
    "subsurface",
    "disjoint_union",
    "chain_from_path",
    "chain_boundary",
    "chain_add",
    "chain_scale",
    "push_chain",
    "face_boundary_chain",
    "transport_chain",
    "Refinement",
    "subdivide_edge",
    "split_face",
    "add_detached_circle",
]

# in the cyclic order of the marking pattern
MARK_KEYS = ("F_plus", "alpha_plus", "F_minus", "alpha_minus")


class UnionFind:
    """Disjoint sets over the hashable ``items`` it is given, each a
    singleton at first, with path halving."""

    def __init__(self, items: Iterable):
        self.parent: dict = {x: x for x in items}

    def find(self, x):
        parent = self.parent
        p = parent[x]
        while p != x:
            parent[x] = x = parent[p]
            p = parent[x]
        return x

    def union(self, a, b) -> bool:
        """Merge the sets of a and b; False if they were one set already."""
        # both root walks of `find`, written out: this runs once per edge
        parent = self.parent
        p = parent[a]
        while p != a:
            parent[a] = a = parent[p]
            p = parent[a]
        p = parent[b]
        while p != b:
            parent[b] = b = parent[p]
            p = parent[b]
        if a == b:
            return False
        parent[a] = b
        return True


class Surface:
    """Immutable halfedge complex with sutured boundary marks.

    ``twin`` and ``head`` are plain dicts for lookup speed; treat them as
    read-only.  Derived indices never change: each is built on first use
    or handed on by the edit draft that made this surface.
    """

    def __init__(self, twin: dict[int, int], head: dict[int, int],
                 faces: Sequence[Sequence[int]],
                 marks: dict[str, Iterable[int]] | None = None):
        self.twin = dict(twin)
        self.head = dict(head)
        self.faces = tuple(tuple(w) for w in faces)
        self.marks = dict.fromkeys(MARK_KEYS, frozenset())
        if marks:
            for k, vs in marks.items():
                if k not in MARK_KEYS:
                    raise InvalidSurfaceError(f"unknown mark class {k!r}")
                self.marks[k] = frozenset(vs)

    # -- derived indices, each built once on first use ----------------------
    # Only queries on hot paths are indexed; sets that are cheap to rebuild
    # per call (vertices, boundary vertices, components) are not kept, so a
    # surface's indices stay smaller than its own twin and head dicts.
    @cached_property
    def _face_of(self) -> dict[int, int]:
        return {h: fi for fi, walk in enumerate(self.faces) for h in walk}

    @cached_property
    def _walk_pos(self) -> dict[int, int]:
        return {h: p for walk in self.faces for p, h in enumerate(walk)}

    @cached_property
    def _boundary(self) -> tuple[int, ...]:
        face_of = self._face_of
        return tuple(sorted(h for h, t in self.twin.items()
                            if h in face_of and t not in face_of))

    @cached_property
    def _fan_start(self) -> dict[int, int]:
        """Vertex -> first halfedge of its outgoing fan: the outgoing
        boundary halfedge, else the smallest outgoing id."""
        head, twin = self.head, self.twin
        start: dict[int, int] = {}
        for h, t in twin.items():
            if h < start.get(head[t], h + 1):
                start[head[t]] = h
        for h in self._boundary:
            start[head[twin[h]]] = h
        return start

    @cached_property
    def _edges(self) -> tuple[int, ...]:
        return tuple(sorted(h for h, t in self.twin.items() if h < t))

    @cached_property
    def _circles(self) -> tuple[tuple[int, ...], ...]:
        head, twin = self.head, self.twin
        succ = {head[twin[h]]: h for h in self._boundary}
        seen: set[int] = set()
        circles = []
        for start in self._boundary:
            if start in seen:
                continue
            circle = [start]
            seen.add(start)
            cur = start
            while True:
                nxt = succ.get(head[cur])
                if nxt is None or nxt == start:
                    break
                circle.append(nxt)
                seen.add(nxt)
                cur = nxt
            circles.append(tuple(circle))
        return tuple(circles)

    @cached_property
    def _components(self) -> tuple[dict[int, int], list[int]]:
        """(vertex -> component id, numbered by least vertex; boundary
        halfedges per component)."""
        head = self.head
        cells = UnionFind(head.values())
        for h, t in self.twin.items():
            if h < t:
                cells.union(head[h], head[t])
        roots: dict[int, int] = {}
        comp_of = {v: roots.setdefault(cells.find(v), len(roots))
                   for v in sorted(self.vertices)}
        sizes = [0] * len(roots)
        for h in self._boundary:
            sizes[comp_of[head[h]]] += 1
        return comp_of, sizes

    @cached_property
    def _fresh(self) -> tuple[int, int]:
        """(next vertex id, next halfedge id): one past the largest in use."""
        return max(self.head.values(), default=-1) + 1, max(self.twin, default=-1) + 1

    # -- basic accessors --------------------------------------------------
    @property
    def vertices(self) -> set[int]:
        return set(self.head.values())

    def tail(self, h: int) -> int:
        return self.head[self.twin[h]]

    def canonical(self, h: int) -> int:
        return min(h, self.twin[h])

    def edges(self) -> tuple[int, ...]:
        return self._edges

    def face_of(self, h: int) -> int | None:
        return self._face_of.get(h)

    def in_face(self, h: int) -> bool:
        return h in self._face_of

    def is_interior_edge(self, h: int) -> bool:
        face_of = self._face_of
        return h in face_of and self.twin[h] in face_of

    def is_boundary_halfedge(self, h: int) -> bool:
        """Face-resident halfedge whose reversal lies in no face."""
        face_of = self._face_of
        return h in face_of and self.twin[h] not in face_of

    def boundary_halfedges(self) -> tuple[int, ...]:
        return self._boundary

    def boundary_vertices(self) -> set[int]:
        head, twin = self.head, self.twin
        return {v for h in self._boundary for v in (head[h], head[twin[h]])}

    def walk_next(self, h: int) -> int:
        fi = self._face_of.get(h)
        if fi is None:
            raise InvalidSurfaceError(f"halfedge {h} lies in no face")
        walk = self.faces[fi]
        return walk[(self._walk_pos[h] + 1) % len(walk)]

    def walk_prev(self, h: int) -> int:
        fi = self._face_of.get(h)
        if fi is None:
            raise InvalidSurfaceError(f"halfedge {h} lies in no face")
        return self.faces[fi][self._walk_pos[h] - 1]

    def boundary_circles(self) -> tuple[tuple[int, ...], ...]:
        """Boundary circles as halfedge cycles in the induced orientation."""
        return self._circles

    def outgoing_fan(self, v: int) -> list[int]:
        """Outgoing halfedges at v in counterclockwise order.

        For a boundary vertex the fan starts at the outgoing boundary
        halfedge and ends at the faceless reversal of the incoming one;
        for an interior vertex it is a cycle cut at the smallest id.
        The counterclockwise successor of outgoing h is twin(walk_prev(h)).
        """
        start = self._fan_start.get(v)
        if start is None:
            return []
        face_of, pos, twin, faces = self._face_of, self._walk_pos, self.twin, self.faces
        fan = [start]
        cur = start
        # stops when the fan rotates off the surface at a boundary vertex
        while cur in face_of:
            nxt = twin[faces[face_of[cur]][pos[cur] - 1]]
            if nxt == start:
                break
            fan.append(nxt)
            cur = nxt
        return fan

    def corners(self, v: int) -> list[tuple[int, int]]:
        """Sorted (face, walk position) of every corner at v: the walk
        halfedges leaving v, read from its fan."""
        face_of, pos = self._face_of, self._walk_pos
        return sorted((face_of[h], pos[h]) for h in self.outgoing_fan(v) if h in face_of)

    def halfedges_between(self, u: int, v: int) -> list[int]:
        """Halfedges running from u to v, in fan order at u."""
        head = self.head
        return [h for h in self.outgoing_fan(u) if head[h] == v]

    # -- global invariants ------------------------------------------------
    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edges()) + len(self.faces)

    def components(self) -> list[set[int]]:
        """Vertex sets of connected components (edge connectivity), by
        least vertex."""
        comp_of, sizes = self._components
        comps: list[set[int]] = [set() for _ in sizes]
        for v, c in comp_of.items():
            comps[c].add(v)
        return comps

    def component_of(self, v: int) -> int:
        """Index in ``components()`` of the component holding vertex v."""
        return self._components[0][v]

    def boundary_size(self, c: int) -> int:
        """Number of boundary halfedges on component c."""
        return self._components[1][c]

    def component_topology(self) -> list[tuple[set[int], list[tuple[int, ...]], int]]:
        """(vertices, boundary circles, Euler characteristic) of each
        component, in ``components()`` order."""
        comp_of = self._components[0]
        head = self.head
        comps = self.components()
        circles: list[list[tuple[int, ...]]] = [[] for _ in comps]
        for circle in self._circles:
            circles[comp_of[head[circle[0]]]].append(circle)
        chi = [len(vs) for vs in comps]
        for e in self._edges:
            chi[comp_of[head[e]]] -= 1
        for walk in self.faces:
            chi[comp_of[head[walk[0]]]] += 1
        return list(zip(comps, circles, chi))

    def genus(self) -> int:
        """Total genus, summed over components."""
        return sum((2 - chi - len(circles)) // 2
                   for _, circles, chi in self.component_topology())

    def n_of_f(self) -> int:
        return len(self.marks["F_plus"])

    @cached_property
    def _mark_of(self) -> dict[int, str]:
        return {v: k for k in reversed(MARK_KEYS) for v in self.marks[k]}

    def mark_of(self, v: int) -> str | None:
        return self._mark_of.get(v)

    # -- copying and relabeling -------------------------------------------
    def copy(self) -> "Surface":
        """Surfaces are immutable, so a copy is the surface itself."""
        return self

    def relabel(self, vmap: dict[int, int] | None = None,
                hmap: dict[int, int] | None = None) -> "Surface":
        vmap = vmap or {}
        hmap = hmap or {}
        twin = {hmap.get(h, h): hmap.get(t, t) for h, t in self.twin.items()}
        head = {hmap.get(h, h): vmap.get(v, v) for h, v in self.head.items()}
        faces = [[hmap.get(h, h) for h in w] for w in self.faces]
        marks = {k: {vmap.get(v, v) for v in vs} for k, vs in self.marks.items()}
        return Surface(twin, head, faces, marks)

    def fresh_vertex(self) -> int:
        return self._fresh[0]

    def fresh_halfedge(self) -> int:
        return self._fresh[1]

    # -- JSON -------------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "vertices": sorted(self.vertices),
            "halfedges": [{"id": h, "twin": self.twin[h], "head": self.head[h]}
                          for h in sorted(self.twin)],
            "faces": [list(w) for w in self.faces],
            "marks": {k: sorted(self.marks[k]) for k in MARK_KEYS},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Surface":
        """Load and validate a surface; any defect is an InvalidSurfaceError."""
        try:
            ids = [json_int(rec["id"]) for rec in data["halfedges"]]
            twin = {json_int(rec["id"]): json_int(rec["twin"]) for rec in data["halfedges"]}
            head = {json_int(rec["id"]): json_int(rec["head"]) for rec in data["halfedges"]}
            faces = [[json_int(h) for h in w] for w in data["faces"]]
            marks = {k: {json_int(v) for v in data.get("marks", {}).get(k, [])}
                     for k in MARK_KEYS}
            declared = {json_int(v) for v in data.get("vertices", [])}
        except (AttributeError, KeyError, TypeError) as exc:
            raise InvalidSurfaceError(f"malformed surface JSON: {exc}") from exc
        if len(twin) < len(ids):
            dup = min(h for h, n in Counter(ids).items() if n > 1)
            raise InvalidSurfaceError(f"halfedge {dup} is listed twice")
        s = cls(twin, head, faces, marks)
        if declared and declared != s.vertices:
            raise InvalidSurfaceError("declared vertex set disagrees with halfedge heads")
        validate_surface(s)
        return s

    def __repr__(self) -> str:
        return (f"<Surface V={len(self.vertices)} E={len(self.edges())} "
                f"F={len(self.faces)} n(F)={self.n_of_f()}>")


# -- validation -----------------------------------------------------------

def _boundary_degrees(s: Surface) -> tuple[dict[int, int], dict[int, int]]:
    """Boundary halfedges into and out of each vertex that has one."""
    head, twin = s.head, s.twin
    b_in: dict[int, int] = {}
    b_out: dict[int, int] = {}
    for h in s._boundary:
        b_in[head[h]] = b_in.get(head[h], 0) + 1
        b_out[head[twin[h]]] = b_out.get(head[twin[h]], 0) + 1
    return b_in, b_out


def _check_pinch(v: int, b_in: dict[int, int], b_out: dict[int, int]) -> None:
    """Manifold boundary: a boundary vertex has exactly one boundary
    halfedge in and one out."""
    if b_in.get(v, 0) != 1 or b_out.get(v, 0) != 1:
        raise InvalidSurfaceError(f"boundary is pinched at vertex {v}")


def _check_fan(s: Surface, v: int, out_count: int, on_boundary: bool) -> None:
    """Umbrella condition: the rotational fan at v covers its `out_count`
    outgoing halfedges exactly once, and closes up if v is interior."""
    fan = s.outgoing_fan(v)
    if len(fan) != out_count or len(set(fan)) != len(fan):
        raise InvalidSurfaceError(f"vertex {v} is not locally a disk or half-disk")
    if not on_boundary:
        last = fan[-1]
        if not s.in_face(last) or s.twin[s.walk_prev(last)] != fan[0]:
            raise InvalidSurfaceError(f"interior vertex {v} has a broken fan")


def _check_pattern(s: Surface, circle: Sequence[int]) -> None:
    """The marked vertices along one boundary circle repeat F+ a+ F- a-."""
    marked = []
    for h in circle:
        m = s.mark_of(s.tail(h))
        if m:
            marked.append(m)
    if not marked or len(marked) % 4:
        raise InvalidSurfaceError(
            f"boundary circle carries {len(marked)} marks; need a positive multiple of 4")
    if "F_plus" not in marked:
        raise InvalidSurfaceError("boundary circle has no positive suture")
    start = marked.index("F_plus")
    rotated = marked[start:] + marked[:start]
    for i, m in enumerate(rotated):
        if m != MARK_KEYS[i % 4]:
            raise InvalidSurfaceError(
                f"marking pattern broken on a boundary circle: {rotated}")


def validate_complex(s: Surface) -> None:
    """Structural checks: twin involution, face walks, manifold links."""
    twin, head = s.twin, s.head
    for h, t in twin.items():
        if t == h:
            raise InvalidSurfaceError(f"halfedge {h} is its own twin")
        if twin.get(t) != h:
            raise InvalidSurfaceError(f"twin map not an involution at {h}")
        if h not in head:
            raise InvalidSurfaceError(f"halfedge {h} has no head")
    for h in head:
        if h not in twin:
            raise InvalidSurfaceError(f"halfedge {h} has no twin")

    seen: set[int] = set()
    for fi, walk in enumerate(s.faces):
        if not walk:
            raise InvalidSurfaceError(f"face {fi} has empty walk")
        for x in walk:
            if x not in twin:
                raise InvalidSurfaceError(f"face {fi} references unknown halfedge {x}")
            if x in seen:
                raise InvalidSurfaceError(f"halfedge {x} appears twice in face walks")
            seen.add(x)
        for a, b in zip(walk, walk[1:] + walk[:1]):
            if head[a] != head[twin[b]]:
                raise InvalidSurfaceError(f"face {fi} walk breaks after halfedge {a}")

    for h, t in twin.items():
        if h < t and h not in seen and t not in seen:
            raise InvalidSurfaceError(f"edge {h}/{t} borders no face")

    b_in, b_out = _boundary_degrees(s)
    for v in set(b_in) | set(b_out):
        _check_pinch(v, b_in, b_out)
    # twin is a bijection by now, so a vertex has as many outgoing
    # halfedges as incoming ones; after the pinch check the boundary
    # vertices are the keys of b_in
    out_count = Counter(head.values())
    for v in s.vertices:
        _check_fan(s, v, out_count[v], v in b_in)


def validate_marking(s: Surface) -> None:
    """Sutured-marking checks: disjointness, location, cyclic pattern."""
    all_marked: set[int] = set()
    for k in MARK_KEYS:
        dup = all_marked & s.marks[k]
        if dup:
            raise InvalidSurfaceError(f"vertices {sorted(dup)} carry two marks")
        all_marked |= s.marks[k]
    boundary = s.boundary_vertices()
    stray = all_marked - boundary
    if stray:
        raise InvalidSurfaceError(f"marked vertices {sorted(stray)} are not on the boundary")
    for circle in s.boundary_circles():
        _check_pattern(s, circle)


def validate_surface(s: Surface) -> None:
    """Full check: valid complex, no closed components, valid marking."""
    validate_complex(s)
    if 0 in s._components[1]:
        raise InvalidSurfaceError("closed component (no boundary) present")
    validate_marking(s)


def validate_near(s: Surface, vertices: Iterable[int]) -> None:
    """Re-check `s` where a local step changed it: the boundary pinch and
    the fan at each of `vertices`, and the marking pattern on every
    boundary circle through one of them.

    The caller answers for every other rule of `validate_surface`.  That
    holds for a step that builds `s` from a valid surface, keeps the twin
    involution and the face walks, leaves each vertex outside `vertices`
    with the same outgoing halfedges, fan and boundary halfedges, marks
    only boundary vertices, once each, and closes no component: a circle
    that avoids `vertices` is then an old circle with its old marks.
    `glue` and `cut_open` argue this for their steps."""
    vs = set(vertices)
    b_in, b_out = _boundary_degrees(s)
    out_count = Counter(s.head.values())
    for v in vs:
        if v in b_in or v in b_out:
            _check_pinch(v, b_in, b_out)
        _check_fan(s, v, out_count[v], v in b_in)
    head, twin = s.head, s.twin
    for circle in s._circles:
        if any(head[twin[h]] in vs for h in circle):
            _check_pattern(s, circle)


# -- chains ---------------------------------------------------------------

def chain_from_path(s: Surface, path: Sequence[int]) -> dict[int, int]:
    """1-chain of a halfedge path (oriented along the path)."""
    chain: dict[int, int] = {}
    for h in path:
        c = s.canonical(h)
        chain[c] = chain.get(c, 0) + (1 if h == c else -1)
    return {e: v for e, v in chain.items() if v}


def chain_add(a: dict[int, int], b: dict[int, int], bscale: int = 1) -> dict[int, int]:
    out = dict(a)
    for e, v in b.items():
        out[e] = out.get(e, 0) + bscale * v
    return {e: v for e, v in out.items() if v}


def chain_scale(a: dict[int, int], c: int) -> dict[int, int]:
    return {e: c * v for e, v in a.items() if c * v}


def push_chain(chain: dict[int, int], hmap: dict[int, int],
               target: Surface) -> dict[int, int]:
    """Image of a 1-chain under a halfedge map into ``target``, read in
    the canonical halfedges of ``target``."""
    out: dict[int, int] = {}
    for h, c in chain.items():
        g = hmap[h]
        gc = target.canonical(g)
        out[gc] = out.get(gc, 0) + (c if g == gc else -c)
    return {e: c for e, c in out.items() if c}


def chain_boundary(s: Surface, chain: dict[int, int]) -> dict[int, int]:
    head, twin = s.head, s.twin
    out: dict[int, int] = {}
    for e, c in chain.items():
        v = head[e]
        out[v] = out.get(v, 0) + c
        v = head[twin[e]]
        out[v] = out.get(v, 0) - c
    return {v: c for v, c in out.items() if c}


def face_boundary_chain(s: Surface, fi: int) -> dict[int, int]:
    return chain_from_path(s, s.faces[fi])


# -- refinement -----------------------------------------------------------

@dataclass
class Refinement:
    """A refined surface plus transport data for chains.

    ``edge_map`` sends an old canonical halfedge to the (halfedge, sign)
    pieces replacing it (identity where absent).  Refinements do not
    compose: a batch of edits goes in on one `_Draft`, subdividing each
    old edge at most once.  Vertex ids survive every refinement.
    """
    surface: Surface
    edge_map: dict[int, list[tuple[int, int]]] = field(default_factory=dict)


def transport_chain(ref: Refinement, chain: dict[int, int]) -> dict[int, int]:
    """Push a 1-chain through a refinement."""
    s2 = ref.surface
    out: dict[int, int] = {}
    for e, c in chain.items():
        pieces = ref.edge_map.get(e, [(e, 1)])
        for h, sgn in pieces:
            ch = s2.canonical(h)
            out[ch] = out.get(ch, 0) + sgn * (1 if h == ch else -1) * c
    return {e: v for e, v in out.items() if v}


class _Draft:
    """A private, mutable copy of a surface for a batch of refinements.

    `split` and `subdivide` edit it in place, at the cost of the face
    walks they touch, with the ids `split_face` and `subdivide_edge` give.
    It holds the indices its edits keep as a from-scratch build would give
    them (face and walk position, boundary, fan starts, next free ids) and
    shares the parent's mark index, which no edit changes.  Arc
    realization queries it with `Surface`'s own code.  `freeze` builds the
    batch's one `Surface`, hands it those indices and spends the draft.
    """

    tail, canonical, face_of, is_interior_edge, outgoing_fan, corners, boundary_vertices = (
        Surface.tail, Surface.canonical, Surface.face_of, Surface.is_interior_edge,
        Surface.outgoing_fan, Surface.corners, Surface.boundary_vertices)

    def __init__(self, s: Surface):
        self.twin, self.head, self.faces, self.marks, self._mark_of = (
            dict(s.twin), dict(s.head), list(s.faces), s.marks, s._mark_of)
        self._fresh, self._boundary = s._fresh, s._boundary
        self._face_of, self._walk_pos, self._fan_start = (
            s._face_of.copy(), s._walk_pos.copy(), s._fan_start.copy())

    def split(self, fi: int, i: int, j: int) -> int:
        """`split_face` in place; returns the new halfedge a."""
        if i > j:
            i, j = j, i
        walk = self.faces[fi]
        if not (0 <= i < j < len(walk)):
            raise InvalidSurfaceError(
                f"bad corner positions {i}, {j} for face of size {len(walk)}")
        vi, vj = self.tail(walk[i]), self.tail(walk[j])
        if vi == vj:
            raise InvalidSurfaceError("split_face corners share a vertex (loop edge)")
        nv, a = self._fresh
        b = a + 1
        self._fresh = (nv, b + 1)
        self.twin.update({a: b, b: a})
        self.head.update({a: vj, b: vi})
        self.faces[fi] = keep = walk[j:] + walk[:i] + (a,)
        self.faces.append(cut := walk[i:j] + (b,))
        self._face_of[a] = fi
        self._face_of.update(dict.fromkeys(cut, len(self.faces) - 1))
        for w in (keep, cut):
            self._walk_pos.update(zip(w, range(len(w))))
        # an interior edge between two old vertices with the largest ids
        # yet: boundary and fans stay as they are
        return a

    def subdivide(self, h: int) -> int:
        """`subdivide_edge` in place; returns the midpoint."""
        twin, head, face_of, pos = self.twin, self.head, self._face_of, self._walk_pos
        t = twin[h]
        u, v = head[t], head[h]
        m, h2 = self._fresh
        t2 = h2 + 1
        self._fresh = (m + 1, t2 + 1)
        # after: h: u->m twin t2: m->u;  h2: m->v twin t: v->m
        head.update({h: m, h2: v, t: m, t2: u})
        twin.update({h: t2, t2: h, h2: t, t: h2})
        # The fresh ids are the largest yet: a boundary piece goes last in
        # the boundary, and m's fan starts at it, or else at h2, the
        # smaller of m's two outgoing ids.
        self._fan_start[m] = h2
        for x, x2, old_twin in ((h, h2, t), (t, t2, h)):
            fi = face_of.get(x)
            if fi is None:
                continue
            walk, p = self.faces[fi], pos[x] + 1
            walk = self.faces[fi] = walk[:p] + (x2,) + walk[p:]
            face_of[x2] = fi
            pos.update(zip(walk[p:], range(p, len(walk))))
            if old_twin not in face_of:  # x2 is the boundary piece
                self._boundary += (x2,)
                self._fan_start[m] = x2
        return m

    def subdivide_mapped(self, h: int, edge_map: dict[int, list[tuple[int, int]]]) -> int:
        """`subdivide` that also files the edge's two pieces in `edge_map`,
        a `Refinement` edge map of the draft's source surface; returns the
        midpoint.  Pieces do not compose, so no edge is subdivided twice."""
        c, other = sorted((h, self.twin[h]))
        if {c, other} & {x for pieces in edge_map.values() for x, _ in pieces}:
            raise InvalidSurfaceError(f"edge {c} is a piece of an edge subdivided before")
        m = self.subdivide(h)
        # c keeps its id on one piece; the other piece is the new twin of `other`
        edge_map[c] = [(c, 1), (self.twin[other], 1)]
        return m

    def freeze(self) -> Surface:
        """The batch's one surface, holding every index the draft kept."""
        s = Surface(self.twin, self.head, self.faces, self.marks)
        s.__dict__.update((k, v) for k, v in self.__dict__.items() if k.startswith("_"))
        self.__dict__.clear()  # spent: a later edit or query fails
        return s


def subdivide_edge(s: Surface, h: int) -> tuple[Refinement, int]:
    """Split the edge of h at a fresh midpoint; returns (refinement, midpoint).

    Halfedge h keeps its id on the tail-side piece and twin(h) keeps its
    id on the head-side piece, so faceless twins stay faceless.
    """
    draft = _Draft(s)
    edge_map: dict[int, list[tuple[int, int]]] = {}
    m = draft.subdivide_mapped(h, edge_map)
    return Refinement(draft.freeze(), edge_map), m


def split_face(s: Surface, face_id: int, i: int, j: int) -> tuple[Refinement, int, int, int]:
    """Split a face by a new edge between walk corners i and j.

    The corner at position p is the vertex where walk[p] starts.  Returns
    (refinement, halfedge a running corner i -> corner j, id of the face
    keeping walk[i:j], id of the complementary face).  The complement
    keeps ``face_id``, and a lies in it; the walk[i:j] side gets a fresh
    id and contains twin(a).
    """
    draft = _Draft(s)
    a = draft.split(face_id, i, j)
    return Refinement(draft.freeze()), a, len(s.faces), face_id


def add_detached_circle(s: Surface, face_id: int, pos: int) -> tuple[Refinement, tuple[int, int]]:
    """Plant a 2-gon circle inside a face, joined by a keyhole edge.

    The keyhole runs from the corner at walk position ``pos`` to a fresh
    circle vertex; both its sides lie in the ambient face, so it is never
    eligible for a dividing set.  Returns (refinement, (a, b) circle
    halfedges bounding the inner 2-gon counterclockwise); the 2-gon is
    the last face.
    """
    walk = s.faces[face_id]
    w = s.tail(walk[pos])
    c1 = s.fresh_vertex()
    c2 = c1 + 1
    a = s.fresh_halfedge()
    ta, b, tb, k, tk = a + 1, a + 2, a + 3, a + 4, a + 5
    twin = {**s.twin, a: ta, ta: a, b: tb, tb: b, k: tk, tk: k}
    head = {**s.head, a: c2, ta: c1, b: c1, tb: c2, k: c1, tk: w}
    faces = list(s.faces)
    faces[face_id] = walk[:pos] + (k, tb, ta, tk) + walk[pos:]
    faces.append((a, b))
    return Refinement(Surface(twin, head, faces, s.marks)), (a, b)


# -- builders -------------------------------------------------------------

def standard_disk(n: int) -> Surface:
    """Disk with n positive sutures: 4n boundary vertices, one face.

    Counterclockwise boundary order F_1, a_1, F_2, a_2, ..., F_{2n}, a_{2n};
    odd-index sutures are positive.  Vertex ids equal boundary positions,
    so F_k sits at 2(k-1) and a_k at 2k-1.  Halfedge 2p runs p -> p+1
    inside the face; 2p+1 is its faceless twin.
    """
    if n < 1:
        raise InvalidSurfaceError("disk needs at least one positive suture")
    m = 4 * n
    twin: dict[int, int] = {}
    head: dict[int, int] = {}
    walk = []
    for p in range(m):
        h, t = 2 * p, 2 * p + 1
        twin[h], twin[t] = t, h
        head[h] = (p + 1) % m
        head[t] = p
        walk.append(h)
    marks = {
        "F_plus": {p for p in range(m) if p % 4 == 0},
        "alpha_plus": {p for p in range(m) if p % 4 == 1},
        "F_minus": {p for p in range(m) if p % 4 == 2},
        "alpha_minus": {p for p in range(m) if p % 4 == 3},
    }
    return Surface(twin, head, [walk], marks)


def disk_position(kind: str, k: int) -> int:
    """Boundary position (= vertex id in standard_disk) of F_k or a_k."""
    if kind == "F":
        return 2 * (k - 1)
    if kind == "a":
        return 2 * k - 1
    raise ValueError(f"unknown boundary mark kind {kind!r}")


def subsurface(s: Surface, face_ids: Sequence[int]) -> Surface:
    """Subcomplex spanned by the given faces (ids of cells preserved).

    Keeps every halfedge of a selected face together with its twin, so
    edges interior to the selection stay interior and selection-boundary
    edges become boundary edges.  Marks restrict to surviving vertices.
    The result may have closed components, which only `validate_surface` refuses.
    """
    chosen = sorted(set(face_ids))
    halfedges: set[int] = set()
    for fi in chosen:
        for h in s.faces[fi]:
            halfedges.add(h)
            halfedges.add(s.twin[h])
    twin = {h: s.twin[h] for h in halfedges}
    head = {h: s.head[h] for h in halfedges}
    faces = [list(s.faces[fi]) for fi in chosen]
    verts = set(head.values())
    marks = {k: s.marks[k] & verts for k in MARK_KEYS}
    return Surface(twin, head, faces, marks)


def disjoint_union(s1: Surface, s2: Surface) -> tuple[Surface, dict[int, int], dict[int, int]]:
    """Disjoint union; returns (surface, s2 vertex shift, s2 halfedge shift)."""
    voff = max(s1.vertices, default=-1) + 1
    hoff = max(s1.twin, default=-1) + 1
    vmap = {v: v + voff for v in s2.vertices}
    hmap = {h: h + hoff for h in s2.twin}
    twin = dict(s1.twin)
    head = dict(s1.head)
    for h, t in s2.twin.items():
        twin[hmap[h]] = hmap[t]
        head[hmap[h]] = vmap[s2.head[h]]
    faces = [list(w) for w in s1.faces] + [[hmap[h] for h in w] for w in s2.faces]
    marks = {k: set(s1.marks[k]) | {vmap[v] for v in s2.marks[k]} for k in MARK_KEYS}
    return Surface(twin, head, faces, marks), vmap, hmap
