"""Boundary identification of sutured surfaces and the induced maps.

A gluing pairs two collections of boundary halfedges of one complex and
identifies them with reversed orientation.  Marked vertices caught in the
seam move to the interior; positive suture vertices that do so are
"swallowed", and the wedge of their boundary-evaluation functionals
orients the gluing.  The induced map on contact algebras is the interior
product against that wedge composed with the chain-level pushforward,
re-expressed in a homology basis of the glued surface.  The middle
homology is split as that basis plus one tree path per swallowed vertex,
so the wedge is a block of dual generators and the rewrite is a
projection: no middle homology is built and nothing is solved.

Cutting along an interior arc is the inverse construction: `cut_open`
slices one arc and returns the cut surface, on which gluing each arc
halfedge to its old twin gives back the surface, and `quadrangulate`
iterates cuts until only square pieces remain.  Each arc, and all the
chords of a square family, go in on one edit draft (`surface._Draft`).

A gluing or cut of a valid surface changes it only near the weld or the
arc, so `glue` and `cut_open` re-check their output there alone
(`surface.validate_near`), and `push_dividing_set` checks the pushed set
only at the merged vertices and across the welded edges.  Their
docstrings argue why every other rule carries over; the differential
tests in ``tests/test_local_checks.py`` run the full checks on every
output as well.
"""

from __future__ import annotations

from dataclasses import dataclass

from .contact import _region, _wedge_region, default_basis
from .dividing import DividingSet, _welded_dividing_set
from .errors import (
    InternalConsistencyError,
    InvalidGluingError,
    UnsupportedSurfaceError,
    ValidationError,
    json_field,
    json_int,
)
from .exterior import Multivector, interior, induced_map, equal_up_to_sign, RING_F2, RING_Z
from .homology import HomologyBasis, RelativeH1
from .linalg import transpose
from .surface import (
    MARK_KEYS,
    Surface,
    UnionFind,
    _Draft,
    chain_add,
    chain_boundary,
    push_chain,
    subdivide_edge,
    validate_near,
    validate_surface,
)

Chain = dict[int, int]

__all__ = [
    "Gluing",
    "GluedSurfaceData",
    "DecompositionResult",
    "gluing_violations",
    "glue",
    "pushforward_class",
    "glued_relative_basis",
    "gluing_morphism",
    "push_dividing_set",
    "check_respect",
    "cut_open",
    "quadrangulate",
    "square_chord_family",
]

_OPPOSITE_MARK = {
    "F_plus": "F_minus",
    "F_minus": "F_plus",
    "alpha_plus": "alpha_plus",
    "alpha_minus": "alpha_minus",
    None: None,
}


# ---------------------------------------------------------------------------
# validation


def gluing_violations(host: Surface, gamma: tuple[int, ...],
                      gamma_prime: tuple[int, ...]) -> list[str]:
    """Reasons the pair of halfedge collections is not a valid gluing.

    gamma[i] is identified with gamma_prime[i] reversed, so the tail of one
    lands on the head of the other.  The collections may share vertices
    (identifications then chain up) but never edges, and no vertex may be
    identified with itself.
    """
    out: list[str] = []
    if len(gamma) != len(gamma_prime):
        out.append("gamma and gamma_prime have different lengths")
        return out
    glued = (*gamma, *gamma_prime)
    for h in glued:
        if h not in host.twin:
            out.append(f"unknown halfedge {h}")
            return out
        if not host.is_boundary_halfedge(h):
            out.append(f"halfedge {h} is not a face-resident boundary halfedge")
    if out:
        return out
    canon = [host.canonical(h) for h in glued]
    if len(set(canon)) != len(canon):
        out.append("gamma and gamma_prime reuse an edge")

    # The identification on vertices: tail(g) ~ head(g'), head(g) ~ tail(g').
    link: dict[int, int] = {}
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
        if kb != _OPPOSITE_MARK[ka]:
            out.append(f"marks of glued vertices {a} ({ka}) and {b} ({kb}) clash")

    # Every end of an identified stretch must sit at a suture vertex, so
    # marked points never end up half-identified.
    degree: dict[int, int] = {}
    for h in glued:
        for v in (host.tail(h), host.head[h]):
            degree[v] = degree.get(v, 0) + 1
    for v, d in sorted(degree.items()):
        if d > 2:
            out.append(f"vertex {v} is an endpoint of {d} glued halfedges")
        if d == 1 and host.mark_of(v) not in ("alpha_plus", "alpha_minus"):
            out.append(f"glued stretch ends at non-suture vertex {v}")

    if not out and gamma:
        # Reject identifications that close off a component entirely: the
        # host components they merge must keep a boundary halfedge unglued.
        pairs = [(host.component_of(a), host.component_of(b)) for a, b in link.items()]
        merged = UnionFind(c for pair in pairs for c in pair)
        for a, b in pairs:
            merged.union(a, b)
        unglued: dict[int, int] = {}
        for c in list(merged.parent):
            root = merged.find(c)
            unglued[root] = unglued.get(root, 0) + host.boundary_size(c)
        for h in glued:
            unglued[merged.find(host.component_of(host.head[h]))] -= 1
        if 0 in unglued.values():
            out.append("gluing would close a component")
    return out


class Gluing:
    """An orientation-reversing identification of two boundary collections.

    `gamma[i]` and `gamma_prime[i]` are face-resident boundary halfedges of
    `host`; the quotient welds them into one interior edge, matching the
    tail of each with the head of the other.
    """

    def __init__(self, host: Surface, gamma, gamma_prime):
        self.host = host
        self.gamma = tuple(gamma)
        self.gamma_prime = tuple(gamma_prime)
        problems = gluing_violations(host, self.gamma, self.gamma_prime)
        if problems:
            raise InvalidGluingError("; ".join(problems))

    def vertex_map(self) -> dict[int, int]:
        """Single-step identification of boundary vertices (both directions)."""
        link: dict[int, int] = {}
        for g, gp in zip(self.gamma, self.gamma_prime):
            link[self.host.tail(g)] = self.host.head[gp]
            link[self.host.head[g]] = self.host.tail(gp)
        return link

    def to_json_dict(self) -> dict:
        return {
            "gamma": list(self.gamma),
            "gamma_prime": list(self.gamma_prime),
            "vertex_map": {str(a): b for a, b in sorted(self.vertex_map().items())},
        }

    @classmethod
    def from_json_dict(cls, host: Surface, data: dict) -> "Gluing":
        g = cls(host, json_field(data, "gamma", list, InvalidGluingError),
                json_field(data, "gamma_prime", list, InvalidGluingError))
        try:
            stated = {int(a): json_int(b) for a, b in data.get("vertex_map", {}).items()}
        except (AttributeError, TypeError, ValueError):
            raise InvalidGluingError("vertex_map must send vertex ids to vertex ids") from None
        if stated and stated != g.vertex_map():
            raise InvalidGluingError("stated vertex_map disagrees with halfedge data")
        return g

    def __repr__(self) -> str:
        return f"Gluing(gamma={self.gamma}, gamma_prime={self.gamma_prime})"


# ---------------------------------------------------------------------------
# the quotient surface


@dataclass(frozen=True)
class GluedSurfaceData:
    """Quotient complex of a gluing plus the bookkeeping to map into it.

    vertex_map / halfedge_map send host cells to quotient cells; the old
    faceless partner of each glued halfedge maps to the surviving halfedge
    on the opposite side.  `swallowed` lists positive suture vertices whose
    image left the boundary, by increasing quotient id.
    """

    gluing: Gluing
    result: Surface
    vertex_map: dict[int, int]
    halfedge_map: dict[int, int]
    swallowed: tuple[int, ...]


def glue(tau: Gluing) -> GluedSurfaceData:
    """Weld each gamma[i] to gamma_prime[i] reversed and remark the quotient.

    The quotient is re-checked only at the merged vertex classes, by
    `validate_near`.  A valid Gluing on a valid host keeps every other
    rule of `validate_surface`:

    * twin involution: g and g' become each other's twins, their faceless
      old twins go with their heads, and no other pair changes;
    * face walks: they are the host's, and only faceless halfedges die.
      Where a walk enters g, it continues from head(a) = tail(g) ~
      head(g'), the head of g's new twin; likewise at g'.  The welded edge
      lies in two faces, and every other edge keeps its faces;
    * an unmerged vertex keeps its outgoing halfedges, its fan and its
      boundary halfedges: a dead halfedge leaves head(g) or head(g'),
      each merged with a vertex across the weld, and the only halfedges
      whose twins change are g and g', which leave and enter merged
      vertices;
    * no closed component: `gluing_violations` refuses a gluing that
      would close one;
    * marks: an unmerged vertex keeps its mark and stays on the boundary,
      and a merged class carries one kind, kept only while the class is
      on the boundary, since stretches end at alpha vertices of one kind
      and F+ is glued to F-.  So each mark sits on one boundary vertex,
      and a boundary circle that avoids the merged classes is a host
      circle with its host marks.
    """
    host = tau.host
    link = tau.vertex_map()
    seams = UnionFind(x for pair in link.items() for x in pair)
    for a, b in link.items():
        seams.union(a, b)
    # the merged classes: every other vertex is a class of its own
    classes: dict[int, list[int]] = {}
    for v in seams.parent:
        classes.setdefault(seams.find(v), []).append(v)
    verts = host.vertices
    vmap = dict(zip(verts, verts))
    for members in classes.values():
        root = min(members)
        for v in members:
            vmap[v] = root

    twin = dict(host.twin)
    head = dict(host.head)
    halfedge_map = {h: h for h in host.twin}
    for g, gp in zip(tau.gamma, tau.gamma_prime):
        tg, tgp = host.twin[g], host.twin[gp]
        twin[g] = gp
        twin[gp] = g
        for dead, alive in ((tg, gp), (tgp, g)):
            del twin[dead]
            del head[dead]
            halfedge_map[dead] = alive
    head = {h: vmap[v] for h, v in head.items()}
    # the quotient boundary is the host boundary minus the glued halfedges
    glued = {*tau.gamma, *tau.gamma_prime}
    boundary = {vmap[v] for h in host.boundary_halfedges() if h not in glued
                for v in (host.head[h], host.tail(h))}
    # an unmerged vertex keeps its mark; a merged class is remarked whole
    marks = {k: set(host.marks[k]).difference(seams.parent) for k in MARK_KEYS}
    swallowed = []
    for members in sorted(classes.values(), key=min):
        root = min(members)
        kinds = {k for k in (host.mark_of(v) for v in members) if k is not None}
        if not kinds:
            continue
        if kinds <= {"F_plus", "F_minus"}:
            # A marked point glued to a marked point becomes interior.
            if root in boundary:
                raise InternalConsistencyError(
                    f"glued mark class {root} is still on the boundary")
            continue
        if len(kinds) != 1:
            raise InternalConsistencyError(f"mixed mark class {sorted(members)}")
        (kind,) = kinds
        if root in boundary:
            marks[kind].add(root)
        elif kind == "alpha_plus":
            swallowed.append(root)
    # the quotient builds its own indices on first use, like any surface
    result = Surface(twin, head, host.faces, marks)
    validate_near(result, [min(members) for members in classes.values()])
    return GluedSurfaceData(
        gluing=tau,
        result=result,
        vertex_map=vmap,
        halfedge_map=halfedge_map,
        swallowed=tuple(sorted(swallowed)),
    )


def pushforward_class(g: GluedSurfaceData, chain: Chain) -> Chain:
    """Image of a 1-chain on the host under the quotient map."""
    return push_chain(chain, g.halfedge_map, g.result)


# ---------------------------------------------------------------------------
# the induced morphism of contact algebras


def glued_relative_basis(g: GluedSurfaceData, ring: str) -> HomologyBasis:
    """Generic basis of the middle homology, H_1 of the quotient rel the
    image of every old positive suture, swallowed ones included."""
    rel = sorted({g.vertex_map[v] for v in g.gluing.host.marks["alpha_plus"]})
    return HomologyBasis(RelativeH1(g.result, rel), ring)


def _check_basis(basis: HomologyBasis, s: Surface, ring: str, role: str) -> None:
    if not _same_complex(basis.surface, s):
        raise ValidationError(f"{role} basis lives on a different surface")
    if len(basis.h1.faces) != len(s.faces):
        raise ValidationError(f"{role} basis spans only part of the surface")
    if basis.h1.rel != frozenset(s.marks["alpha_plus"]):
        raise ValidationError(f"{role} basis is not relative to the positive sutures")
    if basis.ring != ring:
        raise ValidationError(f"{role} basis is over {basis.ring!r}, not {ring!r}")


def gluing_morphism(g: GluedSurfaceData, x: Multivector,
                    host_basis: HomologyBasis | None = None,
                    result_basis: HomologyBasis | None = None) -> Multivector:
    """Push a multivector through a gluing: pushforward, contract with eta,
    then rewrite in a basis of H_1 of the quotient rel its own sutures."""
    ring = x.ring
    host, result = g.gluing.host, g.result
    hb = host_basis if host_basis is not None else default_basis(host, ring)
    _check_basis(hb, host, ring, "host")
    if x.rank != hb.rank:
        raise ValidationError(f"input rank {x.rank} != host basis rank {hb.rank}")
    if x.dual:
        raise ValidationError("gluing morphism acts on primal multivectors")
    tb = result_basis if result_basis is not None else default_basis(result, ring)
    _check_basis(tb, result, ring, "result")
    return _morphism(g, x, hb.cycles, tb)


def _morphism(g: GluedSurfaceData, x: Multivector, chains,
              tb: HomologyBasis) -> Multivector:
    """The gluing morphism on x, over the classes of host `chains`, in tb.

    The middle homology H_1(S', A ∪ B), A the quotient's positive sutures
    and B the swallowed ones, is written in the split basis: tb's cycles,
    then one tree path q_b from A to each b.  A class there has coordinate
    d_b = (coefficient of b in its boundary) on q_b, so eta, the wedge of
    those functionals, is the top dual wedge of the q_b block, the
    sub-basis tb is [I; 0], and rewriting in tb is dropping the q_b block.
    """
    n, k = tb.rank, len(g.swallowed)
    paths = [tb.h1.path_from_rel(b) for b in g.swallowed]
    cols = []
    for c in chains:
        pc = pushforward_class(g, c)
        bd = chain_boundary(g.result, pc) if k else {}
        d = [bd.get(b, 0) for b in g.swallowed]
        for db, q in zip(d, paths):
            if db:
                pc = chain_add(pc, q, -db)
        cols.append(tb.express(pc) + d)  # induced_map reduces d mod 2 over F2
    y = induced_map(transpose(cols), x, target_rank=n + k)
    block = ((1 << k) - 1) << n  # 0 without swallowed vertices: eta is 1
    y = interior(Multivector(n + k, {block: 1}, x.ring, dual=True), y)
    if any(m >> n for m in y.terms):
        raise InternalConsistencyError(
            "interior product left the image of the glued sub-basis")
    return Multivector(n, y.terms, x.ring)


def _same_complex(a: Surface, b: Surface) -> bool:
    return a is b or (a.twin == b.twin and a.head == b.head
                      and a.faces == b.faces and a.marks == b.marks)


def push_dividing_set(g: GluedSurfaceData, ds: DividingSet) -> DividingSet:
    """Image of a dividing set under a gluing.

    The K edges are interior, so they survive the quotient with their
    ids, twins and faces, and the faces keep their signs.  The pushed set
    is checked only where the weld can break a rule: equal face signs
    across each welded edge, and the vertex rules (K degree, sutures,
    the boundary of K) at the merged vertex classes.  The rest carries
    over from ds:

    * K edges stay interior and distinct, with their positive faces on
      the left;
    * every plain interior edge of the host keeps its two faces;
    * the quotient boundary is the host boundary minus the welded
      halfedges, and each remaining halfedge keeps its arc sign: a
      glued stretch ends at alpha vertices of one kind, and an alpha
      vertex lies inside an arc of its kind's sign, so the sign before
      and after it agree on both sides of the weld;
    * an unmerged vertex keeps its K halfedges, its mark and its place
      on or off the boundary.

    A welded edge joins the faces of two boundary arcs of one sign, so
    on a valid Gluing the check refuses nothing; it is kept so that a
    refusal never goes unseen.
    """
    if not _same_complex(ds.surface, g.gluing.host):
        raise ValidationError("dividing set lives on a different surface")
    tau = g.gluing
    k2 = tuple(g.halfedge_map[h] for h in ds.k_halfedges)
    merged = {g.vertex_map[v] for v in tau.vertex_map()}
    return _welded_dividing_set(g.result, k2, ds.face_signs, sorted(merged), tau.gamma)


def _respect_parts(g: GluedSurfaceData, ds: DividingSet, host_regions: dict):
    """The parts of a respect check that no coefficient ring enters,
    built once per gluing: H_1(R+, a+) with the grade L(K) of ds and of
    its image K_tau.  Those of ds are looked up in, or added to,
    `host_regions`, keyed by the DividingSet object, so gluings of one
    set share them.  Pushing ds first rejects a dividing set on another
    surface before any work."""
    pushed = push_dividing_set(g, ds)
    if ds not in host_regions:
        host_regions[ds] = _region(ds, "plus")
    return g, host_regions[ds], _region(pushed, "plus")


def _respects(parts, ring: str, result_basis: HomologyBasis) -> bool:
    """The respect check over one ring, on parts from `_respect_parts`:
    c(K) is the wedge of the region classes v_i (or 0 off grade), which
    the morphism sends to the wedge of the pushed m.v_i."""
    g, (hr, grade), target = parts
    reps = [hr.representative(i) for i in range(hr.rank)]
    x = (Multivector.top if grade == hr.rank else Multivector.zero)(hr.rank, ring)
    lhs = _morphism(g, x, reps, result_basis)
    return equal_up_to_sign(lhs, _wedge_region(*target, result_basis, ring).value)


def check_respect(g: GluedSurfaceData, ds: DividingSet, ring: str = RING_F2) -> bool:
    """Does the gluing morphism send c(K) to c(K_tau)?

    Exact equality mod 2; over the integers equality is only demanded up
    to a global sign.  The region classes of K are pushed straight into
    the quotient's basis: three H_1 in all, of the quotient and the two
    positive regions, and none of the host.
    """
    return _respects(_respect_parts(g, ds, {}), ring, default_basis(g.result, ring))


# ---------------------------------------------------------------------------
# cutting


def _fan_groups(s: Surface, v: int, cut_edges: set[int],
               boundary: set[int]) -> tuple[dict[int, int], int]:
    """Group the outgoing halfedges at v, in fan order, by the corners left
    connected once the cut edges are severed; group 0 keeps the old vertex
    id.  ``boundary`` holds the boundary vertices of s."""
    fan = s.outgoing_fan(v)
    n = len(fan)
    corners = UnionFind(range(n))
    # Crossing the ray of fan[i] moves between the corners at positions
    # i-1 and i, so an uncut ray merges them.
    for i in range(1, n):
        if s.canonical(fan[i]) not in cut_edges:
            corners.union(i, i - 1)
    if v not in boundary and s.canonical(fan[0]) not in cut_edges:
        corners.union(0, n - 1)
    ordinal: dict[int, int] = {}
    for i in range(n):
        ordinal.setdefault(corners.find(i), len(ordinal))
    return {fan[i]: ordinal[corners.find(i)] for i in range(n)}, len(ordinal)


def cut_open(s: Surface, path) -> Surface:
    """Slice the surface along one interior halfedge path.

    The arc runs from a positive to a negative suture vertex through
    interior vertices and needs at least two edges (subdivide first if
    necessary).  Its halfedges keep their ids on the cut surface, and
    gluing each of them to its old twin there reproduces `s` exactly.

    The cut surface is re-checked only at the copies of the arc's
    vertices, by `validate_near`.  On a valid `s` the cut keeps every
    other rule of `validate_surface`:

    * twin involution: each cut edge becomes two edges, the arc halfedge
      and its old twin each paired with a fresh faceless halfedge;
    * face walks: they are unchanged.  The head of an old twin at an arc
      vertex is the copy holding the corner where its walk goes on, and a
      fresh twin ends at the copy its arc halfedge leaves from, so every
      walk stays connected; every edge keeps a face;
    * a vertex off the arc keeps its outgoing halfedges, its fan and its
      boundary halfedges: the twins that change are those of arc
      halfedges, and both ends of each lie on the arc;
    * no closed component: a cut only adds boundary, and a component
      that holds a copy holds an arc halfedge, now on the boundary;
    * marks: every copy of an arc end gets the end's alpha mark, the two
      copies of the first inner vertex, which was interior and unmarked,
      get F- and F+, and every copy lies on the boundary.
    """
    path = tuple(path)
    if len(path) < 2:
        raise InvalidGluingError(
            "cut arc needs an interior vertex; subdivide its edge first")
    for h in path:
        if h not in s.twin:
            raise InvalidGluingError(f"unknown halfedge {h}")
        if not s.is_interior_edge(h):
            raise InvalidGluingError(f"cut halfedge {h} is not interior")
    for a, b in zip(path, path[1:]):
        if s.head[a] != s.tail(b):
            raise InvalidGluingError("cut arc is not a connected path")
    # a connected path that reuses an edge revisits a vertex
    verts = [s.tail(path[0])] + [s.head[h] for h in path]
    if len(set(verts)) != len(verts):
        raise InvalidGluingError("cut arc revisits a vertex")
    if {s.mark_of(verts[0]), s.mark_of(verts[-1])} != {"alpha_plus", "alpha_minus"}:
        raise InvalidGluingError(
            "cut arc must join a positive and a negative suture vertex")
    boundary = s.boundary_vertices()
    for v in verts[1:-1]:
        if v in boundary:
            raise InvalidGluingError(f"cut arc crosses boundary vertex {v}")
    cut_edges = {s.canonical(h) for h in path}

    twin = dict(s.twin)
    head = dict(s.head)
    nxt_h = s.fresh_halfedge()
    for c in sorted(cut_edges):
        t = s.twin[c]
        for h, p in ((c, nxt_h), (t, nxt_h + 1)):
            twin[h], twin[p] = p, h
            head[p] = s.tail(h)
        nxt_h += 2

    copies: dict[int, list[int]] = {}
    fresh_v = s.fresh_vertex()
    head_fix: dict[int, int] = {}
    for v in sorted(verts):
        assign, ngroups = _fan_groups(s, v, cut_edges, boundary)
        copies[v] = ids = [v, *range(fresh_v, fresh_v + ngroups - 1)]
        fresh_v += ngroups - 1
        # The halfedges into v are the old twins of its fan and the new
        # twins of its cut halfedges.  The face walks are unchanged, so
        # they find the corner of an old twin; a new one sits at the
        # corner of the halfedge it was cut from.
        for o, group in assign.items():
            x = s.twin[o]
            head_fix[x] = ids[assign[s.walk_next(x)]] if s.in_face(x) else ids[group]
            if s.canonical(o) in cut_edges:
                head_fix[twin[o]] = ids[group]
    head.update(head_fix)

    marks = {k: set(vs) for k, vs in s.marks.items()}
    for v in (verts[0], verts[-1]):
        marks[s.mark_of(v)].update(copies[v])
    sides = copies[verts[1]]
    if len(sides) != 2:
        raise InternalConsistencyError(
            f"cut vertex {verts[1]} split into {len(sides)} copies")
    # The seam copy left of the arc lies on a boundary stretch running
    # from the first arc end to the last, the other copy on one running
    # back; a stretch from a negative to a positive suture is positive.
    left = head[path[0]]
    right, = set(sides) - {left}
    if s.mark_of(verts[0]) == "alpha_minus":
        left, right = right, left
    marks["F_minus"].add(left)
    marks["F_plus"].add(right)

    # the cut surface builds its own indices on first use, like any surface
    s2 = Surface(twin, head, s.faces, marks)
    validate_near(s2, [c for ids in copies.values() for c in ids])
    return s2


# ---------------------------------------------------------------------------
# realizing arcs as edge paths


def _chord_candidates(s: Surface, u: int, w: int) -> list[tuple[int, int, int]]:
    """Every (face, corner, corner) at which a split joins u to w, sorted."""
    at_w: dict[int, list[int]] = {}
    for fi, j in s.corners(w):
        at_w.setdefault(fi, []).append(j)
    return [(fi, i, j) for fi, i in s.corners(u) for j in at_w.get(fi, ())]


def _apply_chord(d: _Draft, fi: int, i: int, j: int, u: int, w: int) -> int:
    a = d.split(fi, i, j)
    h = a if d.head[a] == w else d.twin[a]
    if d.tail(h) != u or d.head[h] != w:
        raise InternalConsistencyError(f"chord {u}->{w} landed elsewhere")
    return h


def _cofacial_neighbors(s: Surface, u: int) -> list[int]:
    head = s.head
    nbrs = {head[h] for fi in {fi for fi, _ in s.corners(u)} for h in s.faces[fi]}
    nbrs.discard(u)
    return sorted(nbrs)


def _corridor(s: Surface, va: int, vb: int, avoid) -> list[int] | None:
    """Shortest chain of co-facial vertices from va to vb whose interior
    stops are interior vertices, or None."""
    boundary = s.boundary_vertices()
    prev: dict[int, int | None] = {va: None}
    frontier = [va]
    while frontier and vb not in prev:
        nxt = []
        for u in frontier:
            for w in _cofacial_neighbors(s, u):
                if w in prev or w in avoid or (w != vb and w in boundary):
                    continue
                prev[w] = u
                nxt.append(w)
        frontier = nxt
    if vb not in prev:
        return None
    out = [vb]
    while prev[out[-1]] is not None:
        out.append(prev[out[-1]])
    out.reverse()
    return out


def _halve_single_edge(d: _Draft, hs: list[int], w: int) -> list[int]:
    """Cut arcs need an interior vertex, so split a one-edge path in two."""
    t = d.twin[hs[0]]
    mid = d.subdivide(hs[0])
    # the old twin keeps its id on the head-side piece, whose twin runs on
    second = d.twin[t]
    if d.tail(second) != mid or d.head[second] != w:
        raise InternalConsistencyError(f"subdivided edge has no half from {mid} to {w}")
    return [hs[0], second]


def _route_arc(d: _Draft, va: int, vb: int, avoid=frozenset(),
               protect=frozenset()) -> list[int]:
    """Split faces of the draft along a co-facial corridor from va to vb
    and return the resulting interior edge path.

    If no corridor exists (too few interior vertices), every unprotected
    interior edge is subdivided once to create waypoints and the search
    runs again.  The path holds fresh halfedges only, so earlier paths
    survive untouched as long as their edges are protected.
    """
    path_vertices = _corridor(d, va, vb, avoid)
    if path_vertices is None:
        for e in sorted(e for e, t in d.twin.items() if e < t):
            if d.is_interior_edge(e) and e not in protect:
                d.subdivide(e)
        path_vertices = _corridor(d, va, vb, avoid)
        if path_vertices is None:
            raise UnsupportedSurfaceError(f"no interior corridor joins {va} to {vb}")

    hs: list[int] = []
    for u, w in zip(path_vertices, path_vertices[1:]):
        cands = _chord_candidates(d, u, w)
        if not cands:
            raise InternalConsistencyError(f"lost co-faciality of {u} and {w}")
        hs.append(_apply_chord(d, *cands[0], u, w))
    return _halve_single_edge(d, hs, vb) if len(hs) == 1 else hs


def _realize_arc(s: Surface, va: int, vb: int) -> tuple[Surface, list[int]]:
    """`_route_arc` on a draft of s: the refined surface and the path."""
    d = _Draft(s)
    hs = _route_arc(d, va, vb)
    return d.freeze(), hs


# ---------------------------------------------------------------------------
# quadrangulation


def _find_genus_cut(s: Surface) -> tuple[Surface, tuple[int, ...], tuple[int, ...]]:
    """Find an arc whose cut lowers the total genus; returns the cut
    surface, the arc and the twins the arc had before the cut.

    Tries direct chords between opposite suture vertices over every corner
    occurrence, then retries through the midpoint of each interior edge in
    turn.  The first success in this fixed order wins, which keeps the
    outcome deterministic.
    """
    base = s.genus()
    aps = sorted(s.marks["alpha_plus"])
    ams = sorted(s.marks["alpha_minus"])

    def trial(start: Surface, chords, vb: int):
        d = _Draft(start)
        hs = [_apply_chord(d, *c, u, w) for c, u, w in chords]
        if len(hs) == 1:
            hs = _halve_single_edge(d, hs, vb)
        cur = d.freeze()
        twins = tuple(cur.twin[h] for h in hs)
        try:
            cut_s = cut_open(cur, hs)
        except InvalidGluingError:
            return None
        if cut_s.genus() >= base:
            return None
        return cut_s, tuple(hs), twins

    for va in aps:
        for vb in ams:
            for c in _chord_candidates(s, va, vb):
                got = trial(s, [(c, va, vb)], vb)
                if got:
                    return got
    for e in sorted(e for e in s.edges() if s.is_interior_edge(e)):
        r0, mid = subdivide_edge(s, e)
        s1 = r0.surface
        for va in aps:
            for vb in ams:
                for c1 in _chord_candidates(s1, va, mid):
                    # a probe, never frozen: each trial redoes c1 on its own draft
                    probe = _Draft(s1)
                    _apply_chord(probe, *c1, va, mid)
                    for c2 in _chord_candidates(probe, mid, vb):
                        got = trial(s1, [(c1, va, mid), (c2, mid, vb)], vb)
                        if got:
                            return got
    raise UnsupportedSurfaceError(
        "no genus-reducing cut found by the bounded arc search")


def _circle_merge_target(s: Surface) -> tuple[int, int] | None:
    """A pair of opposite suture vertices on different boundary circles of
    one component, or None once every component has a single circle."""
    for comp, mine, _ in s.component_topology():
        if len(mine) < 2:
            continue
        va = min(v for v in s.marks["alpha_plus"] if v in comp)
        home = next(c for c in mine if va in [s.tail(h) for h in c])
        for c in mine:
            if c is home:
                continue
            ams = sorted(v for v in (s.tail(h) for h in c)
                         if v in s.marks["alpha_minus"])
            if ams:
                return va, ams[0]
        raise InternalConsistencyError("boundary circle with no negative suture")
    return None


def _fan_target(s: Surface) -> tuple[int, int] | None:
    """On a disk piece with three or more positive sutures, the first
    positive suture vertex and the opposite one three steps along."""
    for circle in s.boundary_circles():
        tails = [s.tail(h) for h in circle]
        alphas = [v for v in tails
                  if s.mark_of(v) in ("alpha_plus", "alpha_minus")]
        if len(alphas) < 6:
            continue
        start = next(i for i, v in enumerate(alphas)
                     if s.mark_of(v) == "alpha_plus")
        va = alphas[start]
        vb = alphas[(start + 3) % len(alphas)]
        if s.mark_of(vb) != "alpha_minus":
            raise InternalConsistencyError(f"suture {vb} breaks the marking pattern")
        return va, vb
    return None


@dataclass(frozen=True)
class DecompositionResult:
    """A surface refined and sliced into square pieces.

    refined -- the input complex with all the extra chords added
    pieces  -- the disjoint squares, plus any atomic one-suture disks
    cuts    -- the halfedge path of each cut, as halfedges of `pieces`
    reverse -- single gluing on `pieces` whose quotient is `refined`
    """

    refined: Surface
    pieces: Surface
    cuts: tuple[tuple[int, ...], ...]
    reverse: Gluing


def quadrangulate(s: Surface) -> DecompositionResult:
    """Cut a sutured surface into squares: two positive sutures per piece.

    Cuts remove genus first, then merge multiple boundary circles, then
    fan larger disk pieces down; one-suture disk components are left
    untouched since they admit no cut at all.  The reverse gluing re-welds
    every cut at once, swallows nothing, and its induced morphism is an
    invertible change of basis.
    """
    validate_surface(s)
    cur = s
    cuts: list[tuple[int, ...]] = []
    twins: list[int] = []
    while cur.genus() > 0:
        cur, path, path_twins = _find_genus_cut(cur)
        cuts.append(path)
        twins.extend(path_twins)
    for find_target in (_circle_merge_target, _fan_target):
        while (target := find_target(cur)) is not None:
            mid_s, hs = _realize_arc(cur, *target)
            cuts.append(tuple(hs))
            twins.extend(mid_s.twin[h] for h in hs)
            cur = cut_open(mid_s, hs)

    if cur.genus() != 0:
        raise InternalConsistencyError("pieces have leftover genus")
    for comp, circles, _ in cur.component_topology():
        if len(circles) != 1:
            raise InternalConsistencyError("piece with several boundary circles")
        npos = len(comp & cur.marks["F_plus"])
        if npos not in (1, 2):
            raise InternalConsistencyError(f"piece with {npos} positive sutures")

    reverse = Gluing(cur, tuple(h for path in cuts for h in path), tuple(twins))
    glued = glue(reverse)
    if glued.swallowed:
        raise InternalConsistencyError("re-welding swallowed a suture")
    refined = glued.result
    try:
        HomologyBasis(RelativeH1(refined, refined.marks["alpha_plus"]), RING_Z,
                      cycles=[pushforward_class(glued, c)
                              for c in default_basis(cur, RING_Z).cycles])
    except ValidationError as exc:
        raise InternalConsistencyError("re-welding morphism is not invertible") from exc
    return DecompositionResult(
        refined=refined,
        pieces=cur,
        cuts=tuple(cuts),
        reverse=reverse,
    )


def square_chord_family(dec: DecompositionResult):
    """Dividing-set chords on the square pieces, all realized at once.

    Returns (pieces, reverse, options): `options[i]` lists, for piece i in
    component order, the alternative chord systems (each a tuple of edge
    paths) — two ways to join neighbouring sutures on a square, one on a
    one-suture disk.  Choosing an option per piece yields a dividing set
    on `pieces`, and `reverse` re-welds the pieces on the shared
    refinement.  All paths are realized on one draft of the pieces, frozen
    once, so the resulting contact elements are comparable.
    """
    cur = dec.pieces
    plans: list[list[list[tuple[int, int]]]] = []
    for _, circles, _ in cur.component_topology():
        circle = circles[0]
        tails = [cur.tail(h) for h in circle]
        fs = [v for v in tails if cur.mark_of(v) in ("F_plus", "F_minus")]
        if len(fs) == 2:
            plans.append([[(fs[0], fs[1])]])
        elif len(fs) == 4:
            plans.append([[(fs[0], fs[1]), (fs[2], fs[3])],
                          [(fs[1], fs[2]), (fs[3], fs[0])]])
        else:
            raise InternalConsistencyError(f"piece with {len(fs)} sutures")
    d = _Draft(cur)
    protect: set[int] = set()
    options: list[list[tuple[tuple[int, ...], ...]]] = []
    for alts in plans:
        piece_opts: list[tuple[tuple[int, ...], ...]] = []
        for chords in alts:
            paths: list[tuple[int, ...]] = []
            used: set[int] = set()
            for fa, fb in chords:
                # chord edges are fresh, so earlier paths survive as-is
                hs = _route_arc(d, fa, fb, avoid=used, protect=protect)
                protect.update(d.canonical(h) for h in hs)
                used.update(d.head[h] for h in hs[:-1])
                paths.append(tuple(hs))
            piece_opts.append(tuple(paths))
        options.append(piece_opts)
    cur = d.freeze()
    reverse = Gluing(cur, dec.reverse.gamma, dec.reverse.gamma_prime)
    return cur, reverse, options
