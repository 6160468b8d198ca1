"""Dividing sets: oriented interior multicurves and the face coloring they force.

A dividing set on a marked surface is a collection K of interior edges.
K and the sutures fix a sign for every face: a face touching a boundary
arc takes the arc's sign (+ through ``a_plus``, - through ``a_minus``),
and signs agree across plain interior edges and flip across K.  So the
constructor takes K alone; `infer_face_signs` derives the coloring,
refusing a clash, and `orient_by_signs` turns each K edge to keep its
positive face on the left.  The constructor then checks the rest:

  * K edges are known, interior and pairwise distinct;
  * the boundary of K as a 0-chain is  sum(F+) - sum(F-);
  * no vertex meets more than two K edges; sutures meet exactly one and
    other boundary vertices none.

The last two rules are checked vertex by vertex.  ``from_json_dict``
first checks the stated K and signs against every rule
(:func:`dividing_set_violations`); the image of a dividing set under a
gluing keeps its carried signs and is checked only at the merged
vertices and across the welded edges (``gluing.push_dividing_set``).

Closed K components (circles) are allowed.  ``regions`` reads the face
sets of the positive/negative regions R+ / R- off the face signs; the
grading L(K) = n(F) - euler(R+) is read off the region's homology build
(``contact``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator

from .errors import (InternalConsistencyError, InvalidChordDiagramError,
                     InvalidDividingSetError, json_field)
from .surface import (
    Refinement,
    Surface,
    _Draft,
    add_detached_circle,
    disk_position,
    standard_disk,
)
from .models import SurfaceModel, annulus_model


def boundary_arc_signs(s: Surface) -> dict[int, int]:
    """Sign of the boundary arc through each boundary halfedge.

    Walking a boundary circle, the arc sign flips to + at every F_plus
    vertex and to - at every F_minus vertex; subdivision vertices keep
    the running sign.
    """
    out: dict[int, int] = {}
    for circle in s.boundary_circles():
        start = None
        for idx, h in enumerate(circle):
            if s.mark_of(s.tail(h)) in ("F_plus", "F_minus"):
                start = idx
                break
        if start is None:
            raise InvalidDividingSetError("boundary circle has no suture")
        sign = 0
        for i in range(len(circle)):
            h = circle[(start + i) % len(circle)]
            kind = s.mark_of(s.tail(h))
            if kind == "F_plus":
                sign = 1
            elif kind == "F_minus":
                sign = -1
            out[h] = sign
    return out


def infer_face_signs(s: Surface, k_edges) -> dict[int, int]:
    """Propagate the face coloring forced by K and the boundary arcs.

    Seeds every face touching the boundary from its arc signs, then
    spreads inward: equal across plain interior edges, flipped across K.
    Raises InvalidDividingSetError when the constraints clash or some
    face stays unreachable.
    """
    kset = {s.canonical(h) for h in k_edges}
    signs: dict[int, int] = {}
    queue: list[int] = []
    for h, sign in boundary_arc_signs(s).items():
        f = s.face_of(h)
        if signs.get(f, sign) != sign:
            raise InvalidDividingSetError(f"face {f} touches boundary arcs of both signs")
        if f not in signs:
            signs[f] = sign
            queue.append(f)
    while queue:
        f = queue.pop()
        for h in s.faces[f]:
            t = s.twin[h]
            if not s.in_face(t):
                continue
            g = s.face_of(t)
            want = -signs[f] if s.canonical(h) in kset else signs[f]
            if g in signs:
                if signs[g] != want:
                    raise InvalidDividingSetError(
                        f"faces {f} and {g} force an inconsistent coloring")
            else:
                signs[g] = want
                queue.append(g)
    if len(signs) != len(s.faces):
        missing = sorted(set(range(len(s.faces))) - set(signs))
        raise InvalidDividingSetError(f"coloring does not reach faces {missing}")
    return signs


def orient_by_signs(s: Surface, k_edges, signs: dict[int, int]) -> tuple[int, ...]:
    """Pick, for each K edge, the halfedge living in its positive face."""
    out = []
    for e in k_edges:
        h = s.canonical(e)
        t = s.twin[h]
        if signs[s.face_of(h)] > 0:
            out.append(h)
        elif signs[s.face_of(t)] > 0:
            out.append(t)
        else:
            raise InternalConsistencyError(f"edge {h} borders two negative faces")
    return tuple(out)


_SUTURE_SIGN = {"F_plus": 1, "F_minus": -1}


def _vertex_violations(s: Surface, v: int, k_in: dict[int, int],
                       k_out: dict[int, int], boundary) -> list[str]:
    """The rules at one vertex: the boundary of K has coefficient +1 at
    F+, -1 at F- and 0 elsewhere; at most two K edges meet v, exactly one
    if v is a suture and none if it is another boundary vertex."""
    out = []
    kind = s.mark_of(v)
    got_in, got_out = k_in.get(v, 0), k_out.get(v, 0)
    if got_in - got_out != _SUTURE_SIGN.get(kind, 0):
        out.append(f"boundary of K is not sum(F+) - sum(F-) at vertex {v}")
    d = got_in + got_out
    if d > 2:
        out.append(f"vertex {v} meets {d} K edges")
    if kind in _SUTURE_SIGN and d != 1:
        out.append(f"suture {v} meets {d} K edges")
    elif v in boundary and kind not in _SUTURE_SIGN and d != 0:
        out.append(f"boundary vertex {v} meets K away from the sutures")
    return out


def _sign_change(s: Surface, e: int, face_signs) -> list[str]:
    """Faces meeting across the plain interior edge e share their sign."""
    if face_signs[s.face_of(e)] != face_signs[s.face_of(s.twin[e])]:
        return [f"sign change across the plain edge {e}"]
    return []


def _k_violations(s: Surface, k) -> list[str]:
    """K edges are known halfedges, pairwise distinct and interior."""
    for h in k:
        if h not in s.twin:
            return [f"unknown halfedge {h}"]
    out = []
    if len({s.canonical(h) for h in k}) != len(k):
        out.append("repeated K edge")
    for h in k:
        if not s.is_interior_edge(h):
            out.append(f"K edge {h} is not interior")
    return out


def _vertex_rule_violations(s: Surface, k, vertices=None) -> list[str]:
    """The vertex rules at `vertices`; by default wherever they can fail,
    at the ends of K and at the sutures."""
    k_in: dict[int, int] = {}
    k_out: dict[int, int] = {}
    for h in k:
        k_in[s.head[h]] = k_in.get(s.head[h], 0) + 1
        k_out[s.tail(h)] = k_out.get(s.tail(h), 0) + 1
    if vertices is None:
        vertices = sorted(k_in.keys() | k_out.keys() | s.marks["F_plus"] | s.marks["F_minus"])
    boundary = s.boundary_vertices()
    return [m for v in vertices for m in _vertex_violations(s, v, k_in, k_out, boundary)]


def dividing_set_violations(s: Surface, k_halfedges, face_signs) -> list[str]:
    """All rule violations for a stated K and coloring (empty = valid)."""
    k = list(k_halfedges)
    out = _k_violations(s, k)
    if any(h not in s.twin for h in k):
        return out
    if sorted(face_signs) != list(range(len(s.faces))):
        out.append("face_signs keys do not match faces")
        return out
    if any(v not in (1, -1) for v in face_signs.values()):
        out.append("face signs must be +1 or -1")
        return out
    for h in k:
        if not s.is_interior_edge(h):
            continue
        if face_signs[s.face_of(h)] != 1:
            out.append(f"K halfedge {h} does not keep its positive face on the left")
        if face_signs[s.face_of(s.twin[h])] != -1:
            out.append(f"K halfedge {h} has a non-negative face on its right")
    kset = {s.canonical(h) for h in k}
    for e in s.edges():
        if e not in kset and s.is_interior_edge(e):
            out += _sign_change(s, e, face_signs)
    for h, sign in boundary_arc_signs(s).items():
        if face_signs[s.face_of(h)] != sign:
            out.append(f"face {s.face_of(h)} disagrees with its boundary arc")
    return out + _vertex_rule_violations(s, k)


class DividingSet:
    """An oriented dividing multicurve and the face coloring it forces.

    ``DividingSet(surface, k_edges)`` takes each K edge by either of its
    halfedges.  ``k_halfedges`` lists them in the given order, each turned
    to keep its positive face on the left, and ``face_signs`` maps every
    face to +1 or -1; both are derived from K and the sutures.  A K that
    breaks a rule is refused with InvalidDividingSetError.
    """

    def __init__(self, surface: Surface, k_edges):
        k = tuple(k_edges)
        bad = _k_violations(surface, k)
        if bad:
            raise InvalidDividingSetError("; ".join(bad))
        self.surface = surface
        self.face_signs = infer_face_signs(surface, k)
        self.k_halfedges = orient_by_signs(surface, k, self.face_signs)
        bad = _vertex_rule_violations(surface, self.k_halfedges)
        if bad:
            raise InvalidDividingSetError("; ".join(bad))

    def to_json_dict(self) -> dict:
        d = self.surface.to_json_dict()
        d["K"] = sorted(self.k_halfedges)
        d["signs"] = {str(f): ("+" if v > 0 else "-")
                      for f, v in sorted(self.face_signs.items())}
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "DividingSet":
        s = Surface.from_json_dict(d)
        k = json_field(d, "K", list, InvalidDividingSetError)
        signs = json_field(d, "signs", dict, InvalidDividingSetError)
        for v in signs.values():
            if v not in ("+", "-"):
                raise InvalidDividingSetError(f"face sign {v!r} is not '+' or '-'")
        try:
            face_signs = {int(f): 1 if v == "+" else -1 for f, v in signs.items()}
        except ValueError as exc:
            raise InvalidDividingSetError(f"face id in 'signs' is not an integer: {exc}") from None
        if len(face_signs) < len(signs):  # keys such as "0" and "00" name one face
            raise InvalidDividingSetError("'signs' gives one face two signs")
        bad = dividing_set_violations(s, k, face_signs)
        if bad:
            raise InvalidDividingSetError("; ".join(bad))
        return cls(s, k)


def _welded_dividing_set(s: Surface, k_halfedges, face_signs, vertices,
                         edges) -> DividingSet:
    """The image of a valid dividing set under a gluing, checked only
    where the weld can break a rule: the vertex rules at the merged
    `vertices` and equal signs across the welded plain `edges`.

    `gluing.push_dividing_set` argues why every other rule carries over,
    so the carried coloring is kept as it is.  Everywhere else a
    DividingSet derives its coloring from K in its constructor."""
    bad = [m for e in edges for m in _sign_change(s, e, face_signs)]
    bad += _vertex_rule_violations(s, k_halfedges, vertices)
    if bad:
        raise InvalidDividingSetError("; ".join(bad))
    ds = object.__new__(DividingSet)
    ds.surface = s
    ds.k_halfedges = tuple(k_halfedges)
    ds.face_signs = dict(face_signs)
    return ds


@dataclass(frozen=True)
class RegionDecomposition:
    """The faces of R+ and R-."""
    faces_plus: frozenset[int]
    faces_minus: frozenset[int]


def regions(ds: DividingSet) -> RegionDecomposition:
    """R+ is the faces signed +1 and R- the faces signed -1.

    Each piece of the complement of K has one sign: its faces meet across
    plain interior edges, and the coloring was inferred equal across each
    such edge when ds was built (a welded image is checked across its
    welded edges).  So the union of the positive pieces is exactly the
    positive faces, with no pass over the pieces themselves.
    """
    fplus = frozenset(f for f, sign in ds.face_signs.items() if sign > 0)
    return RegionDecomposition(faces_plus=fplus,
                               faces_minus=frozenset(ds.face_signs) - fplus)


def add_trivial_circle(ds: DividingSet, face_id: int) -> tuple[DividingSet, Refinement]:
    """Insert a contractible K circle inside the given face at its first corner.

    The circle bounds a 2-gon whose sign is opposite to the ambient
    face, so the new piece is a component of R+ or R- with no boundary
    arc: the result is isolating by construction.
    """
    ref, (a, b) = add_detached_circle(ds.surface, face_id, 0)
    return DividingSet(ref.surface, ds.k_halfedges + (a, b)), ref


# -- chord diagrams on the standard disk ----------------------------------

def _first_crossing(pairs) -> tuple[tuple[int, int], tuple[int, int]]:
    """The crossing a-b, c-d (a < c < b < d) that comes first in pair
    order: the least such a, then the least such c.

    Sweeping the sutures, a-b is crossed from inside exactly when some
    chord opened after it is still open as it closes, that is when it is
    not the last open start; closed starts leave that stack lazily."""
    high = dict(pairs)
    low = {b: a for a, b in pairs}
    starts: list[int] = []
    closed: set[int] = set()
    first = None
    for p in range(1, 2 * len(pairs) + 1):
        if p in high:
            starts.append(p)
            continue
        a = low[p]
        while starts[-1] in closed:
            starts.pop()
        if starts[-1] != a and (first is None or a < first):
            first = a
        closed.add(a)
    b = high[first]
    return (first, b), next((c, d) for c, d in pairs if first < c < b < d)


@dataclass(frozen=True)
class ChordDiagram:
    """A noncrossing perfect matching of the 2n sutures of a disk.

    Pairs are stored as (min, max) in increasing order of the first
    entry; the text form joins them with commas, e.g. ``"1-4,2-3"``.
    """
    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        flat = sorted(p for pair in self.pairs for p in pair)
        if flat != list(range(1, 2 * self.n + 1)):
            raise InvalidChordDiagramError(f"pairs do not match the sutures 1..{2 * self.n}")
        if any(a > b for a, b in self.pairs):
            raise InvalidChordDiagramError("pairs must be (low, high)")
        if list(self.pairs) != sorted(self.pairs):
            raise InvalidChordDiagramError("pairs must be sorted")
        for a, b in self.pairs:
            if (a + b) % 2 == 0:
                raise InvalidChordDiagramError(f"chord {a}-{b} joins sutures of one region parity")
        # One stack pass in pair order: the chords left open are nested, so
        # a chord crosses one of them exactly when it outlives the innermost.
        ends: list[int] = []
        for a, b in self.pairs:
            while ends and ends[-1] < a:
                ends.pop()
            if ends and ends[-1] < b:
                (a, b), (c, d) = _first_crossing(self.pairs)
                raise InvalidChordDiagramError(f"chords {a}-{b} and {c}-{d} cross")
            ends.append(b)

    @classmethod
    def parse(cls, text: str) -> "ChordDiagram":
        pairs = []
        for part in text.split(","):
            a, _, b = part.strip().partition("-")
            try:
                lo, hi = sorted((int(a), int(b)))
            except ValueError:
                raise InvalidChordDiagramError(
                    f"chord {part.strip()!r} is not of the form a-b") from None
            pairs.append((lo, hi))
        pairs.sort()
        return cls(len(pairs), tuple(pairs))

    def render(self) -> str:
        return ",".join(f"{a}-{b}" for a, b in self.pairs)

    def involution(self) -> dict[int, int]:
        out = {}
        for a, b in self.pairs:
            out[a] = b
            out[b] = a
        return out


def chord_diagrams(n: int, key=int) -> Iterator[ChordDiagram]:
    """Every noncrossing diagram on 2n points, by one depth-first walk: the
    least open point a takes each partner b in `key` order, and its run
    a..hi splits into the run inside a-b, walked first, and the run after
    b.  key=int gives pair order, key=str text order (the renders of one n
    have equal length, so none is a prefix of another).  Each b - a is odd
    and each chord closes inside its run, so no diagram needs the
    constructor's check."""
    pairs: list[tuple[int, int]] = []

    def walk(runs):
        if not runs:
            cd = object.__new__(ChordDiagram)
            cd.__dict__.update(n=n, pairs=tuple(pairs))
            yield cd
            return
        *rest, (a, hi) = runs
        for b in sorted(range(a + 1, hi + 1, 2), key=key):
            pairs.append((a, b))
            yield from walk(rest + [r for r in ((b + 1, hi), (a + 1, b - 1)) if r[0] < r[1]])
            pairs.pop()

    return walk([(1, 2 * n)] if n > 0 else [])


def enumerate_chord_diagrams(n: int) -> list[ChordDiagram]:
    """All noncrossing diagrams on 2n points, lexicographic on pair lists."""
    return list(chord_diagrams(n))


def catalan(n: int) -> int:
    """The number of noncrossing diagrams with n chords."""
    return comb(2 * n, n) // (n + 1)


def chord_diagram_at(n: int, k: int) -> ChordDiagram:
    """enumerate_chord_diagrams(n)[k], built from Catalan counts alone.

    That list takes the chord at the least point of a run of 2m points
    in order of its closing point; closing after 2i inside points leaves
    catalan(i) * catalan(m - 1 - i) diagrams, listed by inside part, then
    by outside part.  So the block of k picks the chord, and the quotient
    and remainder of k by the outside count rank the two parts."""
    cat = [catalan(i) for i in range(n + 1)]
    if not 0 <= k < cat[n]:
        raise InvalidChordDiagramError(f"diagram index {k} outside 0..{cat[n] - 1}")
    pairs = []
    runs = [(1, n, k)]  # (first point, chords, rank within the run)
    while runs:
        lo, m, k = runs.pop()
        if not m:
            continue
        i = 0
        while k >= cat[i] * cat[m - 1 - i]:
            k -= cat[i] * cat[m - 1 - i]
            i += 1
        pairs.append((lo, lo + 2 * i + 1))
        inside, outside = divmod(k, cat[m - 1 - i])
        runs += [(lo + 1, i, inside), (lo + 2 * i + 2, m - 1 - i, outside)]
    return ChordDiagram(n, tuple(sorted(pairs)))


def chord_to_dividing_set(cd: ChordDiagram) -> DividingSet:
    """Realize a chord diagram as chords of the standard disk.

    Each pair (a, b) becomes a face chord F_a -- F_b; the pairs are
    inserted in stored order, which always finds the two endpoints on a
    common face because the diagram is noncrossing.  The original
    boundary halfedges keep their ids, so the disk's boundary-path
    classes need no transport.  All chords go in on one draft of the disk.
    """
    s = standard_disk(cd.n)
    # a suture meets one chord, so until its chord goes in it has a
    # single corner: at its outgoing boundary halfedge, whose id stays
    leaving = {s.tail(h): h for h in s.boundary_halfedges()}
    d = _Draft(s)
    chords = []
    for a, b in cd.pairs:
        ha, hb = (leaving[disk_position("F", x)] for x in (a, b))
        fi = d.face_of(ha)
        if d.face_of(hb) != fi:
            raise InternalConsistencyError(f"chord {a}-{b} has no common face")
        walk = d.faces[fi]
        chords.append(d.split(fi, walk.index(ha), walk.index(hb)))
    return DividingSet(d.freeze(), chords)


# -- annulus fixtures ------------------------------------------------------

class _Builder:
    """Carves a dividing set out of a model surface on one edit draft, then
    carries the model's bases through the one refinement."""

    def __init__(self, model: SurfaceModel):
        self.model = model
        self.d = _Draft(model.surface)
        self.edge_map: dict[int, list[tuple[int, int]]] = {}

    def subdivide(self, u: int, v: int) -> int:
        hits = Surface.halfedges_between(self.d, u, v)  # the draft answers as a surface
        if len(hits) != 1:
            raise InternalConsistencyError(f"halfedge {u}->{v} is not unique")
        return self.d.subdivide_mapped(hits[0], self.edge_map)

    def split(self, face_id: int, va: int, vb: int) -> tuple[int, int]:
        """Split a face at the corners at va, vb: (new halfedge in it, other side)."""
        tails = [self.d.tail(h) for h in self.d.faces[face_id]]
        return self.d.split(face_id, tails.index(va), tails.index(vb)), len(self.d.faces) - 1

    def finish(self, k_edges) -> tuple[SurfaceModel, DividingSet]:
        ds = DividingSet(self.d.freeze(), k_edges)
        return self.model.transport(Refinement(ds.surface, self.edge_map)), ds


# Vertices of the annulus model: outer circle O0..O3 = 0..3 with the
# sutures at O0 (F+) and O2 (F-), inner circle I0..I3 = 4..7 with the
# sutures at I0 (F+) and I2 (F-); two radial edges O0--I0 and O2--I2
# separate the square faces U (outer arc O0->O2) and W (arc O2->O0).
_O0, _O1, _O2, _O3 = 0, 1, 2, 3
_I0, _I1, _I2, _I3 = 4, 5, 6, 7
_U, _W = 0, 1


def _fixture_L0(b: _Builder) -> list[int]:
    a1, _ = b.split(_U, _O0, _I2)
    a2, _ = b.split(_W, _O2, _I0)
    return [a1, a2]


def _fixture_L1(b: _Builder) -> list[int]:
    # The crossing arcs routed the other way around the annulus: each
    # winds an extra half turn, one twist of the core circle from L0.
    a1, _ = b.split(_U, _O2, _I0)
    a2, _ = b.split(_W, _O0, _I2)
    return [a1, a2]


def _fixture_K_plus(b: _Builder) -> list[int]:
    a1, _ = b.split(_U, _O0, _O2)
    a2, _ = b.split(_W, _I0, _I2)
    return [a1, a2]


def _fixture_K_minus(b: _Builder) -> list[int]:
    a1, _ = b.split(_W, _O2, _O0)
    a2, _ = b.split(_U, _I2, _I0)
    return [a1, a2]


def _fixture_K0(b: _Builder) -> list[int]:
    w0 = b.subdivide(_O0, _I0)
    w2 = b.subdivide(_O2, _I2)
    a1, _ = b.split(_U, _O0, _O2)
    a2, side = b.split(_U, w2, w0)
    a3, _ = b.split(side, _I2, _I0)
    a4, _ = b.split(_W, w0, w2)
    return [a1, a2, a3, a4]


def _fixture_K1(b: _Builder) -> list[int]:
    w0 = b.subdivide(_O0, _I0)
    w2 = b.subdivide(_O2, _I2)
    a1, _ = b.split(_W, _O2, _O0)
    a2, side = b.split(_W, w0, w2)
    a3, _ = b.split(side, _I0, _I2)
    a4, _ = b.split(_U, w2, w0)
    return [a1, a2, a3, a4]


_ANNULUS_FIXTURES = {
    "L0": _fixture_L0,
    "L1": _fixture_L1,
    "K+": _fixture_K_plus,
    "K-": _fixture_K_minus,
    "K0": _fixture_K0,
    "K1": _fixture_K1,
}

ANNULUS_FIXTURE_NAMES = tuple(sorted(_ANNULUS_FIXTURES))


def annulus_fixture(name: str) -> tuple[SurfaceModel, DividingSet]:
    """One of the six standard annulus dividing sets.

    ``L0``/``L1`` are the two boundary-parallel arc pairs (the second
    wraps an extra half turn each way); ``K+``/``K-`` cut off the two
    positive, resp. negative, boundary arcs; ``K0``/``K1`` each carry a
    core circle plus two arcs, with the circle oriented the two
    possible ways.  Returns the transported homology model and the
    dividing set on a common refined surface.
    """
    if name not in _ANNULUS_FIXTURES:
        raise KeyError(f"unknown annulus fixture {name!r}; have {ANNULUS_FIXTURE_NAMES}")
    b = _Builder(annulus_model())
    return b.finish(_ANNULUS_FIXTURES[name](b))
