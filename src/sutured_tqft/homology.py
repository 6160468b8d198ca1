"""Relative first homology of a halfedge surface, by tree-cotree cycles.

H_1(S, A) for a vertex set A is computed integrally once and reduced
mod 2 on demand.  S is the subcomplex that a set of faces spans on a
surface (all of its faces by default): the heads and edges of their
walks and the faces themselves, read off the surface with their ids, so
a region such as R+ needs no surface of its own and its cycles are
chains of the ambient surface.  A spanning forest of the 1-skeleton --
with all of A merged into one root -- yields a fundamental cycle z_e for
every cotree edge e (e closed up through the lowest common ancestor of
its ends); these form an integral basis of the lattice of relative 1-cycles, and
the coordinates of any relative cycle in that basis are just its
restriction to the cotree edges.  A cycle is built on first use.  The
same forest gives, for any vertex v, the tree path from A to v
(`path_from_rel`), a chain with boundary v - a for some a in A: these
split H_1(S, A ∪ B) as H_1(S, A) plus one class per b in B when every
component of S meets A.

The quotient by the face boundaries is read off the dual graph, with no
elimination.  Its nodes are the faces plus one ground node for a missing
face; cotree edge e_i is a dual edge between the face of e_i and the
face of its twin.  A second union-find pass over the cotree edges, in order,
swaps every edge whose two ends it merges into place t and increments t.
The t swapped edges are a dual forest, the rank of the boundary map is t,
and the rest, in their final order, are the leftover edges: class i is
z of the i-th leftover edge, and the class of a relative cycle with
cotree coordinates w is, in place i, w at the leftover edge plus the
signed sum of w over the dual forest path between that edge's ends.

A build costs one loop over the walks of its faces (face lookup,
vertices, canonical edges) and one loop over the sorted edges, in which
each cotree edge enters the dual pass as the spanning pass finds it;
both union-finds are seeded with their nodes.  The rank, the leftover
edges and the spanning forest are built then.  The dual forest is walked,
and the functionals filed by coordinate, on the first `reduce`, so an
H_1 read only through its representatives, as a region's is, never walks
it.  `coordinates` reads a chain's cotree restriction w (mod 2 over F2),
and its one check is the residual chain - sum w_e z_e, summing only tree
parts as z_e is 1 on its own cotree edge and 0 on every other: that is 0
exactly when the chain is a relative cycle of the complex.  Only a
refused chain has its boundary walked, to name the fault.

That is exactly what the Smith normal form U*A*V = D of the boundary
rows A (one row per cotree edge, one column per face) gives, as its
rows of U and columns of U^-1 past the rank:

1. Row i is +1 on the face of e_i and -1 on the face of its twin.  A
   faceless side adds nothing, and both sides in one face cancel.  So
   every row is a dual edge with unit entries (its other end is the
   ground node where a side is missing).
2. A unit row step keeps that shape: clearing the pivot column from a
   row replaces that end by the pivot row's other end, which contracts
   the pivot column into it.  So every pivot is a unit and the remainder
   and divisibility branches never run; column steps touch only row t of
   D and V, which are not read here.  Surface pairs thus have no torsion,
   and the mod-2 reduction of the same integral basis is a basis of the
   F2 homology; the mod-2 rank of the rows is checked against t.
3. A row is zero exactly when its ends are merged, and then it stays
   zero.  The pivot at step t is the first nonzero row at a position
   >= t, and every row between t and that pivot is zero.  So the pivot
   sequence is the one-pass swap above.
4. A column of U^-1 changes only when its row is the pivot; for a row
   that never pivots it is only swapped.  So the lifts are unit vectors.
5. Each row of U past the rank has coefficient 1 on its leftover row and
   support otherwise on pivot rows, and it is in the left kernel of A.
   Pivot rows are a forest, so that vector is unique: the fundamental
   dual cycle of the leftover edge.
"""
from __future__ import annotations

from functools import cached_property
from itertools import islice
from typing import Callable, Iterable, NoReturn, Sequence

from .errors import InternalConsistencyError, ValidationError
from .exterior import RING_F2, RING_Z
from .linalg import Matrix, f2_invert, f2_rank, invert_unimodular, mat_vec, transpose
from .surface import Surface, UnionFind, chain_boundary

__all__ = ["RelativeH1", "HomologyBasis", "induced_matrix"]

Chain = dict[int, int]
# a forest node: a vertex or face id, -1 for the merged relative set and
# None for the ground node of the dual graph
Node = int | None
# adjacency lists (edge, y, sign), sign * edge running from x to y
Adjacency = dict[Node, list[tuple[int, Node, int]]]
# up[x] = (edge, parent, sign): sign * edge runs from x to its parent
Forest = dict[Node, tuple[int, Node, int]]


def _mod2(chain: Chain) -> Chain:
    return {e: 1 for e, c in chain.items() if c % 2}


def _rooted_forest(adj: Adjacency) -> tuple[Forest, dict[Node, int]]:
    """Parent pointers and depths of a depth-first forest over ``adj``,
    rooted at its keys in order."""
    up: Forest = {}
    depth: dict[Node, int] = {}
    for root in adj:
        if root in depth:
            continue
        depth[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            below = depth[x] + 1
            for e, y, sgn in adj[x]:
                if y not in depth:
                    up[y] = (e, x, -sgn)
                    depth[y] = below
                    stack.append(y)
    return up, depth


def _tree_path(up: Forest, depth: dict[Node, int], x: Node, y: Node) -> list[tuple[int, int]]:
    """The forest path from x to y as (edge, sign) pairs: x's side up to
    the common ancestor, then y's side, each in walk order."""
    down_x: list[tuple[int, int]] = []
    down_y: list[tuple[int, int]] = []
    while x != y:
        if depth[x] >= depth[y]:
            f, x, sgn = up[x]
            down_x.append((f, sgn))
        else:
            f, y, sgn = up[y]
            down_y.append((f, -sgn))
    return down_x + down_y


class RelativeH1:
    """Integral H_1(X, A ∩ X) with deterministic generic basis, X the
    subcomplex of ``surface`` that ``faces`` span (all faces by default).

    X is read straight off the surface, with its ids: the heads and edges
    of the walks of ``faces``, and those faces, whose V - E + F is kept as
    ``euler_characteristic``.  ``rel`` holds vertices of the surface;
    those off X drop out."""

    def __init__(self, surface: Surface, rel: Iterable[int] = (),
                 faces: Iterable[int] | None = None):
        self.surface = surface
        head, twin, walks = surface.head, surface.twin, surface.faces
        rel = frozenset(rel)
        self.faces: tuple[int, ...] = tuple(
            range(len(walks)) if faces is None else sorted(set(faces)))
        # one pass over the walks: face lookup, vertices, canonical edges
        walk_face: dict[int, int] = {}
        vertices: set[int] = set()
        edges: set[int] = set()
        add_vertex, add_edge = vertices.add, edges.add
        for f in self.faces:
            for h in walks[f]:
                walk_face[h] = f
                add_vertex(head[h])
                t = twin[h]
                add_edge(h if h < t else t)
        self._edges = edges = sorted(edges)
        self.euler_characteristic = len(vertices) - len(edges) + len(self.faces)
        self.rel = rel & vertices
        if len(self.rel) < len(rel):
            stray = rel - surface.vertices
            if stray:
                raise ValidationError(f"relative vertices {sorted(stray)} not in surface")

        # -1 is the merged root for all of A (vertex ids are nonnegative)
        mv = {v: -1 if v in self.rel else v for v in vertices}
        adj: Adjacency = {v: [] for v in sorted(set(mv.values()))}
        union = UnionFind(adj).union
        # the dual pass takes each cotree edge as the spanning pass finds it:
        # cotree edge i runs from face ends[i][1] to face ends[i][0], None
        # standing for the ground node; the dual forest is walked only when
        # `_quotient` is first read
        dual_union = UnionFind((*self.faces, None)).union
        face_of = walk_face.get
        self.cotree: list[int] = []
        self._ends: list[tuple[Node, Node]] = []
        cotree, ends = self.cotree, self._ends
        order: list[int] = []
        t = 0
        for e in edges:
            u, v = mv[head[twin[e]]], mv[head[e]]
            if union(u, v):
                adj[u].append((e, v, 1))
                adj[v].append((e, u, -1))
                continue
            i = len(cotree)
            cotree.append(e)
            a, b = face_of(e), face_of(twin[e])
            ends.append((a, b))
            order.append(i)
            if dual_union(a, b):
                # places t..i-1 hold zero rows, and order[i] == i still
                order[t], order[i] = i, order[t]
                t += 1
        self._up, self._depth = _rooted_forest(adj)
        self._cycles: dict[int, Chain] = {}
        masks = [(0 if a is None else 1 << a) ^ (0 if b is None else 1 << b) for a, b in ends]
        if f2_rank(masks) != t:
            raise InternalConsistencyError("mod-2 rank of boundary map dropped")
        self.rank = len(ends) - t
        self._dual_forest = order[:t]
        self._lifts = order[t:]

    @cached_property
    def _quotient(self) -> list[list[tuple[int, int]]]:
        """The functionals of the quotient, filed by cotree coordinate:
        (class, sign) pairs, read off the dual forest that the merging
        edges of the dual pass span."""
        ends = self._ends
        dual: Adjacency = {}
        for i in self._dual_forest:
            a, b = ends[i]
            dual.setdefault(b, []).append((i, a, 1))
            dual.setdefault(a, []).append((i, b, -1))
        up, depth = _rooted_forest(dual)
        quotient: list[list[tuple[int, int]]] = [[] for _ in ends]
        for r, i in enumerate(self._lifts):
            quotient[i].append((r, 1))
            for j, sgn in _tree_path(up, depth, *ends[i]):
                quotient[j].append((r, sgn))
        return quotient

    @cached_property
    def _coordinate(self) -> dict[int, int]:
        """The coordinate of each cotree edge."""
        return {e: j for j, e in enumerate(self.cotree)}

    def cycle(self, j: int) -> Chain:
        """Fundamental cycle of the j-th cotree edge,
        z_e = e + path(head -> lca) - path(tail -> lca); do not mutate it."""
        z = self._cycles.get(j)
        if z is None:
            e, rel, head = self.cotree[j], self.rel, self.surface.head
            x, y = head[e], head[self.surface.twin[e]]
            z = {e: 1}
            z.update(_tree_path(self._up, self._depth, -1 if x in rel else x,
                                -1 if y in rel else y))
            self._cycles[j] = z
        return z

    def path_from_rel(self, v: int) -> Chain:
        """Tree path from the relative set to v: a chain with boundary
        v - a for some a in A, empty when v itself is in A."""
        x = -1 if v in self.rel else v
        back: Chain = {}
        while x in self._up:
            e, x, sgn = self._up[x]
            back[e] = -sgn
        if x != -1:
            raise InternalConsistencyError(
                f"vertex {v} is not connected to the relative set")
        return back

    def coordinates(self, chain: Chain, ring: str = RING_Z) -> list[int]:
        """Coordinates in the fundamental-cycle basis (= cotree restriction),
        checked by the tree-cotree residual alone."""
        f2 = ring == RING_F2
        index, cycles = self._coordinate, self._cycles
        w = [0] * len(index)
        # z_j is 1 on its own cotree edge and 0 on every other one, so the
        # cotree part of chain - sum w_j z_j cancels by construction: drop
        # it, and sum only the tree part of each z_j
        residual = dict(chain)
        for e, wi in chain.items():
            j = index.get(e)
            if j is not None and (wi := wi % 2 if f2 else wi):
                w[j] = wi
                del residual[e]
                z = cycles.get(j) or self.cycle(j)
                for f, c in islice(z.items(), 1, None):
                    residual[f] = residual.get(f, 0) - wi * c
        if any(c % 2 for c in residual.values()) if f2 else any(residual.values()):
            self._refuse(chain, ring)
        return w

    def _refuse(self, chain: Chain, ring: str) -> NoReturn:
        """Name the fault of a chain that `coordinates` refused."""
        if ring == RING_F2:
            chain = _mod2(chain)
        off = chain.keys() - set(self._edges)
        if off:
            raise ValidationError(f"chain leaves the complex (edges {sorted(off)})")
        bad = [v for v, c in chain_boundary(self.surface, chain).items()
               if (c % 2 if ring == RING_F2 else c) and v not in self.rel]
        if bad:
            raise ValidationError(f"chain is not a relative cycle (boundary at {sorted(bad)})")
        raise InternalConsistencyError("relative cycle escaped the tree-cotree span")

    def reduce(self, chain: Chain, ring: str = RING_Z) -> list[int]:
        """Class of a relative cycle in the generic quotient basis."""
        # rows of U past the rank give the class; the rows before it are boundaries
        out = [0] * self.rank
        quotient = self._quotient
        for j, x in enumerate(self.coordinates(chain, ring)):
            if x:
                for r, c in quotient[j]:
                    out[r] += c * x
        if ring == RING_F2:
            out = [x % 2 for x in out]
        return out

    def representative(self, i: int) -> Chain:
        """Cycle representing the i-th generic basis class."""
        return dict(self.cycle(self._lifts[i]))


class HomologyBasis:
    """Ordered basis of H_1(S, A; ring), generic or prescribed by cycles."""

    def __init__(self, h1: RelativeH1, ring: str, cycles: Sequence[Chain] | None = None):
        if ring not in (RING_Z, RING_F2):
            raise ValidationError(f"unknown ring {ring!r}")
        self.h1 = h1
        self.ring = ring
        self.rank = h1.rank
        self._c_inv: Matrix | None = None
        self._c_inv_f2: list[int] | None = None
        if cycles is not None:
            if len(cycles) != self.rank:
                raise ValidationError(
                    f"{len(cycles)} prescribed cycles for rank {self.rank}")
            cols = [h1.reduce(c, ring) for c in cycles]
            cmat = transpose(cols)
            if ring == RING_Z:
                try:
                    self._c_inv = invert_unimodular(cmat)
                except InternalConsistencyError as exc:
                    raise ValidationError(
                        "prescribed cycles are not an integral basis") from exc
            else:
                rows = [sum((cmat[i][j] & 1) << j for j in range(self.rank))
                        for i in range(self.rank)]
                inv = f2_invert(rows, self.rank)
                if inv is None:
                    raise ValidationError("prescribed cycles are not an F2 basis")
                self._c_inv_f2 = inv
            self.cycles = [dict(c) for c in cycles]

    @cached_property
    def cycles(self) -> list[Chain]:
        """The basis cycles: prescribed, or for a generic basis the
        representatives of its classes, built on first read."""
        return [self.h1.representative(i) for i in range(self.rank)]

    @property
    def surface(self) -> Surface:
        return self.h1.surface

    def express(self, chain: Chain) -> list[int]:
        """Coefficients of a relative cycle's class in this basis."""
        g = self.h1.reduce(chain, self.ring)
        if self._c_inv is not None:
            return mat_vec(self._c_inv, g)
        if self._c_inv_f2 is not None:
            gmask = sum((g[j] & 1) << j for j in range(self.rank))
            return [(row & gmask).bit_count() % 2 for row in self._c_inv_f2]
        return g

    def vertex_functional(self, v: int) -> list[int]:
        """Coefficient of vertex v in the boundary of each basis cycle.

        This is a well-defined functional on H_1(S, A) for v in A, since
        boundaries of faces have zero boundary.
        """
        out = [chain_boundary(self.surface, c).get(v, 0) for c in self.cycles]
        if self.ring == RING_F2:
            out = [x % 2 for x in out]
        return out


def induced_matrix(src: "HomologyBasis", dst: "HomologyBasis",
                   push: Callable[[Chain], Chain] | None = None) -> Matrix:
    """Matrix of a chain-level map on homology: columns are dst-coordinates
    of the pushed src basis cycles."""
    cols = [dst.express(push(c) if push else c) for c in src.cycles]
    return transpose(cols)
