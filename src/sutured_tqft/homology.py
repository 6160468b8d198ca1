"""Relative first homology of a halfedge surface, by tree-cotree cycles.

H_1(S, A) for a vertex set A is computed integrally once and reduced
mod 2 on demand.  A spanning forest of the 1-skeleton -- with all of A
merged into one root -- yields a fundamental cycle z_e for every cotree
edge e (e closed up through the lowest common ancestor of its ends);
these form an integral basis of the lattice of relative 1-cycles, and
the coordinates of any relative cycle in that basis are just its
restriction to the cotree edges.  The face boundaries in those
coordinates are read straight off the face walks as sparse rows, and
their sparse Smith normal form presents the quotient: a class is reduced
by the rows of U past the rank only, filed by coordinate so that only
its nonzero coordinates cost anything, a representative is read off one
column of U^-1, and a prescribed integral basis is inverted with one
more Smith form.  The same forest gives, for any vertex v, the tree path
from A to v (`path_from_rel`), a chain with boundary v - a for some a in
A: these split H_1(S, A ∪ B) as H_1(S, A) plus one class per b in B
when every component of S meets A.
Surface pairs never produce torsion; we assert that all invariant
factors are 1, which also makes the mod-2 reduction of the same
integral basis a basis of the F2 homology.
"""
from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .errors import InternalConsistencyError, ValidationError
from .exterior import RING_F2, RING_Z
from .linalg import (Matrix, f2_invert, f2_rank, invert_unimodular, mat_vec,
                     smith_normal_form, transpose)
from .surface import Surface, UnionFind, chain_add, chain_boundary

__all__ = ["RelativeH1", "HomologyBasis", "induced_matrix"]

Chain = dict[int, int]


def _mod2(chain: Chain) -> Chain:
    return {e: 1 for e, c in chain.items() if c % 2}


class RelativeH1:
    """Integral H_1(S, A) with deterministic generic basis."""

    def __init__(self, surface: Surface, rel: Iterable[int] = ()):
        self.surface = surface
        self.rel = frozenset(rel)
        stray = self.rel - surface.vertices
        if stray:
            raise ValidationError(f"relative vertices {sorted(stray)} not in surface")
        head, twin = surface.head, surface.twin

        # -1 is the merged root for all of A (vertex ids are nonnegative)
        mv = {v: -1 if v in self.rel else v for v in surface.vertices}
        # DFS parent pointers in the merged forest; up[v] = (edge, parent,
        # sign of the edge when traversed from v toward the parent)
        adj: dict[int, list[tuple[int, int, int]]] = {v: [] for v in sorted(set(mv.values()))}
        union = UnionFind().union
        self.cotree: list[int] = []
        for e in surface.edges():
            u, v = mv[head[twin[e]]], mv[head[e]]
            if union(u, v):
                adj[u].append((e, v, 1))
                adj[v].append((e, u, -1))
            else:
                self.cotree.append(e)
        up: dict[int, tuple[int, int, int]] = {}
        self._up = up  # kept for path_from_rel
        depth: dict[int, int] = {}
        for root in adj:
            if root in depth:
                continue
            depth[root] = 0
            stack = [root]
            while stack:
                x = stack.pop()
                for e, y, sgn in adj[x]:
                    if y not in depth:
                        up[y] = (e, x, -sgn)
                        depth[y] = depth[x] + 1
                        stack.append(y)

        # z_e = e + path(head -> lca) - path(tail -> lca)
        self.cycles: list[Chain] = []
        for e in self.cotree:
            x, y = mv[head[e]], mv[head[twin[e]]]
            down_x: list[tuple[int, int]] = []
            down_y: list[tuple[int, int]] = []
            while x != y:
                if depth[x] >= depth[y]:
                    f, x, sgn = up[x]
                    down_x.append((f, sgn))
                else:
                    f, y, sgn = up[y]
                    down_y.append((f, -sgn))
            z = {e: 1}
            z.update(down_x)
            z.update(down_y)
            self.cycles.append(z)

        # face boundaries in cycle coordinates, their cotree restrictions,
        # as one sparse row per cotree edge
        side: dict[int, tuple[int, int]] = {}  # halfedge -> (row, sign)
        for i, e in enumerate(self.cotree):
            side[e], side[twin[e]] = (i, 1), (i, -1)
        rows: list[Chain] = [{} for _ in self.cotree]
        masks = [0] * len(self.cotree)  # the same rows mod 2
        for j, walk in enumerate(surface.faces):
            for h in walk:
                if h in side:
                    i, sgn = side[h]
                    row = rows[i]
                    c = row.pop(j, 0) + sgn
                    if c:  # both sides of an edge in one walk cancel
                        row[j] = c
                    masks[i] ^= 1 << j
        sf = smith_normal_form(rows)
        if any(d != 1 for d in sf.diag):
            raise InternalConsistencyError(
                f"torsion in relative H1 (invariant factors {sf.diag})")
        if f2_rank(masks) != sf.rank:
            raise InternalConsistencyError("mod-2 rank of boundary map dropped")
        self.rank = len(self.cotree) - sf.rank
        # the rows of U past the rank, filed by cotree coordinate
        self._quotient: list[list[tuple[int, int]]] = [[] for _ in self.cotree]
        for r, row in enumerate(sf.u[sf.rank:]):
            for j, x in row.items():
                self._quotient[j].append((r, x))
        # the columns of U^-1 past the rank: the generic basis classes
        self._lifts = sf.u_inv[sf.rank:]

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
        """Coordinates in the fundamental-cycle basis (= cotree restriction)."""
        if ring == RING_F2:
            chain = _mod2(chain)
        boundary = chain_boundary(self.surface, chain)
        if ring == RING_F2:
            boundary = {v: c % 2 for v, c in boundary.items() if c % 2}
        bad = boundary.keys() - self.rel
        if bad:
            raise ValidationError(f"chain is not a relative cycle (boundary at {sorted(bad)})")
        w = [chain.get(e, 0) for e in self.cotree]
        residual = dict(chain)
        for wi, z in zip(w, self.cycles):
            if wi:
                for e, c in z.items():
                    residual[e] = residual.get(e, 0) - wi * c
        if any(c % 2 for c in residual.values()) if ring == RING_F2 else any(residual.values()):
            raise InternalConsistencyError("relative cycle escaped the tree-cotree span")
        return w

    def reduce(self, chain: Chain, ring: str = RING_Z) -> list[int]:
        """Class of a relative cycle in the generic quotient basis."""
        # rows of U past the rank give the class; the rows before it are boundaries
        out = [0] * self.rank
        for j, x in enumerate(self.coordinates(chain, ring)):
            if x:
                for r, c in self._quotient[j]:
                    out[r] += c * x
        if ring == RING_F2:
            out = [x % 2 for x in out]
        return out

    def representative(self, i: int) -> Chain:
        """Cycle representing the i-th generic basis class."""
        col = self._lifts[i]
        out: Chain = {}
        for j in sorted(col):
            out = chain_add(out, self.cycles[j], col[j])
        return out


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
        if cycles is None:
            self.cycles = [h1.representative(i) for i in range(self.rank)]
        else:
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
