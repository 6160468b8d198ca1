"""Canonical marked surfaces with prescribed homology bases.

A SurfaceModel bundles a surface with a preferred basis of H_1(S, alpha+)
(the "positive" basis), a basis of H_1(S, alpha-), and the matrix of the
intersection pairing between them.  Contact elements and duality are
always reported in these coordinates.

Conventions for the disk with 2n sutures (standard_disk):

  * beta_i is the boundary path from alpha_i to alpha_{i+2}, so that
    d(beta_i) = alpha_{i+2} - alpha_i.  Odd i gives classes rel alpha+,
    even i rel alpha-.
  * positive basis: beta_1, beta_3, ..., beta_{2n-3};
    negative basis: beta_2, beta_4, ..., beta_{2n-2}.
  * pairing[a][b] = <beta_{2a+2} | beta_{2b+1}> where the sign of a
    crossing is the orientation of (positive tangent, negative tangent)
    against the surface orientation.  Pushing the arcs slightly into the
    interior, beta_{2a+2} crosses beta_{2a+1} once positively and
    beta_{2a+3} once negatively; all other pairs are disjoint.

The annulus model is a fixed two-face complex (two radial edges joining
the boundary circles); its positive basis is a spanning arc b1 from the
inner alpha+ to the outer alpha+ plus the outer circle b2, and the
negative basis is the mirror pair d1, d2.  Crossing counts give the
pairing [[0, -1], [1, 0]].
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .exterior import RING_Z
from .homology import HomologyBasis, RelativeH1
from .surface import (
    Refinement,
    Surface,
    chain_from_path,
    standard_disk,
    transport_chain,
)

Chain = dict[int, int]
Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SurfaceModel:
    surface: Surface
    beta_plus: tuple[Chain, ...]
    beta_minus: tuple[Chain, ...]
    pairing: Matrix
    labels_plus: tuple[str, ...]

    def transport(self, ref: Refinement) -> "SurfaceModel":
        """Carry the prescribed bases through a refinement of the surface."""
        return replace(
            self,
            surface=ref.surface,
            beta_plus=tuple(transport_chain(ref, c) for c in self.beta_plus),
            beta_minus=tuple(transport_chain(ref, c) for c in self.beta_minus),
        )

    def rebind(self, surface: Surface) -> "SurfaceModel":
        """Attach the same basis chains to a refinement that kept every
        referenced halfedge (face splits do); basis validity is rechecked
        the next time a basis is built."""
        return replace(self, surface=surface)

    def basis_plus(self, ring: str = RING_Z) -> HomologyBasis:
        h1 = RelativeH1(self.surface, rel=self.surface.marks["alpha_plus"])
        return HomologyBasis(h1, ring, cycles=list(self.beta_plus))

    def basis_minus(self, ring: str = RING_Z) -> HomologyBasis:
        h1 = RelativeH1(self.surface, rel=self.surface.marks["alpha_minus"])
        return HomologyBasis(h1, ring, cycles=list(self.beta_minus))

    @property
    def rank(self) -> int:
        return len(self.beta_plus)


def disk_arc_chain(s: Surface, n: int, i: int) -> Chain:
    """beta_i on a (possibly refined) standard disk with 2n sutures.

    The chain follows the boundary from alpha_i to alpha_{i+2}; indices
    wrap mod 2n.  Valid on refinements of standard_disk(n) only when the
    boundary halfedge ids are untouched (face splits keep them).
    """
    m = 4 * n
    path = [2 * (p % m) for p in range(2 * i - 1, 2 * i + 3)]
    return chain_from_path(s, path)


def disk_pairing(n: int) -> Matrix:
    """The pairing of the disk with 2n sutures: beta_{2a+2} meets beta_{2a+1}
    at +1 and beta_{2a+3} at -1, so it is upper bidiagonal, 1 on the diagonal."""
    k = n - 1
    return tuple(
        tuple(1 if b == a else (-1 if b == a + 1 else 0) for b in range(k))
        for a in range(k)
    )


def disk_model(n: int) -> SurfaceModel:
    if n < 2:
        raise ValueError("disk_model needs n >= 2 (no basis classes below that)")
    s = standard_disk(n)
    plus = tuple(disk_arc_chain(s, n, i) for i in range(1, 2 * n - 2, 2))
    minus = tuple(disk_arc_chain(s, n, i) for i in range(2, 2 * n - 1, 2))
    return SurfaceModel(
        surface=s,
        beta_plus=plus,
        beta_minus=minus,
        pairing=disk_pairing(n),
        labels_plus=tuple(f"b{i}" for i in range(1, 2 * n - 2, 2)),
    )


# Annulus complex.  Outer circle vertices O0..O3 are 0..3, inner circle
# I0..I3 are 4..7; both circles carry the pattern F+ a+ F- a- when read
# along the induced boundary orientation (counterclockwise outside,
# clockwise inside).  Two radial edges O0-I0 and O2-I2 cut the annulus
# into an upper face U and a lower face W.
_ANN_TWIN = {
    0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6,          # outer circle
    8: 9, 9: 8, 10: 11, 11: 10, 12: 13, 13: 12, 14: 15, 15: 14,  # inner circle
    16: 17, 17: 16, 18: 19, 19: 18,                          # radials
}
_ANN_HEAD = {
    0: 1, 1: 0, 2: 2, 3: 1, 4: 3, 5: 2, 6: 0, 7: 3,
    8: 7, 9: 4, 10: 6, 11: 7, 12: 5, 13: 6, 14: 4, 15: 5,
    16: 0, 17: 4, 18: 6, 19: 2,
}
_ANN_FACES = [
    [0, 2, 18, 12, 14, 16],   # U: upper half
    [4, 6, 17, 8, 10, 19],    # W: lower half
]
_ANN_MARKS = {
    "F_plus": (0, 4),
    "alpha_plus": (1, 7),
    "F_minus": (2, 6),
    "alpha_minus": (3, 5),
}


def annulus_surface() -> Surface:
    return Surface(dict(_ANN_TWIN), dict(_ANN_HEAD),
                   [list(f) for f in _ANN_FACES],
                   {k: tuple(v) for k, v in _ANN_MARKS.items()})


def annulus_model() -> SurfaceModel:
    s = annulus_surface()
    b1 = chain_from_path(s, [10, 19, 3])        # I3 -> I2 -> O2 -> O1
    b2 = chain_from_path(s, [0, 2, 4, 6])       # outer circle, counterclockwise
    d1 = chain_from_path(s, [14, 16, 7])        # I1 -> I0 -> O0 -> O3
    d2 = dict(b2)
    return SurfaceModel(
        surface=s,
        beta_plus=(b1, b2),
        beta_minus=(d1, d2),
        pairing=((0, -1), (1, 0)),
        labels_plus=("b1", "b2"),
    )


def one_holed_torus() -> Surface:
    """A genus-one surface with one boundary circle and n(F) = 1.

    Single face a b a^-1 b^-1 e1 e2 e3 e4 where a, b are interior loops
    at the basepoint and e1..e4 run along the boundary through the four
    marked vertices.
    """
    twin = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6,
            8: 9, 9: 8, 10: 11, 11: 10}
    head = {0: 1, 1: 0, 2: 2, 3: 1, 4: 3, 5: 2, 6: 0, 7: 3,
            8: 0, 9: 0, 10: 0, 11: 0}
    faces = [[8, 10, 9, 11, 0, 2, 4, 6]]
    marks = {"F_plus": (0,), "alpha_plus": (1,),
             "F_minus": (2,), "alpha_minus": (3,)}
    return Surface(twin, head, faces, marks)
