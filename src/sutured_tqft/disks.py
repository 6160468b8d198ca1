"""Chord diagrams on the sutured disk: fast contact elements, bypass
rotations, matchability, and the solid-torus rotation pairing.

Everything here works over the beta basis of the standard disk: beta_i is
the boundary path from suture alpha_i to alpha_{i+2}, the odd-index arcs
{beta_1, beta_3, ..., beta_{2n-3}} spanning H_1 rel the positive sutures
and the even-index arcs spanning the negative side.

A disk element c(K) is held as a wedge of pairwise disjoint beta masks
(``_factor_masks``).  Its expansion has exactly one term per choice of a
beta from each factor, and the product c(K1) ^ c(K2) and the solid-torus
pairing are determinants of the factor masks, so neither expands anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .contact import ContactElement
from .dividing import ChordDiagram
from .errors import InternalConsistencyError, InvalidChordDiagramError, ValidationError
from .exterior import TERM_BUDGET, Multivector, RING_Z, indices_of
from .linalg import f2_rank
from .models import disk_pairing
from .surface import UnionFind

__all__ = [
    "BypassTriple",
    "TorusParameters",
    "disk_contact_element",
    "bypass_triple_at",
    "matchable",
    "matching_curve_count",
    "matchable_via_wedge",
    "rotation_map",
    "rotate_diagram",
    "solid_torus_tight",
]


def _region_sectors(cd: ChordDiagram) -> list[list[int]]:
    """Boundary sectors of the cut disk, grouped by region.

    Sector s runs from F_s to F_{s+1} and contains the suture alpha_s.
    Chord (a, b) has sectors a..b-1 on its inside.  Chords do not cross,
    so the chords around a sector are nested and the innermost one names
    its region.  One walk over the sectors keeps the open chords on a
    stack: sector s opens the chord starting at s or closes the one
    ending there, and then lies in the region of the top of the stack.
    Groups come out in order of their smallest sector, each ascending.
    """
    starts = {a for a, _ in cd.pairs}
    open_chords = [0]  # 0 stands for the outer region
    groups: dict[int, list[int]] = {}
    for s in range(1, 2 * cd.n + 1):
        if s in starts:
            open_chords.append(s)
        else:
            open_chords.pop()
        groups.setdefault(open_chords[-1], []).append(s)
    return list(groups.values())


def _factor_masks(cd: ChordDiagram) -> list[int]:
    """c(K) as a wedge of pairwise disjoint beta masks, in wedge order.

    Within a disk region any path between sutures alpha_u and alpha_w is,
    rel the positive sutures, the boundary path u -> w: the interval of
    betas beta_u, beta_{u+2}, ..., beta_{w-2}.  c(K) is the wedge of the
    consecutive-suture paths over all positive regions, regions ordered
    by their smallest suture.  Chords do not cross, so any two of these
    intervals are nested or disjoint, and in that order an interval never
    comes after one it lies inside.  Replacing each interval by itself
    minus the intervals strictly inside it is a unitriangular change of
    factors, so the wedge stays the same while the factors become
    disjoint.  Walking the intervals from last to first, each keeps the
    betas that no later one has taken; a repeated interval comes out empty.
    """
    masks = []
    for region in _region_sectors(cd):
        parity = {s % 2 for s in region}
        if len(parity) != 1:
            raise InternalConsistencyError("region touches boundary arcs of both signs")
        if parity == {1}:  # beta_j, j odd, is bit j >> 1
            masks += [(1 << (w >> 1)) - (1 << (u >> 1)) for u, w in zip(region, region[1:])]
    taken = 0
    for i in range(len(masks) - 1, -1, -1):
        masks[i] &= ~taken
        taken |= masks[i]
    if not all(masks):
        raise InternalConsistencyError("contact element is zero or inhomogeneous")
    return masks


def disk_contact_element(cd: ChordDiagram, ring: str = RING_Z) -> ContactElement:
    """c(K) of a chord diagram, expanded from its disjoint factors.

    Disjoint factors cannot cancel: there is one term per choice of a
    beta from each factor, with coefficient 1 over F2 and, over Z, the
    sign of sorting the chosen betas, i.e. the parity of the pairs where
    a later factor's beta lies below an earlier one's.  The tests
    cross-check this against the homology pipeline on the polygonal
    complex and against wedging the paths one at a time.
    """
    masks = _factor_masks(cd)
    if math.prod(m.bit_count() for m in masks) > TERM_BUDGET:
        raise ValidationError(
            f"the contact element of this {cd.n}-chord diagram exceeds "
            f"the budget of {TERM_BUDGET} terms")
    terms, signs = [0], [1]
    for m in masks:
        bits = [1 << i for i in indices_of(m)]
        if ring == RING_Z:
            # -(b << 1) masks the positions above b
            signs = [-c if (t & -(b << 1)).bit_count() & 1 else c
                     for b in bits for t, c in zip(terms, signs)]
        terms = [t | b for b in bits for t in terms]
    coeffs = dict(zip(terms, signs)) if ring == RING_Z else dict.fromkeys(terms, 1)
    return ContactElement(value=Multivector(cd.n - 1, coeffs, ring),
                          grade=len(masks), ring=ring)


# -- bypass rotations ------------------------------------------------------


@dataclass(frozen=True)
class BypassTriple:
    diagrams: tuple[ChordDiagram, ChordDiagram, ChordDiagram]


def _remade(n: int, pairs) -> ChordDiagram:
    fixed = tuple(sorted(tuple(sorted(p)) for p in pairs))
    return ChordDiagram(n, fixed)


def bypass_triple_at(cd: ChordDiagram, site) -> BypassTriple:
    """The three diagrams differing only in a half-disk around three
    consecutive sutures, by the 120-degree strand rotations.

    ``site`` lists three cyclically consecutive sutures (p, p+1, p+2).
    Each must be matched outside the site, so that the half-disk meets
    the diagram in three distinct strands; writing A, B, C for the outer
    partners, the rotations reconnect as {p q, p+2 A, B C} and
    {q p+2, p C, A B} with q = p+1.
    """
    n2 = 2 * cd.n
    site = tuple(site)
    if len(site) != 3 or any(not 1 <= p <= n2 for p in site):
        raise InvalidChordDiagramError(f"site {site} is not three sutures of 1..{n2}")
    a, b, c = site
    if b != a % n2 + 1 or c != b % n2 + 1:
        raise InvalidChordDiagramError("site sutures must be cyclically consecutive")
    m = cd.involution()
    if any(m[p] in site for p in site):
        raise InvalidChordDiagramError(
            "site does not meet the diagram in three distinct strands")
    ea, eb, ec = m[a], m[b], m[c]
    keep = [p for p in cd.pairs if not set(p) & {a, b, c}]
    up = _remade(cd.n, keep + [(a, b), (c, ea), (eb, ec)])
    down = _remade(cd.n, keep + [(b, c), (a, ec), (ea, eb)])
    return BypassTriple((cd, up, down))


# -- matchability ----------------------------------------------------------


def matching_curve_count(cd1: ChordDiagram, cd2: ChordDiagram) -> int:
    """Closed curves obtained by reflecting the second disk onto the back
    of the sphere: suture i lands on suture i, so the curves are the
    components of the union of the two matchings."""
    if cd1.n != cd2.n:
        raise ValidationError("diagrams must have the same number of chords")
    pairs = (*cd1.pairs, *cd2.pairs)
    curves = UnionFind(x for pair in pairs for x in pair)
    for a, b in pairs:
        curves.union(a, b)
    return len({curves.find(x) for x in curves.parent})


def matchable(cd1: ChordDiagram, cd2: ChordDiagram) -> bool:
    return matching_curve_count(cd1, cd2) == 1


def matchable_via_wedge(cd1: ChordDiagram, cd2: ChordDiagram,
                        ring: str = RING_Z) -> bool:
    """The product criterion: connected exactly when c(K1) ^ c(K2) is the
    top generator (up to sign over the integers).

    With k1 + k2 = L factors, c(K1) ^ c(K2) = det[m1 | m2] * top, the
    columns being the factor masks; other grades never reach the top.
    Within one diagram the factor masks are pairwise disjoint, so every
    row of [m1 | m2] holds at most one 1 from each diagram: it is the
    incidence matrix of a bipartite graph, hence totally unimodular, and
    det is 0 or +-1.  So |det| = 1 exactly when det is odd, that is when
    the masks have full F2 rank, and one F2 rank decides both rings:
    ``ring`` does not change the answer and is kept for callers that name
    the ring they ask about.
    """
    if cd1.n != cd2.n:
        raise ValidationError("diagrams must have the same number of chords")
    cols = _factor_masks(cd1) + _factor_masks(cd2)
    rank = cd1.n - 1
    return len(cols) == rank and f2_rank(cols) == rank


# -- rotation maps and solid tori ------------------------------------------


def rotation_map(n: int, j: int) -> list[list[int]]:
    """Matrix of beta_i -> beta_{i+j} from the odd beta basis to the even
    one, indices folded mod 2n; the images landing on beta_{2n} are spent
    through the full-circle relation beta_2 + beta_4 + ... + beta_{2n} = 0.
    """
    if j % 2 == 0:
        raise ValidationError("rotation step must be odd")
    k = n - 1
    mat = [[0] * k for _ in range(k)]
    for s in range(k):
        t = (2 * s + 1 + j) % (2 * n)
        if t == 0:
            for r in range(k):
                mat[r][s] = -1
        else:
            mat[(t - 2) // 2][s] = 1
    return mat


def rotate_diagram(cd: ChordDiagram, steps: int) -> ChordDiagram:
    """Rotate every chord endpoint counterclockwise by ``steps`` sutures."""
    n2 = 2 * cd.n
    return _remade(cd.n, [(((a + steps - 1) % n2) + 1, ((b + steps - 1) % n2) + 1)
                          for a, b in cd.pairs])


@dataclass(frozen=True)
class TorusParameters:
    """Boundary data of a solid torus: 2n dividing curves of slope p/q."""
    n: int
    p: int
    q: int

    def __post_init__(self):
        if self.n < 1 or self.q < 1:
            raise ValidationError("need n >= 1 and q >= 1")
        if math.gcd(self.p, self.q) != 1:
            raise ValidationError("p and q must be coprime")

    @property
    def steps(self) -> int:
        return 2 * self.n * self.p + 1


def _image(cols: list[int], mask: int) -> int:
    """The F2 image of a vector under a matrix given by its column masks."""
    out = 0
    for i in indices_of(mask):
        out ^= cols[i]
    return out


def solid_torus_tight(cd: ChordDiagram, params: TorusParameters) -> bool:
    """Whether the meridian disk's dividing set gives the cut-open torus a
    tight boundary neighborhood: the pairing of the (2np+1)-step rotation
    of c(K) against c(K) is 1 mod 2.

    With c(K) the wedge of the factors v_i, Cauchy-Binet makes that
    pairing det G mod 2, where G_ij = (P^T R v_i) . v_j for the rotation
    R and the model pairing P.
    """
    big = params.n * params.q
    if cd.n != big:
        raise ValidationError(
            f"diagram has {cd.n} chords; parameters demand n*q = {big}")
    if big == 1:
        return True  # rank-0 algebra: <1 | 1> = 1
    masks = _factor_masks(cd)
    rot = rotation_map(big, params.steps)
    rot_cols = [sum((row[s] & 1) << r for r, row in enumerate(rot)) for s in range(big - 1)]
    # the columns of P^T are the rows of P; the top generators pair to
    # det P mod 2, which is 1 exactly when P has full F2 rank
    pt_cols = [sum((x & 1) << i for i, x in enumerate(row)) for row in disk_pairing(big)]
    if f2_rank(pt_cols) != big - 1:
        raise InternalConsistencyError(
            "top generators pair to 0, expected 1 -- model pairing is off")
    gram = []
    for v in masks:
        x = _image(pt_cols, _image(rot_cols, v))
        gram.append(sum(((x & w).bit_count() & 1) << j for j, w in enumerate(masks)))
    return f2_rank(gram) == len(masks)
