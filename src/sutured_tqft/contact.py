"""Contact elements of dividing sets and the positive/negative duality.

Given a dividing set K, the contact element is built in three steps:
take the deterministic homology basis of the positive region R+ rel
``a_plus``, push its wedge into the ambient surface with a chosen basis
there, and project to exterior degree L(K).  When K is isolating the
pushed classes are dependent, so the wedge (and the element) vanishes;
nothing special-cases that.

The negative element mirrors everything through R-, ``a_minus`` and the
dual exterior algebra.  ``DualStructure`` identifies that algebra with
the linear dual of the positive one through a prescribed intersection
pairing, normalized so the two top generators pair to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dividing import DividingSet, regions
from .errors import InternalConsistencyError, ValidationError
from .exterior import (
    RING_F2,
    RING_Z,
    Multivector,
    equal_up_to_sign,
    indices_of,
    induced_map,
    interior,
    pair,
)
from .homology import HomologyBasis, RelativeH1
from .linalg import det_q, transpose
from .models import SurfaceModel
from .surface import Surface


@dataclass(frozen=True)
class ContactElement:
    value: Multivector
    grade: int
    ring: str

    def is_zero(self) -> bool:
        return self.value.is_zero()


# side -> (the sign of its faces, its relative marks)
_SIDES = {"plus": (1, "alpha_plus"), "minus": (-1, "alpha_minus")}


def _side(side: str) -> tuple[int, str]:
    try:
        return _SIDES[side]
    except KeyError:
        raise ValidationError(f"unknown side {side!r}") from None


def default_basis(s: Surface, ring: str, side: str = "plus") -> HomologyBasis:
    """The generic basis of H_1(S, a+) (or a-) from the canonical coordinates."""
    return HomologyBasis(RelativeH1(s, sorted(s.marks[_side(side)[1]])), ring)


def region_homology(ds: DividingSet, side: str = "plus") -> RelativeH1:
    return _region(ds, side)[0]


def _region(ds: DividingSet, side: str) -> tuple[RelativeH1, int]:
    """H_1(R+, a+) and L(K) = |F+| - χ(R+), or H_1(R-, a-) and L-(K).

    The region's H_1 spans its faces of `regions` on ds's surface, keeping
    every id, and the grade reads χ off that build.  Neither depends on
    the coefficient ring, so a caller checking both rings builds them
    once."""
    sign, rel = _side(side)
    s = ds.surface
    r = regions(ds)
    hr = RelativeH1(s, s.marks[rel], r.faces_plus if sign > 0 else r.faces_minus)
    return hr, len(s.marks["F_plus"]) - hr.euler_characteristic


def _wedge_region(hr: RelativeH1, grade: int, basis: HomologyBasis, ring: str,
                  dual: bool = False) -> ContactElement:
    """The degree-`grade` part of the wedge of the region classes `hr`,
    each expressed in the ambient `basis`: Λ of their columns applied to
    the top class of `hr`, or to 0 off grade, since that wedge has degree
    rank(hr)."""
    # the region's H_1 keeps the surface's ids, so its cycles are ambient chains
    cols = [basis.express(hr.representative(i)) for i in range(hr.rank)]
    x = (Multivector.top if grade == hr.rank else Multivector.zero)(hr.rank, ring, dual)
    return ContactElement(induced_map(transpose(cols), x, target_rank=basis.rank), grade, ring)


def _element(ds: DividingSet, side: str, ring: str,
             basis: HomologyBasis | None) -> ContactElement:
    if basis is None:
        basis = default_basis(ds.surface, ring, side)
    return _wedge_region(*_region(ds, side), basis, ring, dual=side == "minus")


def contact_element(ds: DividingSet, ring: str = RING_Z,
                    basis: HomologyBasis | None = None) -> ContactElement:
    """c(K): the degree-L(K) part of the pushed orientation class of R+.

    Over Z the sign is fixed by orienting H_1(R+, a+) with the ascending
    wedge of its deterministic basis.  ``basis`` fixes the coordinates on
    the ambient H_1 (for disks and annuli, pass the model basis so results
    come out in beta coordinates).
    """
    return _element(ds, "plus", ring, basis)


def negative_contact_element(ds: DividingSet, ring: str = RING_Z,
                             basis: HomologyBasis | None = None) -> ContactElement:
    """c-(K): the mirror element through R-, graded by L-(K), dual-valued."""
    return _element(ds, "minus", ring, basis)


class DualStructure:
    """Λ(H_1(S, a-)) identified with the dual of Λ(H_1(S, a+)).

    The identification sends the i-th negative basis class to the
    functional  x -> pairing[i][x]  and requires the two top generators
    to pair to exactly 1, which pins the model pairing normalizations.
    """

    def __init__(self, model: SurfaceModel, ring: str):
        self.model = model
        self.ring = ring
        self.rank = model.rank
        self._pt = transpose(model.pairing)
        d = det_q(model.pairing)
        if (d if ring == RING_Z else d % 2) != 1:
            raise InternalConsistencyError(
                f"top generators pair to {d}, expected 1 -- model pairing is off")

    def as_dual(self, y: Multivector) -> Multivector:
        """Re-coordinate a minus-basis multivector in the dual plus-basis."""
        if not y.dual:
            raise ValidationError("as_dual expects a dual (minus-side) multivector")
        return induced_map(self._pt, y)

    def omega_plus(self) -> Multivector:
        return Multivector.top(self.rank, self.ring)

    def omega_minus(self) -> Multivector:
        """Top dual generator, already in dual plus-coordinates."""
        return self.as_dual(Multivector.top(self.rank, self.ring, dual=True))

    def pair(self, y: Multivector, x: Multivector) -> int:
        """<y | x> for y in minus coordinates, x in plus coordinates."""
        return pair(self.as_dual(y), x)


def duality_check(ds: DividingSet, model: SurfaceModel, ring: str = RING_F2) -> bool:
    """Whether c+(K) = iota_{c-(K)} Omega+ and c-(K) = iota_{c+(K)} Omega-.

    Exact over F2; over Z each identity is tested up to its own sign,
    since the default orientations of R+ and R- are chosen independently.
    """
    dual = DualStructure(model, ring)
    cp = contact_element(ds, ring=ring, basis=model.basis_plus(ring)).value
    cm = negative_contact_element(ds, ring=ring, basis=model.basis_minus(ring)).value
    cmd = dual.as_dual(cm)
    got_p = interior(cmd, dual.omega_plus())
    got_m = interior(cp, dual.omega_minus())
    return equal_up_to_sign(got_p, cp) and equal_up_to_sign(got_m, cmd)


def render_multivector(x: Multivector, labels=None) -> str:
    """Text form with named generators, e.g. ``b1^b2 + b1^b3``."""
    if x.is_zero():
        return "0"
    if labels is None:
        labels = [f"e{i + 1}" for i in range(x.rank)]
    parts = []
    for m in sorted(x.terms, key=lambda m: (bin(m).count("1"), m)):
        c = x.terms[m]
        if not m:
            parts.append(str(c))
            continue
        body = "^".join(labels[i] for i in indices_of(m))
        if c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{c}*{body}")
    return " + ".join(parts)
