"""Sparse exterior algebra over Z and F2.

A :class:`Multivector` is an element of Lambda(R^rank) (or of the dual
algebra when ``dual`` is set), stored as a map from index subsets --
encoded as bitmasks -- to nonzero coefficients.  Coefficients are exact:
arbitrary-precision ints over ``"z"``, bits over ``"f2"``.

The pairing between the algebra and its dual is the determinant pairing,
which is delta_{IJ} on matching basis wedges, and the interior product is
defined by adjunction against it:

    <interior(x, y) | g> = <y | x ^ g>

with the contracting factor wedged on the left.

Signs follow one rule.  Write P(b) for the positions with an odd number
of b's bits strictly below them; merging the index set a before a
disjoint b costs the sign -1 exactly when a & P(b) has an odd number of
bits, the parity of crossing pairs.  ``wedge``, ``interior`` and
``induced_map`` compute P once per term of one factor and reuse it across
the other; over F2, where every stored coefficient is 1, they skip signs
and toggle.  Their results are built without the range and ring checks
of the public constructor: every mask is a union or difference of
in-range masks, F2 toggles stay in {0, 1} and Z needs no reduction.

``induced_map`` is the one matrix expansion: contact elements, the
gluing morphism, ``DualStructure`` and relabelings all go through it,
and it refuses a wedge step that would form more than ``TERM_BUDGET``
= 2^20 products before the step starts.  ``equal_up_to_sign`` is the
one comparison up to sign (exact over F2).
"""
from __future__ import annotations

from typing import Sequence

from .errors import ValidationError

__all__ = [
    "RING_Z",
    "RING_F2",
    "TERM_BUDGET",
    "Multivector",
    "equal_up_to_sign",
    "pair",
    "interior",
    "induced_map",
]

RING_Z = "z"
RING_F2 = "f2"
_RINGS = (RING_Z, RING_F2)

# Bound on the terms an expansion may reach: the element of a large random
# disk grows about 6x per 10 chords.  `induced_map` checks it before each
# wedge step, and `disks` checks its factored bound before it expands.
TERM_BUDGET = 1 << 20


def _check_ring(ring: str) -> str:
    if ring not in _RINGS:
        raise ValueError(f"unknown ring {ring!r}; expected 'z' or 'f2'")
    return ring


def _norm(c: int, ring: str) -> int:
    return c % 2 if ring == RING_F2 else c


def _odd_below(b: int) -> int:
    """P(b): the positions with an odd number of b's bits strictly below.

    The XOR, over the bits y of b, of the (infinite) mask of positions
    above y; negative when b has odd degree, which ``a & P(b)`` absorbs.
    """
    p = 0
    while b:
        low = b & -b
        p ^= -(low << 1)
        b ^= low
    return p


def indices_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class Multivector:
    """Element of the exterior algebra on ``rank`` generators."""

    __slots__ = ("rank", "ring", "dual", "terms")

    def __init__(self, rank: int, terms: dict[int, int], ring: str = RING_Z,
                 dual: bool = False):
        if rank < 0:
            raise ValueError(f"negative rank {rank}")
        _check_ring(ring)
        self.rank = rank
        self.ring = ring
        self.dual = dual
        clean: dict[int, int] = {}
        top = 1 << rank
        for mask, c in terms.items():
            if not 0 <= mask < top:
                raise ValueError(f"term {mask:#x} outside rank-{rank} algebra")
            c = _norm(c, ring)
            if c:
                clean[mask] = c
        self.terms = clean

    @classmethod
    def _built(cls, rank: int, terms: dict[int, int], ring: str,
               dual: bool) -> "Multivector":
        """Kernel output: in range and reduced by construction, so only
        the zero coefficients are dropped."""
        out = object.__new__(cls)
        out.rank = rank
        out.ring = ring
        out.dual = dual
        out.terms = {m: c for m, c in terms.items() if c} if 0 in terms.values() else terms
        return out

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, rank: int, ring: str = RING_Z, dual: bool = False) -> "Multivector":
        return cls(rank, {}, ring, dual)

    @classmethod
    def unit(cls, rank: int, ring: str = RING_Z, dual: bool = False) -> "Multivector":
        return cls(rank, {0: 1}, ring, dual)

    @classmethod
    def basis_vector(cls, rank: int, i: int, ring: str = RING_Z,
                     dual: bool = False) -> "Multivector":
        if not 0 <= i < rank:
            raise ValueError(f"basis index {i} outside 0..{rank - 1}")
        return cls(rank, {1 << i: 1}, ring, dual)

    @classmethod
    def vector(cls, rank: int, coeffs: Sequence[int], ring: str = RING_Z,
               dual: bool = False) -> "Multivector":
        """Degree-1 element with the given coordinates."""
        if len(coeffs) != rank:
            raise ValueError("coordinate vector length != rank")
        return cls(rank, {1 << i: c for i, c in enumerate(coeffs) if c}, ring, dual)

    @classmethod
    def top(cls, rank: int, ring: str = RING_Z, dual: bool = False) -> "Multivector":
        """The full wedge of all generators in ascending order."""
        return cls(rank, {(1 << rank) - 1: 1}, ring, dual)

    # -- basic structure --------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Common degree of all terms; None for 0 or mixed elements."""
        degs = {m.bit_count() for m in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def _sorted_masks(self) -> list[int]:
        return sorted(self.terms, key=lambda m: (m.bit_count(), indices_of(m)))

    # -- arithmetic -------------------------------------------------------
    def _like(self, other: "Multivector", op: str) -> None:
        if (self.rank, self.ring, self.dual) != (other.rank, other.ring, other.dual):
            raise ValueError(f"{op}: mismatched algebras "
                             f"({self.rank},{self.ring},dual={self.dual}) vs "
                             f"({other.rank},{other.ring},dual={other.dual})")

    def __add__(self, other: "Multivector") -> "Multivector":
        self._like(other, "add")
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Multivector(self.rank, terms, self.ring, self.dual)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

    def __neg__(self) -> "Multivector":
        return Multivector(self.rank, {m: -c for m, c in self.terms.items()},
                           self.ring, self.dual)

    def scale(self, c: int) -> "Multivector":
        return Multivector(self.rank, {m: c * v for m, v in self.terms.items()},
                           self.ring, self.dual)

    def wedge(self, other: "Multivector") -> "Multivector":
        self._like(other, "wedge")
        terms: dict[int, int] = {}
        get = terms.get
        if self.ring == RING_F2:
            for mb in other.terms:
                for ma in self.terms:
                    if not ma & mb:
                        m = ma | mb
                        terms[m] = get(m, 0) ^ 1
        else:
            for mb, cb in other.terms.items():
                p = _odd_below(mb)
                for ma, ca in self.terms.items():
                    if not ma & mb:
                        m = ma | mb
                        c = ca * cb
                        terms[m] = get(m, 0) + (-c if (ma & p).bit_count() & 1 else c)
        return Multivector._built(self.rank, terms, self.ring, self.dual)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Multivector)
                and (self.rank, self.ring, self.dual) == (other.rank, other.ring, other.dual)
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.rank, self.ring, self.dual, frozenset(self.terms.items())))

    # -- rendering --------------------------------------------------------
    def text(self) -> str:
        """Canonical text form: terms like ``k·[i1,i2]`` joined with `` + ``."""
        if not self.terms:
            return "0"
        parts = []
        for m in self._sorted_masks():
            c = self.terms[m]
            if m == 0:
                parts.append(str(c))
                continue
            body = "[" + ",".join(str(i) for i in indices_of(m)) + "]"
            if c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append(f"{c}·{body}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        tag = "*" if self.dual else ""
        return f"<Multivector{tag} rank={self.rank} ring={self.ring} {self.text()}>"


def equal_up_to_sign(a: Multivector, b: Multivector) -> bool:
    """a == b, or a == -b over Z; elements of different algebras differ."""
    return a == b or (a.ring == RING_Z and a == -b)


def pair(f: Multivector, e: Multivector) -> int:
    """Determinant pairing of a dual element against a primal one.

    On decomposables of equal degree this is det(f_i(e_j)); across degrees
    it vanishes.  Either argument order is accepted (the pairing is
    symmetric under the double-dual identification).
    """
    if f.rank != e.rank or f.ring != e.ring:
        raise ValueError("pair: mismatched algebras")
    if f.dual == e.dual:
        raise ValueError("pair: needs one primal and one dual argument")
    total = 0
    small, big = (f, e) if len(f.terms) <= len(e.terms) else (e, f)
    for m, c in small.terms.items():
        other = big.terms.get(m)
        if other:
            total += c * other
    return _norm(total, f.ring)


def interior(x: Multivector, y: Multivector) -> Multivector:
    """Interior product iota_x(y), contracting x into the opposite-variance y.

    Defined by <interior(x, y) | g> = <y | x ^ g>.  On basis wedges:
    iota_{e_J}(e*_I) = sign(J, I\\J) e*_{I\\J} when J is a subset of I.
    By graded commutativity sign(J, R) = (-1)^(|J||R|) sign(R, J), so the
    sign is the parity of R & P(J), complemented when |J| is odd.
    """
    if x.rank != y.rank or x.ring != y.ring:
        raise ValueError("interior: mismatched algebras")
    if x.dual == y.dual:
        raise ValueError("interior: arguments must have opposite variance")
    terms: dict[int, int] = {}
    get = terms.get
    if y.ring == RING_F2:
        for mj in x.terms:
            for mi in y.terms:
                if (mi & mj) == mj:
                    rest = mi ^ mj
                    terms[rest] = get(rest, 0) ^ 1
    else:
        for mj, cx in x.terms.items():
            p = _odd_below(mj)
            if mj.bit_count() & 1:
                p = ~p
            for mi, cy in y.terms.items():
                if (mi & mj) == mj:
                    rest = mi ^ mj
                    c = cx * cy
                    terms[rest] = get(rest, 0) + (-c if (rest & p).bit_count() & 1 else c)
    return Multivector._built(y.rank, terms, y.ring, y.dual)


def induced_map(matrix: Sequence[Sequence[int]], x: Multivector,
                target_rank: int | None = None) -> Multivector:
    """Apply Lambda(T) to x, where T sends source generator j to
    sum_i matrix[i][j] * (target generator i).  A wedge step that would
    form more than TERM_BUDGET products is refused before it starts."""
    rows = len(matrix)
    if target_rank is None:
        target_rank = rows
    cols = [Multivector.vector(target_rank,
                               [matrix[i][j] for i in range(rows)] + [0] * (target_rank - rows),
                               x.ring, x.dual)
            for j in range(x.rank)]
    terms: dict[int, int] = {}
    get = terms.get
    f2 = x.ring == RING_F2
    for mask, c in x.terms.items():
        acc = Multivector.unit(target_rank, x.ring, x.dual)
        for j in indices_of(mask):
            if len(acc.terms) * len(cols[j].terms) > TERM_BUDGET:
                raise ValidationError(
                    f"an exterior expansion would pass the budget of {TERM_BUDGET} terms")
            acc = acc.wedge(cols[j])
            if acc.is_zero():
                break
        for m, v in acc.terms.items():
            terms[m] = get(m, 0) ^ 1 if f2 else get(m, 0) + c * v
    return Multivector._built(target_rank, terms, x.ring, x.dual)
