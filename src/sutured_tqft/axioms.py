"""Machine checks for the structural axioms of the boundary invariant.

Five axioms are exercised: graded ranks of V(S) are binomial(L, i) and sum
to 2**L, disjoint unions carry tensor products of contact elements,
dividing sets with a contractible closed curve have vanishing elements,
gluing morphisms carry contact elements to contact elements, and marked
relabelings act naturally on all of it.  Two further checks cover the
machinery behind uniqueness: square families from a quadrangulation give
a 2**L contact-element basis, and one-suture ("simple") gluing morphisms
are invertible, with the two smallest disks carrying the expected
modules.

Every check is a pure function returning an AxiomReport, and the harness
runs them one after another; all randomness is drawn up front from one
seed and the seed is echoed in every randomized report.

The module also carries a replayable instance of the excess-intersection
induction used to put dividing sets in minimal position against a cut
arc: an explicit grid disk where one dividing set meets the arc three
times and two companions obtained by local surgery meet it once.
"""

import itertools
import random
from dataclasses import dataclass
from math import comb

from .contact import contact_element, default_basis
from .dividing import (ChordDiagram, DividingSet, add_trivial_circle,
                       annulus_fixture, catalan, chord_diagram_at,
                       chord_to_dividing_set, enumerate_chord_diagrams,
                       regions)
from .disks import disk_contact_element, rotate_diagram
from .errors import (InternalConsistencyError, InvalidGluingError,
                     ValidationError)
from .exterior import RING_F2, RING_Z, Multivector, equal_up_to_sign, induced_map
from .gluing import (_OPPOSITE_MARK, Gluing, _respect_parts, _respects, glue,
                     glued_relative_basis, gluing_morphism, pushforward_class,
                     quadrangulate, square_chord_family)
from .homology import HomologyBasis, RelativeH1, induced_matrix
from .linalg import f2_rank
from .models import annulus_model, disk_model, one_holed_torus
from .surface import (Surface, UnionFind, chain_from_path, disjoint_union,
                      push_chain, standard_disk, validate_surface)

DEFAULT_SEED = 20260823
# Members of the largest square family the suite may check: the disk with
# max_n sutures has 2^(max_n - 1), and each costs a few milliseconds, so
# the suite's time doubles with every step of max_n past the budget.
SQUARE_FAMILY_BUDGET = 2 ** 10
# Gluing samples the suite may draw: it draws the whole corpus up front,
# about 2.3 KiB a sample, and 10,000 samples at max_n 11 took 13 s and
# 238 MiB peak RSS on a 2-vCPU machine.
GLUING_SAMPLES_BUDGET = 10_000

AXIOM_NAMES = {
    1: "graded rank",
    2: "disjoint union",
    3: "trivial closed curve",
    4: "gluing",
    5: "relabeling",
}


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one axiom check.

    `witness` replays a failure: it serializes the inputs of the first
    failing comparison.  Passing reports never carry one.  `seed` is set
    whenever the instance was drawn randomly.
    """

    axiom: int
    instance: str
    verdict: bool
    witness: dict | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.axiom not in AXIOM_NAMES:
            raise ValidationError(f"axiom id {self.axiom} outside 1..5")
        if self.verdict and self.witness is not None:
            raise ValidationError("witness recorded on a passing report")

    def to_json_dict(self) -> dict:
        out = {"axiom": self.axiom, "name": AXIOM_NAMES[self.axiom],
               "instance": self.instance, "verdict": self.verdict}
        if self.seed is not None:
            out["seed"] = self.seed
        if self.witness is not None:
            out["witness"] = self.witness
        return out


# -- small multivector utilities ------------------------------------------

def tensor_multivector(x: Multivector, y: Multivector) -> Multivector:
    """x (x) y under the block identification e_i ^ e_{rank(x)+j}: x
    wedged with y shifted past x's generators, which costs no reordering
    sign, since every index of x precedes every index of y."""
    rank = x.rank + y.rank
    shifted = {m << x.rank: c for m, c in y.terms.items()}
    return Multivector(rank, x.terms, x.ring).wedge(Multivector(rank, shifted, y.ring))


def _sign_normal(x: Multivector) -> Multivector:
    """Flip x so its lowest-mask coefficient is positive (over Z)."""
    if x.ring == RING_F2 or x.is_zero():
        return x
    return x.scale(-1) if x.terms[min(x.terms)] < 0 else x


def _same_up_to_signs(left, right) -> bool:
    """Do two element lists agree as multisets, each entry up to sign?"""
    def keyed(xs):
        return sorted(tuple(sorted(_sign_normal(x).terms.items())) for x in xs)
    return keyed(left) == keyed(right)


def _proportional(pairs, ring: str) -> bool:
    """All (lhs, rhs) pairs equal, for one shared choice of sign."""
    signs = (1,) if ring == RING_F2 else (1, -1)
    return any(all(lhs == rhs.scale(sg) for lhs, rhs in pairs) for sg in signs)


# -- axiom 1: graded ranks ------------------------------------------------

def check_grading(s: Surface, instance: str = "surface") -> AxiomReport:
    """V(S) is free of total rank 2**L with rank binomial(L, i) in the
    grading L - 2i, where L = |F+| - chi(S).

    The graded ranks are forced once H_1(S, alpha+) is free of rank L,
    so the verdict is that rank count plus an honest independence check
    of the computed representatives over both rings.
    """
    length = len(s.marks["F_plus"]) - s.euler_characteristic()
    h1 = RelativeH1(s, sorted(s.marks["alpha_plus"]))
    ok = length >= 0 and h1.rank == length
    if ok:
        reps = [h1.representative(i) for i in range(h1.rank)]
        for ring in (RING_Z, RING_F2):
            HomologyBasis(h1, ring, cycles=reps)  # raises unless a basis
    ranks = [comb(length, i) for i in range(length + 1)] if length >= 0 else []
    gradings = [length - 2 * i for i in range(len(ranks))]
    witness = None if ok else {
        "surface": s.to_json_dict(), "rank": h1.rank, "expected": length}
    return AxiomReport(
        1, f"{instance}: L={length}, ranks {ranks} in gradings {gradings}",
        ok, witness)


# -- axiom 2: disjoint unions ---------------------------------------------

def check_disjoint_union(k1: DividingSet, k2: DividingSet,
                         instance: str = "pair") -> AxiomReport:
    """c(K1 u K2) is c(K1) (x) c(K2) under the block identification of
    bases, up to one global sign over Z and exactly over F2."""
    s1, s2 = k1.surface, k2.surface
    union, _, hmap = disjoint_union(s1, s2)
    ku = DividingSet(union, k1.k_halfedges + tuple(hmap[h] for h in k2.k_halfedges))
    ok = True
    seen = {}
    for ring in (RING_F2, RING_Z):
        b1 = default_basis(s1, ring)
        b2 = default_basis(s2, ring)
        cycles = [dict(c) for c in b1.cycles]
        cycles += [{hmap[h]: c for h, c in cyc.items()} for cyc in b2.cycles]
        try:
            bu = HomologyBasis(RelativeH1(union, sorted(union.marks["alpha_plus"])),
                               ring, cycles=cycles)
        except ValidationError as exc:
            raise InternalConsistencyError("union basis is not the two factor bases") from exc
        t = tensor_multivector(contact_element(k1, ring=ring, basis=b1).value,
                               contact_element(k2, ring=ring, basis=b2).value)
        cu = contact_element(ku, ring=ring, basis=bu).value
        seen[ring] = (t, cu)
        ok = ok and equal_up_to_sign(t, cu)
    witness = None if ok else {
        "factor_1": k1.to_json_dict(), "factor_2": k2.to_json_dict(),
        "tensor": seen[RING_Z][0].text(), "union": seen[RING_Z][1].text()}
    return AxiomReport(2, instance, ok, witness)


# -- axiom 3: contractible closed curves ----------------------------------

def _closed_k_loops(ds: DividingSet) -> list[dict[int, int]]:
    """1-chains of the closed components of K, oriented as K is.

    A component that meets no suture is closed, and since the boundary
    of K is F+ - F-, its chain is a cycle."""
    s = ds.surface
    curves = UnionFind(s.vertices)
    for h in ds.k_halfedges:
        curves.union(s.tail(h), s.head[h])
    comps: dict[int, list[int]] = {}
    for h in ds.k_halfedges:
        comps.setdefault(curves.find(s.head[h]), []).append(h)
    ends = {curves.find(v) for v in s.marks["F_plus"] | s.marks["F_minus"]}
    return [chain_from_path(s, hs) for root, hs in comps.items()
            if root not in ends]


def check_trivial_closed(ds: DividingSet,
                         instance: str = "dividing set") -> AxiomReport:
    """A dividing set with a contractible closed curve has c(K) = 0.

    Contractibility is detected as null-homology of the loop, which on
    the disk and annulus instances fed to this check coincides with
    being null-homotopic.  Raises ValidationError when no such loop
    exists: the axiom is silent then.
    """
    h_abs = RelativeH1(ds.surface)
    if not any(all(c == 0 for c in h_abs.reduce(chain, RING_Z))
               for chain in _closed_k_loops(ds)):
        raise ValidationError(
            "dividing set has no contractible closed component")
    values = {ring: contact_element(ds, ring=ring).value
              for ring in (RING_F2, RING_Z)}
    ok = all(v.is_zero() for v in values.values())
    witness = None if ok else {
        "dividing_set": ds.to_json_dict(),
        "element": values[RING_Z].text()}
    return AxiomReport(3, instance, ok, witness)


# -- axiom 4: gluing ------------------------------------------------------

def check_gluing_axiom(corpus, seed: int | None = None,
                       instance: str | None = None) -> AxiomReport:
    """The gluing morphism sends c(K) to c(K_tau): exactly over F2, up
    to one global sign over Z.  `corpus` is an iterable of
    (DividingSet, Gluing) pairs on a shared host surface each.

    The F2 and the Z check of one gluing share everything integral: the
    H_1 of the quotient behind both rings' default bases, and from
    `_respect_parts` the pushed dividing set and the positive-region H_1
    and grade of K and of K_tau.  The pairs drawn from one dividing set
    object share its positive-region H_1 and grade, built once per
    distinct set; the pairs drawn from one Gluing object share its
    quotient and that quotient's F2 default basis, built once per
    distinct gluing, and that quotient is dropped after the gluing's last
    pair.  The morphism pushes the region classes of K, so no host basis
    and no middle H_1 is built.  Each ring still does its own
    arithmetic."""
    count = 0
    ok = True
    witness = None
    corpus = list(corpus)
    last = {tau: i for i, (_, tau) in enumerate(corpus)}
    host_regions = {}  # DividingSet -> (H_1(R+, a+), L(K))
    quotients = {}  # Gluing -> (glue(tau), F2 default basis of its quotient)
    for i, (ds, tau) in enumerate(corpus):
        if tau not in quotients:
            data = glue(tau)
            quotients[tau] = data, default_basis(data.result, RING_F2)
        data, rb = quotients[tau] if last[tau] > i else quotients.pop(tau)
        parts = _respect_parts(data, ds, host_regions)
        good = (_respects(parts, RING_F2, rb)
                and _respects(parts, RING_Z, HomologyBasis(rb.h1, RING_Z)))
        count += 1
        if not good:
            ok = False
            witness = {"surface": tau.host.to_json_dict(),
                       "gluing": tau.to_json_dict(),
                       "dividing_set": ds.to_json_dict()}
            break
    return AxiomReport(4, instance or f"{count} glued dividing sets",
                       ok, witness, seed=seed)


# -- axiom 5: relabeling --------------------------------------------------

def _halfedge_map_from_vertex_map(s: Surface,
                                  vmap: dict[int, int]) -> dict[int, int]:
    """Lift a vertex bijection to halfedges; raises unless each halfedge
    lands on exactly one (parallel ones then fail the isomorphism check)."""
    verts = sorted(s.vertices)
    if sorted(vmap) != verts or sorted(set(vmap.values())) != verts:
        raise ValidationError("relabeling is not a bijection on the vertices")
    hmap: dict[int, int] = {}
    for h in s.twin:
        hits = s.halfedges_between(vmap[s.tail(h)], vmap[s.head[h]])
        if len(hits) != 1:
            raise ValidationError(f"vertex map sends edge {s.tail(h)}-{s.head[h]} "
                                  f"to {len(hits)} halfedges")
        hmap[h] = hits[0]
    return hmap


def _face_key(walk) -> tuple[int, ...]:
    t = tuple(walk)
    return min(t[i:] + t[:i] for i in range(len(t)))


def _assert_marked_isomorphism(s: Surface, vmap: dict[int, int],
                               hmap: dict[int, int]) -> None:
    """Raise unless relabeling s gives back s, up to rotating face walks."""
    image = s.relabel(vmap, hmap)
    if image.twin != s.twin:
        raise ValidationError("relabeling does not commute with the edge pairing")
    if image.head != s.head:
        raise ValidationError("relabeling does not respect heads")
    if {_face_key(w) for w in image.faces} != {_face_key(w) for w in s.faces}:
        raise ValidationError("relabeling does not permute the faces")
    if image.marks != s.marks:
        raise ValidationError("relabeling moves the marks")


def _commutes_with_gluing(s: Surface, hmap: dict[int, int], action,
                          tau: Gluing, basis: HomologyBasis,
                          ring: str) -> bool:
    """Does the relabeling intertwine the morphisms of tau and of its
    image gluing, up to one global sign?"""
    tau2 = Gluing(s, tuple(hmap[h] for h in tau.gamma),
                  tuple(hmap[h] for h in tau.gamma_prime))
    d1, d2 = glue(tau), glue(tau2)
    sigma: dict[int, int] = {}
    for h in s.twin:
        a, b = d1.halfedge_map[h], d2.halfedge_map[hmap[h]]
        if sigma.setdefault(a, b) != b:
            return False
    br1 = default_basis(d1.result, ring)
    br2 = default_basis(d2.result, ring)
    carry = induced_matrix(br1, br2,
                           push=lambda ch: push_chain(ch, sigma, d2.result))
    pairs = []
    for mask in range(1 << basis.rank):
        x = Multivector(basis.rank, {mask: 1}, ring)
        lhs = gluing_morphism(d2, induced_map(action, x),
                              host_basis=basis, result_basis=br2)
        rhs = induced_map(carry, gluing_morphism(
            d1, x, host_basis=basis, result_basis=br1))
        pairs.append((lhs, rhs))
    return _proportional(pairs, ring)


def check_relabel_invariance(s: Surface, relabeling: dict[int, int],
                             dividing_sets=(), gluings=(),
                             paired_elements=(), permuted_sets=(),
                             basis: HomologyBasis | None = None,
                             ring: str = RING_F2,
                             instance: str = "relabeling") -> AxiomReport:
    """A marking-preserving combinatorial self-isomorphism acts on V(S)
    sending contact elements to contact elements up to sign and
    commuting with gluing morphisms up to sign.

    `relabeling` is a vertex bijection; its halfedge lift must exist.
    `dividing_sets` are pushed forward and compared; `paired_elements`
    are (x, image-of-x) coordinate pairs; `permuted_sets` are element
    lists the action must permute up to signs; `gluings` are sites whose
    morphisms must intertwine.  All comparisons run over `ring` in the
    coordinates of `basis` (default: the generic basis of s).
    """
    vmap = dict(relabeling)
    hmap = _halfedge_map_from_vertex_map(s, vmap)
    _assert_marked_isomorphism(s, vmap, hmap)
    if basis is None:
        basis = default_basis(s, ring)
    action = induced_matrix(basis, basis,
                            push=lambda ch: push_chain(ch, hmap, s))
    checks: list[tuple[str, bool]] = []
    for ds in dividing_sets:
        pushed = DividingSet(ds.surface, [hmap[h] for h in ds.k_halfedges])
        lhs = induced_map(action,
                          contact_element(ds, ring=ring, basis=basis).value)
        rhs = contact_element(pushed, ring=ring, basis=basis).value
        checks.append(("dividing set", equal_up_to_sign(lhs, rhs)))
    for x, y in paired_elements:
        checks.append(("element pair",
                       equal_up_to_sign(induced_map(action, x), y)))
    for elems in permuted_sets:
        mapped = [induced_map(action, x) for x in elems]
        checks.append(("element set", _same_up_to_signs(mapped, list(elems))))
    for tau in gluings:
        checks.append(("gluing",
                       _commutes_with_gluing(s, hmap, action, tau, basis,
                                             ring)))
    ok = all(v for _, v in checks)
    witness = None if ok else {
        "surface": s.to_json_dict(),
        "vertex_map": {str(a): b for a, b in sorted(vmap.items())},
        "failed": [lbl for lbl, v in checks if not v]}
    return AxiomReport(5, f"{instance}: {len(checks)} comparisons over {ring}",
                       ok, witness)


# -- quadrangulation bases and simple gluings -----------------------------

def _one_suture_disk_components(s: Surface) -> bool:
    return any(chi == 1 and len(comp & s.marks["F_plus"]) == 1
               for comp, _, chi in s.component_topology())


def check_basis_of_contact_elements(s: Surface,
                                    instance: str = "surface") -> AxiomReport:
    """The square family of a quadrangulation yields 2**L dividing sets
    whose contact elements form a basis of V(S) over F2."""
    if _one_suture_disk_components(s):
        raise ValidationError("one-suture disk components unsupported")
    dec = quadrangulate(s)
    pieces, reverse, options = square_chord_family(dec)
    welded = glue(reverse).result
    base = default_basis(welded, RING_F2)
    rows = []
    for combo in itertools.product(*[range(len(o)) for o in options]):
        # the chords are interior edges of the pieces, which the re-weld
        # keeps with their ids and faces: each member is built in place
        k_edges: set[int] = set()
        for opts, pick in zip(options, combo):
            for path in opts[pick]:
                k_edges |= {pieces.canonical(h) for h in path}
        ds = DividingSet(welded, sorted(k_edges))
        c = contact_element(ds, ring=RING_F2, basis=base).value
        rows.append(sum((v & 1) << t for t, v in c.terms.items()))
    ok = (len(rows) == 1 << base.rank and f2_rank(rows) == len(rows))
    witness = None if ok else {
        "surface": s.to_json_dict(), "rows": rows, "rank": base.rank}
    return AxiomReport(
        1, f"{instance}: {len(rows)} square-family elements vs rank {base.rank}",
        ok, witness)


def _suture_corner_sites(s: Surface, sutures: int = 1):
    """Gluing sites: ordered pairs of disjoint boundary arcs running
    from an alpha vertex to an alpha vertex over `sutures` marked points,
    the second arc listed reversed as the gluing expects.  Each site is
    returned as its pair (gamma, gamma_prime) of halfedge tuples, with no
    validation: `Gluing(s, *site)` validates the one a caller uses.

    Gluing ga = (v_0 .. v_n) to gb = (w_0 .. w_n) reversed identifies
    v_j with w_(n-j).  Three keys, computed once per arc, prune the pairs:
    gb's mark sequence must be ga's reversed with F+ and F- swapped, the
    arcs must share no edge, and no v_j may equal w_(n-j).  Candidates are
    drawn from a bucket per mark sequence, in arc order, so the site list
    is the one all pairs would give.

    On a valid surface the keys imply every rule that `Gluing` checks.
    Each arc is a proper sub-run of one boundary circle, since
    `sutures` < k, so its halfedges are boundary halfedges on distinct
    edges, and the edge key keeps the two arcs apart.  The mark key gives
    equal lengths and no mark clash.  `validate_surface` refuses a
    pinched boundary, so an arc passes no vertex twice, and a vertex
    inside one arc has both its boundary edges on it, out of the other
    arc's reach: nothing is sent to two vertices, the identification is
    injective and no vertex ends more than two glued halfedges.  Stretches end at the arc ends,
    which are alpha vertices, and the third key refuses self-gluing.  No
    component closes: one arc cannot cover its circle, and two arcs that
    cover one would glue v_0 to w_n = v_0.
    """
    alpha = s.marks["alpha_plus"] | s.marks["alpha_minus"]
    arcs: list[tuple[int, ...]] = []
    for circle in s.boundary_circles():
        m = len(circle)
        alpha_pos = [i for i in range(m) if s.tail(circle[i]) in alpha]
        k = len(alpha_pos)
        if sutures >= k:
            continue
        for j in range(k):
            a, b = alpha_pos[j], alpha_pos[(j + sutures) % k]
            run: list[int] = []
            i = a
            while i != b:
                run.append(circle[i])
                i = (i + 1) % m
            arcs.append(tuple(run))
    verts = [(s.tail(arc[0]), *(s.head[h] for h in arc)) for arc in arcs]
    edges = [{s.canonical(h) for h in arc} for arc in arcs]
    marks = [tuple(s.mark_of(v) for v in vs) for vs in verts]
    by_marks: dict[tuple, list[int]] = {}
    for ib, key in enumerate(marks):
        by_marks.setdefault(key, []).append(ib)
    sites = []
    for ia, ga in enumerate(arcs):
        partner = tuple(_OPPOSITE_MARK[k] for k in reversed(marks[ia]))
        for ib in by_marks.get(partner, ()):
            # w_(n-j) is v_j's partner: the reversed vertex list lines them up
            if (not edges[ia].isdisjoint(edges[ib])
                    or any(v == w for v, w in zip(verts[ia], reversed(verts[ib])))):
                continue
            sites.append((ga, tuple(reversed(arcs[ib]))))
    return sites


def _gluing_at(s: Surface, site) -> Gluing:
    """The validated Gluing at a site of `_suture_corner_sites`.  The
    keys there imply every validation rule, so a refusal is a bug, not
    malformed input."""
    try:
        return Gluing(s, *site)
    except InvalidGluingError as exc:
        raise InternalConsistencyError(f"corner site fails validation: {exc}") from exc


def check_uniqueness_hypotheses(seed: int = DEFAULT_SEED,
                                samples: int = 12) -> AxiomReport:
    """The two hypotheses behind uniqueness of the invariant.

    (1) One-suture gluings swallow nothing, so their morphisms are plain
    induced maps; the pushed host basis must be a basis of the quotient's
    homology over Z and over F2 on a sampled corpus of such sites.
    (2) The two smallest disks carry the expected modules: rank one with
    element 1 for a single suture, {1, b1} in gradings (0, 1) for two.
    """
    rng = random.Random(seed)
    pool = []
    for host in [standard_disk(n) for n in (3, 4, 5)] + [annulus_model().surface]:
        pool.extend((host, site) for site in _suture_corner_sites(host))
    rng.shuffle(pool)
    ok = True
    witness = None
    tested = 0
    host_bases: dict[Surface, HomologyBasis] = {}  # four hosts, many sites
    for host, site in pool:
        if tested >= samples:
            break
        tau = _gluing_at(host, site)
        data = glue(tau)
        if data.swallowed:
            raise InternalConsistencyError("one-suture site swallowed a vertex")
        if tau.host not in host_bases:
            host_bases[tau.host] = default_basis(tau.host, RING_Z)
        hb = host_bases[tau.host]
        rb = glued_relative_basis(data, RING_Z)
        pushed = [pushforward_class(data, c) for c in hb.cycles]
        try:
            for ring in (RING_Z, RING_F2):
                HomologyBasis(rb.h1, ring, cycles=pushed)
        except ValidationError:
            ok = False
            witness = {"gluing": tau.to_json_dict(),
                       "matrix": induced_matrix(
                           hb, rb, push=lambda ch: pushforward_class(data, ch))}
            break
        tested += 1
    if ok and tested < min(samples, 4):
        ok = False
        witness = {"tested": tested}

    if ok:
        for ring in (RING_F2, RING_Z):
            expected = {1: [Multivector.unit(0, ring)],
                        2: [Multivector.unit(1, ring),
                            Multivector.basis_vector(1, 0, ring)]}
            for n, expect in expected.items():
                got = [disk_contact_element(cd, ring).value
                       for cd in enumerate_chord_diagrams(n)]
                if (sorted(x.degree() for x in got) != list(range(len(expect)))
                        or not _same_up_to_signs(got, expect)):
                    ok = False
                    witness = {"disk": n, "ring": ring,
                               "elements": sorted(x.text() for x in got)}
                    break
            if not ok:
                break
    return AxiomReport(4, f"{tested} one-suture gluings + smallest disks",
                       ok, witness, seed=seed)


# -- randomized corpus ----------------------------------------------------

def random_sutured_surface(rng: random.Random) -> Surface:
    """A random valid sutured surface: one or two standard disks, glued
    to itself along zero, one or two boundary arc pairs.  Rejection
    sampling keeps at most 8 sutures, total genus 2 and 3 boundary
    circles."""
    for _ in range(64):
        s = standard_disk(rng.randint(1, 4))
        if rng.random() < 0.4:
            s, _, _ = disjoint_union(s, standard_disk(rng.randint(1, 3)))
        for _ in range(rng.randint(0, 2)):
            sites = _suture_corner_sites(s, sutures=rng.choice((1, 2)))
            if not sites:
                break
            s = glue(_gluing_at(s, sites[rng.randrange(len(sites))])).result
        n_f = len(s.marks["F_plus"])
        if 0 < n_f <= 8 and s.genus() <= 2 and len(s.boundary_circles()) <= 3:
            validate_surface(s)
            return s
    raise InternalConsistencyError("could not sample a sutured surface")


def _draw_diagram(rng: random.Random, n: int) -> ChordDiagram:
    """The draw of `rng.choice(enumerate_chord_diagrams(n))`, with no list built."""
    return chord_diagram_at(n, rng.randrange(catalan(n)))


def random_glued_dividing_sets(rng: random.Random, count: int,
                               max_n: int = 5):
    """(DividingSet, Gluing) pairs: a random chord diagram on a disk and
    a random self-gluing site covering one or two sutures.

    The diagram is drawn by its index in `enumerate_chord_diagrams`
    order and built by `chord_diagram_at`, so no list is enumerated.
    Repeated draws share their work: pairs drawn from the same diagram
    share one DividingSet, and pairs drawn at the same site one Gluing,
    the only site of its list that is validated."""
    if count > 0 and max_n < 3:
        # disks with at most two chords have no one- or two-suture site
        raise ValidationError(f"glued dividing sets need max_n >= 3, got {max_n}")
    # (n, index) -> DividingSet; + (sutures,) -> sites; + (site,) -> Gluing
    sets, site_lists, gluings = {}, {}, {}
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 64 * (count + 1):
            raise ValidationError(
                f"drew only {len(out)} of {count} glueable dividing sets "
                f"with at most {max_n} chords")
        n = rng.randint(2, max_n)
        key = (n, rng.randrange(catalan(n)))
        if key not in sets:
            sets[key] = chord_to_dividing_set(chord_diagram_at(*key))
        ds = sets[key]
        key += (rng.choice((1, 2)),)
        if key not in site_lists:
            site_lists[key] = _suture_corner_sites(ds.surface, sutures=key[2])
        sites = site_lists[key]
        if not sites:
            continue
        key += (rng.randrange(len(sites)),)
        if key not in gluings:
            gluings[key] = _gluing_at(ds.surface, sites[key[3]])
        out.append((ds, gluings[key]))
    return out


# -- excess-intersection induction ----------------------------------------

def _grid_vertex(w: int, i: int, j: int) -> int:
    """The id of grid point (i, j) on a grid w squares wide."""
    return j * (w + 1) + i


def _grid_disk(w: int, h: int, mark_plan) -> Surface:
    """A w-by-h square grid as one sutured disk.

    Vertices are the points (i, j), numbered by `_grid_vertex`; every
    unit square is a face, the perimeter is the boundary circle.
    `mark_plan` maps (i, j) pairs to mark kinds.
    """
    twin: dict[int, int] = {}
    head: dict[int, int] = {}
    hid: dict[tuple[int, int], int] = {}

    def edge(a, b):
        if (a, b) in hid:
            return hid[(a, b)]
        ha = len(twin)
        hb = ha + 1
        twin[ha] = hb
        twin[hb] = ha
        head[ha] = b
        head[hb] = a
        hid[(a, b)] = ha
        hid[(b, a)] = hb
        return ha

    faces = []
    for j in range(h):
        for i in range(w):
            a, b = _grid_vertex(w, i, j), _grid_vertex(w, i + 1, j)
            c, d = _grid_vertex(w, i + 1, j + 1), _grid_vertex(w, i, j + 1)
            faces.append([edge(a, b), edge(b, c), edge(c, d), edge(d, a)])
    marks = {k: set() for k in ("F_plus", "alpha_plus", "F_minus",
                                "alpha_minus")}
    for (i, j), kind in mark_plan.items():
        marks[kind].add(_grid_vertex(w, i, j))
    s = Surface(twin, head, faces, marks)
    validate_surface(s)
    return s


def transversal_crossings(s: Surface, k_halfedges, arc_vertices) -> int:
    """Number of interior arc vertices where the dividing set crosses
    from one side of the vertex path to the other."""
    k_out: dict[int, set[int]] = {}
    for h in k_halfedges:
        for g in (h, s.twin[h]):
            k_out.setdefault(s.tail(g), set()).add(g)
    crossings = 0
    for t in range(1, len(arc_vertices) - 1):
        v = arc_vertices[t]
        if v not in k_out:
            continue
        (back,) = s.halfedges_between(v, arc_vertices[t - 1])
        (ahead,) = s.halfedges_between(v, arc_vertices[t + 1])
        fan = s.outgoing_fan(v)
        pos = {g: i for i, g in enumerate(fan)}
        lo, hi = sorted((pos[back], pos[ahead]))
        between = sum(1 for g in k_out[v] if lo < pos[g] < hi)
        if between == 1:
            crossings += 1
    return crossings


def _grid_set(s: Surface, w: int, paths) -> DividingSet:
    """The dividing set along paths of points of the w-wide grid disk s."""
    k_edges: set[int] = set()
    for path in paths:
        for (a, b) in zip(path, path[1:]):
            (h,) = s.halfedges_between(_grid_vertex(w, *a), _grid_vertex(w, *b))
            k_edges.add(s.canonical(h))
    return DividingSet(s, sorted(k_edges))


def excess_intersection_replay() -> dict:
    """One replayable step of the excess-intersection induction.

    On a 6x8 grid disk with three sutures per sign, the cut arc sigma
    runs straight across the middle row.  K0 carries excess 2 against
    sigma (three crossings from one component); surgery inside a disk
    straddling sigma produces K1 (the same diagram in minimal position)
    and K2 (a different diagram plus a contractible circle), both
    crossing once.  The three contact elements satisfy the expected
    relation: c(K0) = +-c(K1), c(K2) = 0, and the sum vanishes mod 2.
    """
    marks = {(1, 0): "F_plus", (2, 0): "alpha_plus", (3, 0): "F_minus",
             (4, 0): "alpha_minus", (5, 0): "F_plus", (6, 4): "alpha_plus",
             (5, 8): "F_minus", (4, 8): "alpha_minus", (3, 8): "F_plus",
             (2, 8): "alpha_plus", (1, 8): "F_minus", (0, 4): "alpha_minus"}
    w = 6
    s = _grid_disk(w, 8, marks)
    sigma = [(i, 4) for i in range(7)]

    k0 = _grid_set(s, w, [
        [(1, 0), (1, 1), (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 5),
         (3, 4), (3, 3), (3, 2), (3, 1), (3, 0)],
        [(5, 0), (5, 1), (4, 1), (4, 2), (4, 3), (4, 4), (4, 5), (4, 6),
         (3, 6), (2, 6), (1, 6), (1, 7), (1, 8)],
        [(5, 8), (5, 7), (4, 7), (3, 7), (3, 8)]])
    k1 = _grid_set(s, w, [
        [(1, 0), (1, 1), (2, 1), (3, 1), (3, 0)],
        [(5, 0), (5, 1), (4, 1), (4, 2), (4, 3), (4, 4), (4, 5), (4, 6),
         (3, 6), (2, 6), (1, 6), (1, 7), (1, 8)],
        [(5, 8), (5, 7), (4, 7), (3, 7), (3, 8)]])
    k2 = _grid_set(s, w, [
        [(1, 0), (1, 1), (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
         (1, 6), (1, 7), (1, 8)],
        [(3, 0), (3, 1), (4, 1), (5, 1), (5, 0)],
        [(5, 8), (5, 7), (4, 7), (3, 7), (3, 8)],
        [(3, 5), (4, 5), (4, 6), (3, 6), (3, 5)]])

    arc = [_grid_vertex(w, *p) for p in sigma]
    sets = (k0, k1, k2)
    crossings = tuple(transversal_crossings(s, ds.k_halfedges, arc)
                      for ds in sets)
    # one cut-arc component meets K in each set, so excess = crossings - 1
    excess = tuple(c - 1 for c in crossings)
    elements = {ring: [contact_element(ds, ring=ring).value for ds in sets]
                for ring in (RING_F2, RING_Z)}
    e0, e1, e2 = elements[RING_Z]
    f0, f1, f2_ = elements[RING_F2]
    verdict = (crossings == (3, 1, 1)
               and excess[0] == 2 and excess[1] == 0 and excess[2] == 0
               and equal_up_to_sign(e0, e1)
               and e2.is_zero() and f2_.is_zero()
               and (f0 + f1 + f2_).is_zero()
               and not f0.is_zero())
    return {"surface": s, "cut_arc": arc, "sets": sets,
            "crossings": crossings, "excess": excess,
            "elements": elements, "verdict": verdict}


# -- harness --------------------------------------------------------------

def _merge(axiom: int, instance: str, reports, seed=None) -> AxiomReport:
    ok = all(r.verdict for r in reports)
    witness = None
    if not ok:
        bad = next(r for r in reports if not r.verdict)
        witness = {"instance": bad.instance}
        if bad.witness:
            witness.update(bad.witness)
    return AxiomReport(axiom, instance, ok, witness, seed=seed)


def run_axiom_suite(seed: int = DEFAULT_SEED, max_n: int = 5,
                    gluing_samples: int = 200) -> list[AxiomReport]:
    """Build the seeded corpus and run every axiom check over it.

    All random draws happen up front on one generator, so the report
    list is a pure function of the arguments; the checks themselves are
    independent and run one after another.
    """
    if max_n < 1:
        raise ValidationError(f"max_n must be at least 1, got {max_n}")
    # for a power-of-two budget this is 2^(max_n - 1) > SQUARE_FAMILY_BUDGET,
    # without raising 2 to an unbounded power
    if max_n > SQUARE_FAMILY_BUDGET.bit_length():
        raise ValidationError(
            f"max_n {max_n} needs a square family of 2^{max_n - 1} members, over "
            f"the budget of {SQUARE_FAMILY_BUDGET} (max_n at most "
            f"{SQUARE_FAMILY_BUDGET.bit_length()})")
    if gluing_samples < 0:
        raise ValidationError(f"gluing_samples must be nonnegative, got {gluing_samples}")
    if gluing_samples > GLUING_SAMPLES_BUDGET:
        raise ValidationError(f"gluing_samples {gluing_samples} is over the budget of "
                              f"{GLUING_SAMPLES_BUDGET}")
    rng = random.Random(seed)

    disks = [(f"disk with {n} sutures", standard_disk(n))
             for n in range(1, max_n + 1)]
    fixed = [("annulus", annulus_model().surface),
             ("one-holed torus", one_holed_torus()),
             ("disk pair", disjoint_union(standard_disk(2), standard_disk(3))[0])]
    named = disks + fixed + [(f"random surface {i}", random_sutured_surface(rng))
                             for i in range(6)]

    du_pairs = []
    for _ in range(8):
        cds = [_draw_diagram(rng, rng.randint(2, 4)) for _ in range(2)]
        du_pairs.append(tuple(chord_to_dividing_set(cd) for cd in cds))
    iso_base = chord_to_dividing_set(_draw_diagram(rng, 3))
    iso_factor = add_trivial_circle(
        iso_base, min(regions(iso_base).faces_plus))[0]
    du_pairs.append((chord_to_dividing_set(enumerate_chord_diagrams(2)[0]),
                     iso_factor))

    trivial = []
    for n in (2, 3):
        base = chord_to_dividing_set(_draw_diagram(rng, n))
        reg = regions(base)
        for fid in (min(reg.faces_plus), min(reg.faces_minus)):
            trivial.append((f"circle in a face of a {n}-suture disk",
                            add_trivial_circle(base, fid)[0]))
    trivial.append(("circle added to the positive annulus set",
                    add_trivial_circle(*_annulus_circle_site())[0]))

    respect_corpus = random_glued_dividing_sets(rng, gluing_samples,
                                                max_n=max_n)
    welding = chord_to_dividing_set(_welding_diagram())
    respect_corpus.append((
        welding, Gluing(welding.surface, (30, 0, 2, 4), (20, 18, 16, 14))))

    basis_surfaces = disks[1:] + fixed

    reports = [
        _merge(1, f"graded ranks on {len(named)} surfaces",
               [check_grading(s, instance=nm) for nm, s in named], seed=seed),
        _merge(2, f"{len(du_pairs)} disjoint unions",
               [check_disjoint_union(a, b, instance=f"pair {i}")
                for i, (a, b) in enumerate(du_pairs)], seed=seed),
    ]
    closed = [check_trivial_closed(ds, instance=nm) for nm, ds in trivial]
    _, k0 = annulus_fixture("K0")
    closed.append(AxiomReport(
        3, "essential core circle keeps its element nonzero",
        not contact_element(k0, ring=RING_F2).value.is_zero()))
    reports.append(_merge(3, f"{len(closed)} closed-curve instances", closed, seed=seed))
    reports.append(check_gluing_axiom(
        respect_corpus, seed=seed, instance=f"{len(respect_corpus)} glued dividing sets"))
    relabelings = _relabel_reports()
    reports.append(_merge(5, f"{len(relabelings)} relabeling instances", relabelings,
                          seed=seed))
    reports.append(_merge(1, "square-family contact bases",
                          [check_basis_of_contact_elements(s, instance=nm)
                           for nm, s in basis_surfaces], seed=seed))
    reports.append(check_uniqueness_hypotheses(seed=seed))
    replay = excess_intersection_replay()
    witness = None if replay["verdict"] else {
        "crossings": list(replay["crossings"]),
        "sets": [ds.to_json_dict() for ds in replay["sets"]]}
    reports.append(AxiomReport(
        4, "excess-intersection induction replay on the grid disk",
        replay["verdict"], witness))
    return sorted(reports, key=lambda r: (r.axiom, r.instance))


def _welding_diagram():
    return ChordDiagram.parse("1-8,2-3,4-5,6-7")


def _annulus_circle_site():
    _, ds = annulus_fixture("K+")
    return ds, min(regions(ds).faces_plus)


def _relabel_reports():
    """Deterministic relabeling checks: identity on a fixture, the disk
    rotation by one suture period, and the annulus reflection."""
    _, ds = annulus_fixture("K-")
    reports = [check_relabel_invariance(
        ds.surface, {v: v for v in ds.surface.vertices}, dividing_sets=(ds,),
        instance="identity on the negative annulus set")]
    dm = disk_model(3)
    am = annulus_model()
    for ring in (RING_F2, RING_Z):
        pairs = []
        table = []
        for cd in enumerate_chord_diagrams(3):
            x = disk_contact_element(cd, ring).value
            y = disk_contact_element(rotate_diagram(cd, 2), ring).value
            pairs.append((x, y))
            table.append(x)
        reports.append(check_relabel_invariance(
            dm.surface, {v: (v + 4) % 12 for v in dm.surface.vertices},
            paired_elements=pairs, permuted_sets=(table,),
            gluings=(Gluing(dm.surface, (2, 4), (16, 14)),),
            basis=dm.basis_plus(ring), ring=ring,
            instance="disk rotation by one suture period"))
        table = []
        for name in ("L0", "L1", "K+", "K-", "K0"):
            model, ds = annulus_fixture(name)
            table.append(contact_element(
                ds, ring=ring, basis=model.basis_plus(ring)).value)
        reports.append(check_relabel_invariance(
            am.surface, {0: 4, 4: 0, 1: 7, 7: 1, 2: 6, 6: 2, 3: 5, 5: 3},
            permuted_sets=(table,), basis=am.basis_plus(ring), ring=ring,
            instance="annulus reflection swapping the circles"))
    return reports
