"""Disk specialization: region-rule contact elements, bypass rotations,
matchability against the product criterion, and the solid-torus pairing."""

import hashlib
import math
import random

import pytest
from hypothesis import given, strategies as st

from sutured_tqft import disks
from sutured_tqft.contact import DualStructure, contact_element
from sutured_tqft.disks import (
    TorusParameters,
    bypass_triple_at,
    disk_contact_element,
    matchable,
    matchable_via_wedge,
    matching_curve_count,
    rotate_diagram,
    rotation_map,
    solid_torus_tight,
)
from sutured_tqft.dividing import (
    ChordDiagram,
    annulus_fixture,
    chord_to_dividing_set,
    enumerate_chord_diagrams,
)
from sutured_tqft.errors import (
    InternalConsistencyError,
    InvalidChordDiagramError,
    ValidationError,
)
from sutured_tqft.exterior import (
    TERM_BUDGET,
    Multivector,
    RING_F2,
    RING_Z,
    indices_of,
    induced_map,
    pair,
)
from sutured_tqft.linalg import det_q, f2_rank
from sutured_tqft.models import disk_arc_chain, disk_model, disk_pairing


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


# -- the region rule -------------------------------------------------------

def test_contact_element_small_examples():
    assert disk_contact_element(ChordDiagram.parse("1-2")).value == Multivector.unit(0, RING_Z)
    c1 = disk_contact_element(ChordDiagram.parse("1-2,3-4"))
    assert c1.value == Multivector.unit(1, RING_Z) and c1.grade == 0
    c2 = disk_contact_element(ChordDiagram.parse("1-4,2-3"))
    assert c2.value == Multivector.basis_vector(1, 0, RING_Z) and c2.grade == 1


def test_contact_element_six_chord_example():
    # one positive region touching sutures 3, 5, 7, 11; two lone ones
    cd = ChordDiagram.parse("1-2,3-12,4-5,6-7,8-11,9-10")
    got = disk_contact_element(cd).value
    b3 = Multivector.basis_vector(5, 1, RING_Z)
    b5 = Multivector.basis_vector(5, 2, RING_Z)
    b79 = Multivector.vector(5, [0, 0, 0, 1, 1], RING_Z)
    assert got == b3.wedge(b5).wedge(b79)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_region_rule_matches_homology_pipeline(n):
    for cd in enumerate_chord_diagrams(n):
        ds = chord_to_dividing_set(cd)
        model = disk_model(n).rebind(ds.surface)
        fast2 = disk_contact_element(cd, RING_F2).value
        slow2 = contact_element(ds, ring=RING_F2,
                                basis=model.basis_plus(RING_F2)).value
        assert fast2 == slow2
        fastz = disk_contact_element(cd, RING_Z).value
        slowz = contact_element(ds, ring=RING_Z,
                                basis=model.basis_plus(RING_Z)).value
        assert fastz == slowz or fastz == slowz.scale(-1)


def region_sectors(cd):
    """Boundary sectors of the cut disk, grouped by region, in order of
    their smallest sector, each ascending: one stack walk, where sector s
    opens the chord starting at s or closes the one ending there, and
    then lies in the region of the top of the stack."""
    starts = {a for a, _ in cd.pairs}
    open_chords = [0]  # 0 stands for the outer region
    groups = {}
    for s in range(1, 2 * cd.n + 1):
        if s in starts:
            open_chords.append(s)
        else:
            open_chords.pop()
        groups.setdefault(open_chords[-1], []).append(s)
    return list(groups.values())


def reference_region_sectors(cd):
    """Group sectors by the set of chords around them: the oracle for the
    stack walk."""
    groups = {}
    for s in range(1, 2 * cd.n + 1):
        key = frozenset(k for k, (a, b) in enumerate(cd.pairs) if a <= s < b)
        groups.setdefault(key, []).append(s)
    return list(groups.values())


def reference_factor_masks(cd):
    """The factor masks in two passes, the oracle for the one-walk
    ``disks._factor_masks``: the consecutive-suture intervals of the
    positive regions in wedge order, then, walking them from last to
    first, each keeps the betas that no later one has taken."""
    masks = []
    for region in region_sectors(cd):
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


def test_region_sectors_match_reference():
    for n in range(1, 9):
        for cd in enumerate_chord_diagrams(n):
            assert region_sectors(cd) == reference_region_sectors(cd)
    rng = random.Random(4040)
    for _ in range(200):
        cd = _random_diagram(rng, rng.randint(9, 40))
        assert region_sectors(cd) == reference_region_sectors(cd)


def test_factor_masks_match_two_pass_reference():
    diagrams = [cd for n in range(1, 10) for cd in enumerate_chord_diagrams(n)]
    assert len(diagrams) == 6917
    rng = random.Random(3303)
    diagrams += [_random_diagram(rng, rng.randint(1, 60)) for _ in range(3000)]
    for cd in diagrams:
        assert disks._factor_masks(cd) == reference_factor_masks(cd), cd.render()


def test_region_rule_failures_are_internal_errors(monkeypatch):
    # No diagram reaches either refusal, crossing or not: they guard the
    # walk itself.  So feed the walk over 1-4,2-3 sector orders that no
    # disk has.
    cd = ChordDiagram.parse("1-4,2-3")
    # skipping sector 3 puts sectors 1 and 4 in one region
    monkeypatch.setattr(disks, "range", lambda *_: [1, 2, 4], raising=False)
    with pytest.raises(InternalConsistencyError,
                       match="region touches boundary arcs of both signs"):
        disk_contact_element(cd)
    # walking sectors 2 and 3 twice closes the empty interval (3, 3)
    monkeypatch.setattr(disks, "range", lambda *_: [1, 2, 3, 2, 3, 4], raising=False)
    with pytest.raises(InternalConsistencyError, match="zero or inhomogeneous"):
        disk_contact_element(cd)


def test_disk_element_over_the_term_budget_refuses():
    # one positive region whose three consecutive-suture paths each pass
    # over 128 betas: 128**3 = 2**21 terms, past the budget of 2**20
    pairs = [(1, 770)]
    for lo in (2, 258, 514):
        pairs.append((lo, lo + 255))
        pairs += [(p, p + 1) for p in range(lo + 1, lo + 254, 2)]
    cd = ChordDiagram(385, tuple(sorted(pairs)))
    assert math.prod(m.bit_count() for m in disks._factor_masks(cd)) == 2 * TERM_BUDGET
    for ring in (RING_Z, RING_F2):
        with pytest.raises(ValidationError, match="exceeds the budget"):
            disk_contact_element(cd, ring)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_contact_table_is_injective(n):
    table = [disk_contact_element(cd, RING_F2) for cd in enumerate_chord_diagrams(n)]
    assert len(table) == catalan(n)
    keys = {frozenset(ce.value.terms.items()) for ce in table}
    assert len(keys) == catalan(n)
    for ce in table:
        assert not ce.value.is_zero()
        assert len({m.bit_count() for m in ce.value.terms}) <= 1
        assert ce.value.degree() == ce.grade


# -- bypass triples --------------------------------------------------------

def test_bypass_triple_of_the_three_suture_disk():
    cd = ChordDiagram.parse("1-2,3-6,4-5")
    triple = bypass_triple_at(cd, (2, 3, 4))
    assert frozenset(triple.diagrams) == {
        ChordDiagram.parse("1-2,3-6,4-5"),
        ChordDiagram.parse("1-6,2-5,3-4"),
        ChordDiagram.parse("1-4,2-3,5-6"),
    }


def test_bypass_site_validation():
    cd = ChordDiagram.parse("1-4,2-3,5-6")
    with pytest.raises(InvalidChordDiagramError, match="consecutive"):
        bypass_triple_at(cd, (1, 2, 4))
    with pytest.raises(InvalidChordDiagramError, match="strands"):
        bypass_triple_at(cd, (4, 5, 6))  # chord 5-6 lies inside the site
    with pytest.raises(InvalidChordDiagramError, match="site"):
        bypass_triple_at(cd, (0, 1, 2))


def _zero_f2(values):
    acc = {}
    for v in values:
        for m, c in v.terms.items():
            acc[m] = acc.get(m, 0) ^ (c & 1)
    return not any(acc.values())


def _zero_some_signs(values):
    az, bz, cz = values
    for ea in (1, -1):
        for eb in (1, -1):
            acc = {}
            for v, e in ((az, ea), (bz, eb), (cz, 1)):
                for m, c in v.terms.items():
                    acc[m] = acc.get(m, 0) + e * c
            if not any(acc.values()):
                return True
    return False


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bypass_relation_everywhere(n):
    checked = 0
    for cd in enumerate_chord_diagrams(n):
        for p in range(1, 2 * n + 1):
            site = (p, p % (2 * n) + 1, ((p + 1) % (2 * n)) + 1)
            try:
                triple = bypass_triple_at(cd, site)
            except InvalidChordDiagramError:
                continue
            assert len(set(triple.diagrams)) == 3 and cd in triple.diagrams
            f2 = [disk_contact_element(d, RING_F2).value for d in triple.diagrams]
            assert _zero_f2(f2)
            zs = [disk_contact_element(d, RING_Z).value for d in triple.diagrams]
            assert _zero_some_signs(zs)
            checked += 1
    if n == 2:
        # three consecutive sutures out of four always swallow a chord
        assert checked == 0
    else:
        assert checked >= 2 * n


# -- matchability ----------------------------------------------------------

def test_matchable_examples():
    one = ChordDiagram.parse("1-2")
    assert matchable(one, one)
    nested = ChordDiagram.parse("1-4,2-3")
    assert matching_curve_count(nested, nested) == 2
    assert not matchable(nested, nested)
    assert matchable(ChordDiagram.parse("1-2,3-4"), nested)
    with pytest.raises(ValidationError):
        matchable(one, nested)


def stack_walk_curve_count(cd1, cd2):
    """Curves of two matchings by a stack walk over the sutures: the
    oracle for the union-find count."""
    m1, m2 = cd1.involution(), cd2.involution()
    left = set(m1)
    count = 0
    while left:
        count += 1
        stack = [min(left)]
        while stack:
            x = stack.pop()
            if x not in left:
                continue
            left.discard(x)
            stack.extend((m1[x], m2[x]))
    return count


def test_curve_count_matches_stack_walk():
    pairs = 0
    for n in range(1, 7):
        table = enumerate_chord_diagrams(n)
        for a in table:
            for b in table:
                assert matching_curve_count(a, b) == stack_walk_curve_count(a, b)
                pairs += 1
    assert pairs == 19414


def test_matchable_wedge_degenerate():
    # c ^ c dies for any diagram with at least one basis factor
    cd = ChordDiagram.parse("1-4,2-3")
    assert not matchable_via_wedge(cd, cd)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_matchable_agrees_with_wedge_criterion(n):
    diagrams = enumerate_chord_diagrams(n)
    f2 = {cd: disk_contact_element(cd, RING_F2).value for cd in diagrams}
    top = Multivector.top(n - 1, RING_F2)
    true_count = 0
    for a in diagrams:
        for b in diagrams:
            by_curves = matchable(a, b)
            assert by_curves == (f2[a].wedge(f2[b]) == top)
            if n <= 4:
                assert by_curves == matchable_via_wedge(a, b, RING_Z)
                assert by_curves == matchable(b, a)
            true_count += by_curves
    assert 0 < true_count < len(diagrams) ** 2 or n == 1


_D4 = enumerate_chord_diagrams(4)


@given(st.integers(0, len(_D4) - 1), st.integers(0, len(_D4) - 1),
       st.integers(-8, 8))
def test_matchability_is_rotation_invariant(i, j, s):
    a, b = _D4[i], _D4[j]
    assert matchable(rotate_diagram(a, s), rotate_diagram(b, s)) == matchable(a, b)


# -- rotation maps ---------------------------------------------------------

def test_rotation_map_small_cases():
    assert rotation_map(2, 1) == [[1]]
    assert rotation_map(2, 3) == [[-1]]
    assert rotation_map(3, 1) == [[1, 0], [0, 1]]
    assert rotation_map(3, 3) == [[0, -1], [1, -1]]
    with pytest.raises(ValidationError):
        rotation_map(3, 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_wraparound_relations_on_the_complex(n):
    m = disk_model(n)
    s = m.surface
    assert m.basis_plus(RING_Z).express(disk_arc_chain(s, n, 2 * n - 1)) == [-1] * (n - 1)
    assert m.basis_minus(RING_Z).express(disk_arc_chain(s, n, 2 * n)) == [-1] * (n - 1)


@pytest.mark.parametrize("n,j", [(3, 1), (3, 3), (3, 5), (4, 1), (4, 5), (4, 7)])
def test_rotation_map_columns_are_the_shifted_arcs(n, j):
    m = disk_model(n)
    bm = m.basis_minus(RING_Z)
    mat = rotation_map(n, j)
    for s_idx in range(n - 1):
        arc = disk_arc_chain(m.surface, n, 2 * s_idx + 1 + j)
        assert bm.express(arc) == [mat[r][s_idx] for r in range(n - 1)]


def test_rotation_map_period():
    for n, j in ((2, 1), (3, 1), (4, 3)):
        assert rotation_map(n, j) == rotation_map(n, j + 2 * n)


# -- solid tori ------------------------------------------------------------

def test_solid_torus_parameter_validation():
    with pytest.raises(ValidationError):
        TorusParameters(1, 2, 4)
    with pytest.raises(ValidationError):
        TorusParameters(0, 1, 1)
    with pytest.raises(ValidationError):
        TorusParameters(1, 1, 0)
    with pytest.raises(ValidationError):
        solid_torus_tight(ChordDiagram.parse("1-2"), TorusParameters(1, 0, 2))


def test_solid_torus_smallest_case():
    assert solid_torus_tight(ChordDiagram.parse("1-2"), TorusParameters(1, 0, 1))
    # pairing across different degrees vanishes
    assert pair(Multivector.basis_vector(2, 0, RING_F2, dual=True),
                Multivector.unit(2, RING_F2)) == 0


def test_solid_torus_matches_rounding_oracle():
    tight_seen = overtwisted_seen = 0
    for n in (1, 2):
        for q in (1, 2, 3):
            big = n * q
            if big > 6:
                continue
            diagrams = enumerate_chord_diagrams(big)
            for p in range(-3, 4):
                if math.gcd(p, q) != 1:
                    continue
                params = TorusParameters(n, p, q)
                for cd in diagrams:
                    verdict = solid_torus_tight(cd, params)
                    oracle = matchable(cd, rotate_diagram(cd, params.steps))
                    assert verdict == oracle, (cd.render(), n, p, q)
                    tight_seen += verdict
                    overtwisted_seen += not verdict
    assert tight_seen and overtwisted_seen


# -- the annulus twist family ----------------------------------------------

def _annulus_element(name):
    model, ds = annulus_fixture(name)
    return contact_element(ds, ring=RING_Z, basis=model.basis_plus(RING_Z)).value


def test_dehn_twist_family_is_the_orbit_of_the_twist():
    # a positive twist about the core: b1 -> b1 + b2, b2 -> b2; L1 is L0
    # with one twist
    twist = [[1, 0], [1, 1]]
    got = induced_map(twist, _annulus_element("L0"))
    want = _annulus_element("L1")
    assert got == want or got == want.scale(-1)


@pytest.mark.parametrize("name,n", [("L0", 0), ("L1", 1)])
def test_dehn_twist_family_meets_the_pipeline(name, n):
    # c(L_n) = b1 + n b2: the boundary-parallel arcs dragged n times
    # around the core
    got = _annulus_element(name)
    want = Multivector.vector(2, [1, n], RING_Z)
    assert got == want or got == want.scale(-1)


# -- locked outputs --------------------------------------------------------

def _random_diagram(rng, n):
    """A uniform noncrossing matching on 2n sutures, via a random Dyck word
    (cycle lemma: the rotation after the first prefix minimum)."""
    steps = [1] * n + [-1] * (n + 1)
    rng.shuffle(steps)
    total = low = cut = 0
    for i, step in enumerate(steps):
        total += step
        if total < low:
            low, cut = total, i + 1
    opened, pairs = [], []
    for pos, step in enumerate((steps[cut:] + steps[:cut])[:-1], start=1):
        if step > 0:
            opened.append(pos)
        else:
            pairs.append((opened.pop(), pos))
    return ChordDiagram(n, tuple(sorted(pairs)))


def _sign_normal_terms(x):
    terms = sorted(x.terms.items())
    flip = -1 if terms and terms[0][1] < 0 else 1
    return [(m, flip * c) for m, c in terms]


def test_disk_outputs_are_locked():
    """One digest over the disk formulas, recorded before the exterior
    kernel was rewritten: region-rule contact elements over both rings,
    the wedge matchability criterion and the solid-torus verdict."""
    rng = random.Random(20261018)
    diagrams = [cd for n in range(1, 8) for cd in enumerate_chord_diagrams(n)]
    diagrams += [_random_diagram(rng, rng.randint(8, 24)) for _ in range(40)]
    record = []
    for cd in diagrams:
        record.append((cd.render(),
                       _sign_normal_terms(disk_contact_element(cd, RING_Z).value),
                       sorted(disk_contact_element(cd, RING_F2).value.terms)))
    for i in range(40):
        n = rng.randint(4, 14)
        a = _random_diagram(rng, n)
        b = rotate_diagram(a, rng.randrange(1, 2 * n)) if i % 2 else _random_diagram(rng, n)
        record.append((a.render(), b.render(),
                       matchable_via_wedge(a, b, RING_Z), matchable_via_wedge(a, b, RING_F2)))
    for _ in range(40):
        q = rng.randint(1, 4)
        n = rng.randint(1, 12 // q)
        p = rng.choice([p for p in range(-3, 4) if math.gcd(p, q) == 1])
        cd = _random_diagram(rng, n * q)
        record.append((cd.render(), n, p, q, solid_torus_tight(cd, TorusParameters(n, p, q))))
    digest = hashlib.sha256(repr(record).encode()).hexdigest()
    assert digest == "0507a58b09d8fcc44242f840864d0e99a0a09eaf615c507dd853950ab1e71a9d"


# -- the factored forms against the expansions they replaced ---------------

def wedged_paths(cd, ring):
    """c(K) and its grade by wedging the consecutive-suture paths of the
    positive regions one at a time: the region rule expanded as read."""
    rank = cd.n - 1
    out, grade = Multivector.unit(rank, ring), 0
    for region in region_sectors(cd):
        if region[0] % 2:
            for u, w in zip(region, region[1:]):
                path = Multivector(rank, {1 << ((j - 1) // 2): 1 for j in range(u, w, 2)}, ring)
                out, grade = out.wedge(path), grade + 1
    return out, grade


def expanded_matchable(c1, c2):
    """The product criterion on expanded elements: c1 ^ c2 is the top
    generator, or its negative over Z."""
    w = c1.wedge(c2)
    top = Multivector.top(c1.rank, c1.ring)
    return w == top or (c1.ring == RING_Z and w == top.scale(-1))


def expanded_torus_pairing(cd, params, dual):
    """<R c | c> through the induced map on the expanded F2 element and
    the model pairing."""
    c = wedged_paths(cd, RING_F2)[0]
    y = induced_map(rotation_map(cd.n, params.steps),
                    Multivector(c.rank, dict(c.terms), RING_F2, dual=True))
    return dual.pair(y, c)


def test_factored_element_matches_wedged_paths():
    rng = random.Random(1107)
    diagrams = [cd for n in range(1, 8) for cd in enumerate_chord_diagrams(n)]
    diagrams += [_random_diagram(rng, rng.randint(8, 24)) for _ in range(100)]
    for cd in diagrams:
        masks = disks._factor_masks(cd)
        union = 0
        for m in masks:
            assert m and not m & union  # nonempty and pairwise disjoint
            union |= m
        for ring in (RING_Z, RING_F2):
            got = disk_contact_element(cd, ring)
            want, grade = wedged_paths(cd, ring)
            # same terms in the same order, so rendered output is unchanged
            assert list(got.value.terms.items()) == list(want.terms.items()), cd.render()
            assert got.grade == grade == len(masks)
            assert math.prod(m.bit_count() for m in masks) == len(got.value.terms)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_matchable_matches_expanded_criterion(n):
    diagrams = enumerate_chord_diagrams(n)
    masks = {cd: disks._factor_masks(cd) for cd in diagrams}
    for ring in (RING_Z, RING_F2):
        element = {cd: wedged_paths(cd, ring)[0] for cd in diagrams}
        for a in diagrams:
            for b in diagrams:
                assert matchable_via_wedge(a, b, ring) == expanded_matchable(element[a], element[b])
    # disjoint factors make [m1 | m2] a bipartite incidence matrix, which
    # is totally unimodular
    for a in diagrams:
        for b in diagrams:
            cols = masks[a] + masks[b]
            if len(cols) == n - 1:
                assert abs(det_q([[m >> r & 1 for m in cols] for r in range(n - 1)])) <= 1


def integer_determinant_matchable(masks1, masks2, rank):
    """The product criterion over Z as written: |det[m1 | m2]| = 1, by
    Bareiss elimination; the oracle for deciding it by F2 rank."""
    cols = masks1 + masks2
    if len(cols) != rank:
        return False
    return abs(det_q([[m >> r & 1 for m in cols] for r in range(rank)])) == 1


def test_matchable_matches_integer_determinant():
    pairs = [(a, b) for n in range(1, 7)
             for a in enumerate_chord_diagrams(n) for b in enumerate_chord_diagrams(n)]
    rng = random.Random(2212)
    for i in range(400):
        n = rng.randint(7, 40)
        a = _random_diagram(rng, n)
        pairs.append((a, rotate_diagram(a, rng.randrange(1, 2 * n)) if i % 2
                      else _random_diagram(rng, n)))
    masks = {cd: disks._factor_masks(cd) for pair in pairs for cd in pair}
    matched = 0
    for a, b in pairs:
        want = integer_determinant_matchable(masks[a], masks[b], a.n - 1)
        assert matchable_via_wedge(a, b, RING_Z) == want, (a.render(), b.render())
        assert matchable_via_wedge(a, b, RING_F2) == want, (a.render(), b.render())
        matched += want
    assert 0 < matched < len(pairs)


def test_matchable_matches_expanded_criterion_on_larger_disks():
    rng = random.Random(2211)
    for i in range(400):
        n = rng.randint(7, 22)
        a = _random_diagram(rng, n)
        b = rotate_diagram(a, rng.randrange(1, 2 * n)) if i % 2 else _random_diagram(rng, n)
        for ring in (RING_Z, RING_F2):
            want = expanded_matchable(wedged_paths(a, ring)[0], wedged_paths(b, ring)[0])
            assert matchable_via_wedge(a, b, ring) == want, (a.render(), b.render(), ring)


def _f2_image(cols, mask):
    """The F2 image of a vector under a matrix given by its column masks."""
    out = 0
    for i in indices_of(mask):
        out ^= cols[i]
    return out


def gram_torus_pairing(cd, params):
    """<R c(K) | c(K)> mod 2 as the Gram determinant of the factors: with
    c(K) the wedge of the factors v_i, Cauchy-Binet makes the pairing
    det G mod 2, where G_ij = (P^T R v_i) . v_j for the dense rotation R
    and the model pairing P."""
    big = cd.n
    if big == 1:
        return True  # rank-0 algebra: <1 | 1> = 1
    masks = disks._factor_masks(cd)
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
        x = _f2_image(pt_cols, _f2_image(rot_cols, v))
        gram.append(sum(((x & w).bit_count() & 1) << j for j, w in enumerate(masks)))
    return f2_rank(gram) == len(masks)


def test_solid_torus_matches_gram_determinant():
    checked = tight = 0
    for q in range(1, 8):
        for n in range(1, 7 // q + 1):
            diagrams = enumerate_chord_diagrams(n * q)
            for p in range(-7, 8):
                if math.gcd(p, q) != 1:
                    continue
                params = TorusParameters(n, p, q)
                for cd in diagrams:
                    verdict = solid_torus_tight(cd, params)
                    assert verdict == gram_torus_pairing(cd, params), (cd.render(), n, p, q)
                    checked += 1
                    tight += verdict
    rng = random.Random(3110)
    for _ in range(3000):
        q = rng.randint(1, 6)
        n = rng.randint(1, 60 // q)
        p = rng.choice([p for p in range(-7, 8) if math.gcd(p, q) == 1])
        params = TorusParameters(n, p, q)
        cd = _random_diagram(rng, n * q)
        verdict = solid_torus_tight(cd, params)
        assert verdict == gram_torus_pairing(cd, params), (cd.render(), n, p, q)
        checked += 1
        tight += verdict
    assert checked == 21485 and 0 < tight < checked


def test_solid_torus_matches_expanded_pairing():
    duals = {}
    checked = 0
    for q in range(1, 8):
        for n in range(1, 7 // q + 1):
            big = n * q
            if big > 1 and big not in duals:
                duals[big] = DualStructure(disk_model(big), RING_F2)
            for p in range(-4, 5):
                if math.gcd(p, q) != 1:
                    continue
                params = TorusParameters(n, p, q)
                for cd in enumerate_chord_diagrams(big):
                    want = big == 1 or expanded_torus_pairing(cd, params, duals[big]) == 1
                    assert solid_torus_tight(cd, params) == want, (cd.render(), n, p, q)
                    checked += 1
    assert checked == 11127
