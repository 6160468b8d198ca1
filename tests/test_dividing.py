"""Dividing sets: validation, regions, chord diagrams, annulus fixtures."""
import itertools
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sutured_tqft.dividing as dividing_module
from sutured_tqft.dividing import (ANNULUS_FIXTURE_NAMES, ChordDiagram,
                                   DividingSet, add_trivial_circle,
                                   annulus_fixture, boundary_arc_signs,
                                   catalan, chord_diagram_at, chord_diagrams,
                                   chord_to_dividing_set,
                                   dividing_set_violations,
                                   enumerate_chord_diagrams, infer_face_signs,
                                   orient_by_signs, regions)
from sutured_tqft.contact import _region, region_homology
from sutured_tqft.errors import (InvalidChordDiagramError,
                                 InvalidDividingSetError)
from sutured_tqft.exterior import RING_F2, RING_Z
import sutured_tqft.axioms as axioms_module
from sutured_tqft.axioms import (_face_key, random_glued_dividing_sets,
                                 run_axiom_suite)
from sutured_tqft.gluing import glue, push_dividing_set
from sutured_tqft.models import annulus_model
from sutured_tqft.surface import (UnionFind, add_detached_circle,
                                  disjoint_union, disk_position, split_face,
                                  standard_disk, subdivide_edge, subsurface,
                                  transport_chain, validate_surface)
from test_models import check_model


# -- chord diagrams -------------------------------------------------------

def test_enumeration_counts():
    for n in range(1, 7):
        assert len(enumerate_chord_diagrams(n)) == catalan(n)


def test_enumeration_is_sorted_and_unique():
    # every walked diagram passes the constructor's check, so distinct and
    # Catalan many means all of them; the order is pair order with no sort applied
    for n in range(1, 10):
        diagrams = enumerate_chord_diagrams(n)
        assert [ChordDiagram(n, cd.pairs) for cd in diagrams] == diagrams
        forms = [cd.pairs for cd in diagrams]
        assert forms == sorted(forms)
        assert len(set(forms)) == len(forms) == catalan(n)


def test_text_order_walk_is_the_sorted_renders():
    # renders of one n have equal length, so branching on the partner's
    # text gives the order of sorting the rendered lines
    for n in range(1, 10):
        renders = [cd.render() for cd in chord_diagrams(n, key=str)]
        assert renders == sorted(cd.render() for cd in enumerate_chord_diagrams(n))
    assert [cd.render() for cd in chord_diagrams(5, key=str)][:2] == [
        "1-10,2-3,4-5,6-7,8-9", "1-10,2-3,4-5,6-9,7-8"]


def test_unranking_matches_enumeration():
    # the k-th diagram of the enumeration, built from Catalan counts alone
    for n in range(10):
        diagrams = enumerate_chord_diagrams(n)
        assert [chord_diagram_at(n, k) for k in range(len(diagrams))] == diagrams
        for k in (-1, len(diagrams)):
            with pytest.raises(InvalidChordDiagramError, match="outside"):
                chord_diagram_at(n, k)


def test_parse_render_roundtrip():
    cd = ChordDiagram.parse("3-12,1-2,4-5,6-7,8-11,9-10")
    assert cd.render() == "1-2,3-12,4-5,6-7,8-11,9-10"
    assert cd.n == 6
    assert cd.involution()[12] == 3


def test_crossing_rejected():
    with pytest.raises(InvalidChordDiagramError):
        ChordDiagram.parse("1-3,2-4")


def _pair_loop_crossing(pairs):
    """The message of the first crossing in pair order, by checking every
    pair of chords: the oracle for the stack pass, None if noncrossing."""
    ps = list(pairs)
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            a, b = ps[i]
            c, d = ps[j]
            if a < c < b < d:
                return f"chords {a}-{b} and {c}-{d} cross"
    return None


def _stack_pass_crossing(n, pairs):
    try:
        ChordDiagram(n, pairs)
    except InvalidChordDiagramError as exc:
        return str(exc)
    return None


def _parity_matchings(n, odd_to_even):
    return tuple(sorted(tuple(sorted(p))
                        for p in zip(range(1, 2 * n + 1, 2), odd_to_even)))


def test_crossing_check_matches_pair_loop_on_all_diagrams():
    for n in range(1, 9):
        for cd in enumerate_chord_diagrams(n):
            assert _pair_loop_crossing(cd.pairs) is None
            assert _stack_pass_crossing(n, cd.pairs) is None


def test_crossing_check_matches_pair_loop_on_all_matchings():
    # every parity-respecting matching up to six chords, crossing or not
    for n in range(1, 7):
        for evens in itertools.permutations(range(2, 2 * n + 1, 2)):
            pairs = _parity_matchings(n, evens)
            assert _stack_pass_crossing(n, pairs) == _pair_loop_crossing(pairs)


def test_crossing_check_matches_pair_loop_on_seeded_crossings():
    rng = random.Random(20261018)
    crossing = 0
    for _ in range(400):
        n = rng.randint(7, 40)
        evens = list(range(2, 2 * n + 1, 2))
        rng.shuffle(evens)
        pairs = _parity_matchings(n, evens)
        want = _pair_loop_crossing(pairs)
        assert _stack_pass_crossing(n, pairs) == want
        crossing += want is not None
    assert crossing > 350


def test_parity_rejected():
    # 1-5 would join two positive-region endpoints
    with pytest.raises(InvalidChordDiagramError):
        ChordDiagram(3, ((1, 5), (2, 3), (4, 6)))


def test_incomplete_rejected():
    with pytest.raises(InvalidChordDiagramError):
        ChordDiagram(2, ((1, 2), (3, 4), (5, 6)))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_any_diagram_realizes(n, data):
    cds = enumerate_chord_diagrams(n)
    cd = data.draw(st.sampled_from(cds))
    ds = chord_to_dividing_set(cd)
    validate_surface(ds.surface)
    assert dividing_set_violations(ds.surface, ds.k_halfedges, ds.face_signs) == []
    assert region_census(ds).is_non_isolating()


def reference_chord_to_dividing_set(cd):
    """The face scan `chord_to_dividing_set` replaced: each chord splits
    the first face whose walk passes both ends, at each end's first
    corner in that walk.  Returns the surface and the oracle's K and
    coloring."""
    s = standard_disk(cd.n)
    chords = []
    for a, b in cd.pairs:
        va, vb = disk_position("F", a), disk_position("F", b)
        for fi, walk in enumerate(s.faces):
            tails = [s.tail(h) for h in walk]
            if va in tails and vb in tails:
                spot = (fi, tails.index(va), tails.index(vb))
                break
        ref, chord, _, _ = split_face(s, *spot)
        s = ref.surface
        chords.append(chord)
    return s, oracle_dividing_set(s, chords)


def test_chord_realization_matches_face_scan():
    # the realized surface, and K and its coloring against the oracle's
    count = 0
    for n in range(1, 8):
        for cd in enumerate_chord_diagrams(n):
            ds = chord_to_dividing_set(cd)
            s, want = reference_chord_to_dividing_set(cd)
            assert ds.surface.to_json_dict() == s.to_json_dict(), cd.render()
            assert (ds.k_halfedges, ds.face_signs) == want, cd.render()
            count += 1
    assert count == sum(catalan(n) for n in range(1, 8)) == 625


def test_extreme_grades():
    # one outer chord over a sequential row connects all of R+: L = n - 1;
    # the sequential diagram scatters R+ into n disks: L = 0
    n = 4
    wide = ChordDiagram(n, ((1, 2 * n),) + tuple((2 * i, 2 * i + 1) for i in range(1, n)))
    seq = ChordDiagram(n, tuple((2 * i + 1, 2 * i + 2) for i in range(n)))
    assert _region(chord_to_dividing_set(wide), "plus")[1] == n - 1
    assert _region(chord_to_dividing_set(seq), "plus")[1] == 0
    # nested chords split R+ into disk-shaped bands: every other one
    nested = ChordDiagram(n, tuple((i, 2 * n + 1 - i) for i in range(1, n + 1)))
    assert _region(chord_to_dividing_set(nested), "plus")[1] == n // 2


# -- validation rules -----------------------------------------------------

def test_violations_empty_k():
    s = standard_disk(1)
    sign = boundary_arc_signs(s)
    out = dividing_set_violations(s, [], {0: 1})
    assert any("boundary of K" in v for v in out)
    assert sign  # every boundary halfedge got a sign


def test_face_sign_mismatch_detected():
    cd = ChordDiagram.parse("1-2")
    ds = chord_to_dividing_set(cd)
    flipped = {f: -v for f, v in ds.face_signs.items()}
    out = dividing_set_violations(ds.surface, ds.k_halfedges, flipped)
    assert out  # wrong coloring cannot be silently accepted


def test_wrong_orientation_detected():
    cd = ChordDiagram.parse("1-2")
    ds = chord_to_dividing_set(cd)
    bad = tuple(ds.surface.twin[h] for h in ds.k_halfedges)
    out = dividing_set_violations(ds.surface, bad, ds.face_signs)
    assert any("positive face" in v for v in out)


def test_constructor_raises():
    cd = ChordDiagram.parse("1-2")
    ds = chord_to_dividing_set(cd)
    with pytest.raises(InvalidDividingSetError):
        DividingSet(ds.surface, ())


def test_infer_signs_matches_stored():
    # the stored coloring against the rules, checked with no inference:
    # it keeps every rule, and flipping any one face's sign breaks one
    for name in ANNULUS_FIXTURE_NAMES:
        _, ds = annulus_fixture(name)
        s, k, signs = ds.surface, ds.k_halfedges, ds.face_signs
        assert dividing_set_violations(s, k, signs) == []
        for f, sign in signs.items():
            assert dividing_set_violations(s, k, {**signs, f: -sign}) != []


def test_json_roundtrip():
    _, ds = annulus_fixture("K0")
    d = ds.to_json_dict()
    ds2 = DividingSet.from_json_dict(d)
    assert ds2.to_json_dict() == d


# -- the coloring derived from K, against the constructions it replaced --

def checked(s, k, signs):
    """A stated K and coloring, after the full check of every rule."""
    assert dividing_set_violations(s, k, signs) == []
    return k, signs


def oracle_dividing_set(s, k_edges):
    """K and its coloring as callers built them before the constructor
    derived them: inference, orientation, then the full check."""
    signs = infer_face_signs(s, k_edges)
    return checked(s, orient_by_signs(s, k_edges, signs), signs)


def oracle_trivial_circle(ds, face_id):
    """The hand-made coloring of `add_trivial_circle`: the inner 2-gon
    takes the sign opposite to its face, and the circle is turned to keep
    the positive side on its left."""
    ref, (a, b) = add_detached_circle(ds.surface, face_id, 0)
    s = ref.surface
    inner = len(s.faces) - 1
    signs = dict(ds.face_signs)
    signs[inner] = -signs[face_id]
    k_new = (s.twin[a], s.twin[b]) if signs[face_id] > 0 else (a, b)
    return checked(s, ds.k_halfedges + k_new, signs)


def oracle_disjoint_union(k1, k2):
    """The hand-made coloring of a disjoint union: the second factor's
    face ids shift past the first factor's faces."""
    union, _, hmap = disjoint_union(k1.surface, k2.surface)
    offset = len(k1.surface.faces)
    signs = dict(k1.face_signs)
    signs.update({f + offset: sign for f, sign in k2.face_signs.items()})
    return checked(union, k1.k_halfedges + tuple(hmap[h] for h in k2.k_halfedges), signs)


def oracle_marked_push(ds, hmap):
    """The hand-made coloring of a relabeled set: each face's sign moves
    to the face its walk is sent to."""
    s = ds.surface
    where = {_face_key(w): i for i, w in enumerate(s.faces)}
    fmap = {i: where[_face_key([hmap[h] for h in w])] for i, w in enumerate(s.faces)}
    return checked(s, tuple(hmap[h] for h in ds.k_halfedges),
                   {fmap[f]: sign for f, sign in ds.face_signs.items()})


def record_dividing_sets(monkeypatch):
    """Every constructed dividing set, with the surface and K it was given."""
    built = []
    init = DividingSet.__init__

    def recorded(self, surface, k_edges):
        k_edges = list(k_edges)
        init(self, surface, k_edges)
        built.append((self, surface, k_edges))

    monkeypatch.setattr(DividingSet, "__init__", recorded)
    return built


def test_trivial_circle_coloring_matches_the_hand_made_one():
    count = 0
    for n in range(1, 5):
        for cd in enumerate_chord_diagrams(n):
            ds = chord_to_dividing_set(cd)
            for f in range(len(ds.surface.faces)):
                got, _ = add_trivial_circle(ds, f)
                assert (got.k_halfedges, got.face_signs) == oracle_trivial_circle(ds, f)
                count += 1
    assert count == 2 * 1 + 3 * 2 + 4 * 5 + 5 * 14


def test_suite_colorings_match_the_hand_made_ones(monkeypatch):
    # every set the default-seed suite builds against the oracle, and its
    # disjoint unions, relabel pushes and trivial circles against the
    # colorings their sites made by hand
    built = record_dividing_sets(monkeypatch)
    unions, pushes, circles = [], [], []
    union_check = axioms_module.check_disjoint_union
    relabel_check = axioms_module.check_relabel_invariance
    circle = axioms_module.add_trivial_circle

    def union_recorded(k1, k2, instance="pair"):
        start = len(built)
        report = union_check(k1, k2, instance)
        (ku, _, _), = built[start:]
        unions.append((ku, oracle_disjoint_union(k1, k2)))
        return report

    def relabel_recorded(s, relabeling, dividing_sets=(), **kwargs):
        start = len(built)
        report = relabel_check(s, relabeling, dividing_sets=dividing_sets, **kwargs)
        hmap = axioms_module._halfedge_map_from_vertex_map(s, dict(relabeling))
        assert len(built) - start == len(dividing_sets)
        pushes.extend((pushed, oracle_marked_push(ds, hmap))
                      for (pushed, _, _), ds in zip(built[start:], dividing_sets))
        return report

    def circle_recorded(ds, face_id):
        out = circle(ds, face_id)
        circles.append((out[0], oracle_trivial_circle(ds, face_id)))
        return out

    monkeypatch.setattr(axioms_module, "check_disjoint_union", union_recorded)
    monkeypatch.setattr(axioms_module, "check_relabel_invariance", relabel_recorded)
    monkeypatch.setattr(axioms_module, "add_trivial_circle", circle_recorded)
    assert all(r.verdict for r in run_axiom_suite())
    assert (len(unions), len(pushes), len(circles)) == (9, 1, 6)
    for ds, want in unions + pushes + circles:
        assert (ds.k_halfedges, ds.face_signs) == want
    for ds, s, k_edges in built:
        assert (ds.k_halfedges, ds.face_signs) == oracle_dividing_set(s, k_edges)


# -- regions --------------------------------------------------------------

@dataclass(frozen=True)
class RegionCensus:
    """R+ and R- as unions of the connected pieces of the complement of
    K, with their grades; I+ and I- count the isolated pieces of R+ and
    R-, those with no face on the surface boundary."""
    faces_plus: frozenset
    faces_minus: frozenset
    i_plus: int
    i_minus: int
    l_k: int
    l_minus_k: int

    def is_non_isolating(self):
        return self.i_plus == 0 and self.i_minus == 0


def region_census(ds):
    """The oracle for `regions` and the grades of `_region`: the pieces by
    union-find over the plain interior edges, R+ and R- as the unions of
    their pieces, and each grade from the Euler characteristic of the
    region's subsurface."""
    s = ds.surface
    kset = {s.canonical(h) for h in ds.k_halfedges}
    pieces = UnionFind(range(len(s.faces)))
    for e in s.edges():
        if e not in kset and s.is_interior_edge(e):
            pieces.union(s.face_of(e), s.face_of(s.twin[e]))
    groups = {}
    for f in range(len(s.faces)):
        groups.setdefault(pieces.find(f), set()).add(f)
    touches = {s.face_of(h) for h in s.boundary_halfedges()}
    comps = []
    for faces in groups.values():
        (sign,) = {ds.face_signs[f] for f in faces}  # a piece has one sign
        comps.append((sign, faces, not faces & touches))
    fplus = frozenset(f for sign, faces, _ in comps if sign > 0 for f in faces)
    fminus = frozenset(f for sign, faces, _ in comps if sign < 0 for f in faces)
    return RegionCensus(
        faces_plus=fplus,
        faces_minus=fminus,
        i_plus=sum(1 for sign, _, iso in comps if iso and sign > 0),
        i_minus=sum(1 for sign, _, iso in comps if iso and sign < 0),
        l_k=s.n_of_f() - subsurface(s, sorted(fplus)).euler_characteristic(),
        l_minus_k=s.n_of_f() - subsurface(s, sorted(fminus)).euler_characteristic())


def test_region_euler_grading():
    # R+ of the sequential diagram is n disks hanging off the boundary
    n = 3
    seq = ChordDiagram(n, tuple((2 * i + 1, 2 * i + 2) for i in range(n)))
    ds = chord_to_dividing_set(seq)
    assert (_region(ds, "plus")[1], _region(ds, "minus")[1]) == (0, n - 1)
    assert subsurface(ds.surface, sorted(regions(ds).faces_plus)).euler_characteristic() == n


def test_region_grades_match_subsurface_euler_characteristic():
    sets = [chord_to_dividing_set(cd)
            for n in range(1, 7) for cd in enumerate_chord_diagrams(n)]
    sets += [annulus_fixture(name)[1] for name in ANNULUS_FIXTURE_NAMES]
    rng = random.Random(1210)
    for _ in range(50):
        ds = rng.choice(sets)
        sets.append(add_trivial_circle(ds, rng.randrange(len(ds.surface.faces)))[0])
    sets += [push_dividing_set(glue(g), ds)
             for ds, g in random_glued_dividing_sets(rng, 100)]
    assert len(sets) == 352
    for ds in sets:
        r = regions(ds)
        c = region_census(ds)
        (hp, lp), (hm, lm) = _region(ds, "plus"), _region(ds, "minus")
        assert (r.faces_plus, r.faces_minus, lp, lm) == \
            (c.faces_plus, c.faces_minus, c.l_k, c.l_minus_k)
        # rank H1(R+-, a+-) = L+-(K) + I+-(K)
        assert hp.rank == c.l_k + c.i_plus
        assert hm.rank == c.l_minus_k + c.i_minus


def test_region_rank_matches_grading():
    # rank H1(R+, a+) = L(K) + I+(K) on every fixture
    for name in ANNULUS_FIXTURE_NAMES:
        _, ds = annulus_fixture(name)
        r = region_census(ds)
        assert region_homology(ds, "plus").rank == r.l_k + r.i_plus


def test_trivial_circle_isolates():
    _, ds = annulus_fixture("L0")
    pf = min(regions(ds).faces_plus)
    ds2, _ = add_trivial_circle(ds, pf)
    r = region_census(ds2)
    assert r.i_minus == 1 and r.i_plus == 0
    assert not r.is_non_isolating()
    # rank jumps with the isolated component
    assert region_homology(ds2, "minus").rank == r.l_minus_k + r.i_minus


# -- annulus fixtures -----------------------------------------------------

FIXTURE_GRADES = {
    "K+": (0, 2), "K-": (2, 0), "K0": (1, 1),
    "K1": (1, 1), "L0": (1, 1), "L1": (1, 1),
}


@pytest.mark.parametrize("name", sorted(FIXTURE_GRADES))
def test_annulus_fixture_valid(name):
    model, ds = annulus_fixture(name)
    validate_surface(ds.surface)
    check_model(model, RING_Z)
    check_model(model, RING_F2)
    l_k, l_m = FIXTURE_GRADES[name]
    r = region_census(ds)
    assert (r.l_k, r.l_minus_k) == (l_k, l_m)
    assert r.is_non_isolating()


class _PerEditBuilder:
    """The fixtures' former path, kept as the oracle: every split or
    subdivision builds its own surface through `split_face` and
    `subdivide_edge`, and the model's chains go through each refinement
    in turn."""

    def __init__(self, model):
        self.model, self.s, self.refs = model, model.surface, []

    def subdivide(self, u, v):
        (h,) = self.s.halfedges_between(u, v)
        ref, m = subdivide_edge(self.s, h)
        self.refs.append(ref)
        self.s = ref.surface
        return m

    def split(self, face_id, va, vb):
        tails = [self.s.tail(h) for h in self.s.faces[face_id]]
        ref, a, side, _ = split_face(self.s, face_id, tails.index(va), tails.index(vb))
        self.refs.append(ref)
        self.s = ref.surface
        return a, side

    def finish(self, k_edges):
        def carry(chain):
            for ref in self.refs:
                chain = transport_chain(ref, chain)
            return chain
        return (([carry(c) for c in self.model.beta_plus],
                 [carry(c) for c in self.model.beta_minus]),
                self.s, oracle_dividing_set(self.s, k_edges))


@pytest.mark.parametrize("name", ANNULUS_FIXTURE_NAMES)
def test_fixture_draft_matches_the_per_edit_path(name):
    oracle = _PerEditBuilder(annulus_model())
    (plus, minus), s, want = oracle.finish(dividing_module._ANNULUS_FIXTURES[name](oracle))
    model, ds = annulus_fixture(name)
    assert ds.surface.to_json_dict() == s.to_json_dict()
    assert (ds.k_halfedges, ds.face_signs) == want
    assert model.surface is ds.surface
    assert list(model.beta_plus) == plus and list(model.beta_minus) == minus


def test_unknown_fixture():
    with pytest.raises(KeyError):
        annulus_fixture("K9")
