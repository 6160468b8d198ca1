"""Contact elements: the annulus table, disk examples, and duality."""
import pytest

from sutured_tqft.contact import (DualStructure, _region, contact_element, default_basis,
                                  duality_check, negative_contact_element,
                                  region_homology, render_multivector)
from sutured_tqft.dividing import (ChordDiagram, add_trivial_circle,
                                   annulus_fixture, chord_to_dividing_set,
                                   enumerate_chord_diagrams, regions)
from sutured_tqft.errors import ValidationError
from sutured_tqft.exterior import RING_F2, RING_Z, Multivector, pair
from sutured_tqft.homology import RelativeH1
from sutured_tqft.models import annulus_model, disk_model
from sutured_tqft.surface import standard_disk, subsurface
from test_dividing import FIXTURE_GRADES, region_census


def disk_setup(cd):
    ds = chord_to_dividing_set(cd)
    model = disk_model(cd.n).rebind(ds.surface)
    return ds, model


# -- the annulus table ----------------------------------------------------

ANNULUS_TABLE_F2 = {
    "K+": "1",
    "K-": "b1^b2",
    "K0": "b2",
    "K1": "b2",
    "L0": "b1",
    "L1": "b1 + b2",
}


@pytest.mark.parametrize("name", sorted(ANNULUS_TABLE_F2))
def test_annulus_table_f2(name):
    model, ds = annulus_fixture(name)
    c = contact_element(ds, ring=RING_F2, basis=model.basis_plus(RING_F2))
    assert render_multivector(c.value, model.labels_plus) == ANNULUS_TABLE_F2[name]
    assert c.grade == FIXTURE_GRADES[name][0]


@pytest.mark.parametrize("name", sorted(ANNULUS_TABLE_F2))
def test_annulus_table_z_up_to_sign(name):
    model, ds = annulus_fixture(name)
    cz = contact_element(ds, ring=RING_Z, basis=model.basis_plus(RING_Z)).value
    c2 = contact_element(ds, ring=RING_F2, basis=model.basis_plus(RING_F2)).value
    # integral value reduces to the F2 one and is primitive
    assert {m: c % 2 for m, c in cz.terms.items() if c % 2} == c2.terms
    from math import gcd
    g = 0
    for c in cz.terms.values():
        g = gcd(g, c)
    assert g == 1


def test_annulus_duality_both_rings():
    for name in sorted(ANNULUS_TABLE_F2):
        model, ds = annulus_fixture(name)
        assert duality_check(ds, model, RING_F2)
        assert duality_check(ds, model, RING_Z)


def test_annulus_negative_grades():
    model, ds = annulus_fixture("K-")
    cm = negative_contact_element(ds, ring=RING_Z, basis=model.basis_minus(RING_Z))
    assert cm.grade == 0 and cm.value == Multivector.unit(2, RING_Z, dual=True)
    model, ds = annulus_fixture("K+")
    cm = negative_contact_element(ds, ring=RING_F2, basis=model.basis_minus(RING_F2))
    assert cm.grade == 2 and not cm.value.is_zero()


# -- disk examples --------------------------------------------------------

def test_six_chord_example():
    cd = ChordDiagram.parse("1-2,3-12,4-5,6-7,8-11,9-10")
    ds, model = disk_setup(cd)
    for ring in (RING_F2, RING_Z):
        c = contact_element(ds, ring=ring, basis=model.basis_plus(ring))
        assert c.grade == 3
        assert render_multivector(c.value, model.labels_plus) == "b3^b5^b7 + b3^b5^b9"


def test_degree_zero_subset():
    # sequential diagram: L = 0, non-isolating, subset {1, -1}
    cd = ChordDiagram.parse("1-2,3-4")
    ds, model = disk_setup(cd)
    c = contact_element(ds, ring=RING_Z, basis=model.basis_plus(RING_Z)).value
    one = Multivector.unit(model.rank, RING_Z)
    assert c in (one, one.scale(-1))


def test_isolating_gives_zero():
    _, ds = annulus_fixture("L0")
    model, _ = annulus_fixture("L0")
    ds2, ref = add_trivial_circle(ds, min(regions(ds).faces_plus))
    m2 = model.transport(ref)
    for ring in (RING_F2, RING_Z):
        c = contact_element(ds2, ring=ring, basis=m2.basis_plus(ring))
        assert c.value.is_zero()


def test_off_grade_element_is_zero_without_a_wedge(monkeypatch):
    # a trivial circle in a negative face makes the grade L(K) differ from
    # the rank of H_1(R+, a+), so the element is 0 and nothing is expanded
    _, ds = annulus_fixture("L0")
    ds2, _ = add_trivial_circle(ds, min(regions(ds).faces_minus))
    hr, grade = _region(ds2, "plus")
    assert grade != hr.rank

    def no_wedge(*args):
        raise AssertionError("an off-grade element was expanded")

    monkeypatch.setattr(Multivector, "wedge", no_wedge)
    for ring in (RING_F2, RING_Z):
        assert contact_element(ds2, ring=ring).is_zero()


def test_nontrivial_iff_nonisolating_all_disks():
    for n in (2, 3, 4):
        base = disk_model(n)
        for cd in enumerate_chord_diagrams(n):
            ds = chord_to_dividing_set(cd)
            m = base.rebind(ds.surface)
            c = contact_element(ds, ring=RING_F2, basis=m.basis_plus(RING_F2))
            assert (not c.value.is_zero()) == region_census(ds).is_non_isolating()
            assert not c.value.is_zero()  # chord diagrams are never isolating


def test_an_unknown_side_is_refused():
    ds = chord_to_dividing_set(ChordDiagram.parse("1-4,2-3"))
    for call in (lambda: default_basis(standard_disk(3), RING_Z, "positive"),
                 lambda: region_homology(ds, "bogus"),
                 lambda: _region(ds, "minus ")):
        with pytest.raises(ValidationError, match="unknown side"):
            call()


def test_coordinates_refuse_a_chain_off_the_complex():
    # every 4-chord diagram has an ambient basis cycle with an edge off R+;
    # the region's H_1 refuses it as bad input, over either ring
    for cd in enumerate_chord_diagrams(4):
        ds = chord_to_dividing_set(cd)
        s = ds.surface
        hr = region_homology(ds)
        region_edges = set(subsurface(s, sorted(regions(ds).faces_plus)).edges())
        off = [c for c in default_basis(s, RING_Z).cycles if c.keys() - region_edges]
        assert off
        for c in off:
            for ring in (RING_Z, RING_F2):
                with pytest.raises(ValidationError, match="leaves the complex"):
                    hr.coordinates(c, ring)
    # so does a build on all faces, for an id that is no edge of the surface
    h = RelativeH1(s, s.marks["alpha_plus"])
    for stray in (max(s.twin) + 1, s.twin[h.cotree[0]]):
        for ring in (RING_Z, RING_F2):
            with pytest.raises(ValidationError, match="leaves the complex"):
                h.reduce({stray: 1}, ring)


# -- duality --------------------------------------------------------------

def test_duality_full_disk_sweep():
    for n in (2, 3, 4, 5):
        base = disk_model(n)
        for cd in enumerate_chord_diagrams(n):
            ds = chord_to_dividing_set(cd)
            m = base.rebind(ds.surface)
            assert duality_check(ds, m, RING_F2)
            assert duality_check(ds, m, RING_Z)


def test_rank_complement():
    # rank H1(R+,a+) + rank H1(R-,a-) = rank H1(S,a+) for non-isolating K
    for n in (2, 3, 4):
        for cd in enumerate_chord_diagrams(n):
            ds = chord_to_dividing_set(cd)
            rp = region_homology(ds, "plus")
            rm = region_homology(ds, "minus")
            assert rp.rank + rm.rank == n - 1
    for name in sorted(ANNULUS_TABLE_F2):
        _, ds = annulus_fixture(name)
        assert (region_homology(ds, "plus").rank
                + region_homology(ds, "minus").rank) == 2


def test_top_generators_pair_to_one():
    for model in (disk_model(3), disk_model(5), annulus_model()):
        for ring in (RING_Z, RING_F2):
            d = DualStructure(model, ring)
            assert pair(d.omega_minus(), d.omega_plus()) == 1


def test_dual_structure_rejects_primal():
    d = DualStructure(annulus_model(), RING_Z)
    with pytest.raises(ValidationError):
        d.as_dual(Multivector.unit(2, RING_Z))
