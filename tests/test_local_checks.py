"""The local re-checks of `glue`, `cut_open` and `push_dividing_set`
against the full checks they replace.

Each step re-checks its output only where it changed the complex.  Here
every output of the three steps is also checked in full, on the suite
corpora, on every corner site of every small disk, on random gluings and
on quadrangulations; and hand-built welds that break a rule are refused
by the local check and by the full check alike."""

import random
from collections import Counter

import pytest

import sutured_tqft.axioms as axioms_module
import sutured_tqft.gluing as gluing_module
from sutured_tqft.axioms import (DEFAULT_SEED, _suture_corner_sites,
                                 random_sutured_surface, run_axiom_suite)
from sutured_tqft.dividing import (DividingSet, _welded_dividing_set,
                                   chord_to_dividing_set, dividing_set_violations,
                                   enumerate_chord_diagrams)
from sutured_tqft.errors import InvalidDividingSetError, InvalidSurfaceError
from sutured_tqft.gluing import Gluing, gluing_violations
from sutured_tqft.models import annulus_model, one_holed_torus
from sutured_tqft.surface import (disjoint_union, standard_disk, subdivide_edge,
                                  validate_surface)

from test_gluing import _quadrangulation_hosts


@pytest.fixture
def full_checks(monkeypatch):
    """Make every `glue`, `cut_open` and `push_dividing_set` output pass the
    full check as well; the counter tells how many outputs each step gave."""
    seen = Counter()
    glue, cut_open, push = (gluing_module.glue, gluing_module.cut_open,
                            gluing_module.push_dividing_set)

    def glue_in_full(tau):
        data = glue(tau)
        validate_surface(data.result)
        seen["glue"] += 1
        return data

    def cut_open_in_full(s, path):
        out = cut_open(s, path)
        validate_surface(out)
        seen["cut_open"] += 1
        return out

    def push_in_full(g, ds):
        out = push(g, ds)
        assert dividing_set_violations(out.surface, out.k_halfedges, out.face_signs) == []
        seen["push"] += 1
        return out

    for module in (gluing_module, axioms_module):
        monkeypatch.setattr(module, "glue", glue_in_full)
    monkeypatch.setattr(gluing_module, "cut_open", cut_open_in_full)
    monkeypatch.setattr(gluing_module, "push_dividing_set", push_in_full)
    return seen


@pytest.mark.parametrize("seed", [7, DEFAULT_SEED])
def test_suite_outputs_pass_the_full_checks(seed, full_checks):
    assert all(r.verdict for r in run_axiom_suite(seed=seed))
    # axiom 4 glues every distinct gluing and pushes every pair; the
    # square families cut and re-weld their hosts
    assert full_checks["glue"] > 150
    assert full_checks["push"] >= 200
    assert full_checks["cut_open"] > 10


def test_every_small_disk_site_glues_and_pushes_in_full(full_checks):
    # every corner site of every diagram with at most six chords, and the
    # diagram's own dividing set pushed through each site up to five
    sites = pushes = 0
    for n in range(1, 7):
        for cd in enumerate_chord_diagrams(n):
            ds = chord_to_dividing_set(cd)
            for sutures in (1, 2):
                for site in _suture_corner_sites(ds.surface, sutures):
                    data = gluing_module.glue(Gluing(ds.surface, *site))
                    sites += 1
                    if n <= 5:
                        gluing_module.push_dividing_set(data, ds)
                        pushes += 1
    assert (sites, pushes) == (13554, 2466)
    assert (full_checks["glue"], full_checks["push"]) == (sites, pushes)


def _subdivided_boundary(s):
    """s with every boundary edge halved: unmarked boundary vertices, so
    glued stretches can pass over plain points."""
    for h in s.boundary_halfedges():
        s = subdivide_edge(s, h)[0].surface
    return s


def _random_stretch(rng, s):
    """A run of boundary halfedges from an alpha vertex over one to three
    sutures to the next alpha vertex, or over the whole circle."""
    circle = rng.choice(s.boundary_circles())
    alpha = s.marks["alpha_plus"] | s.marks["alpha_minus"]
    ends = [i for i, h in enumerate(circle) if s.tail(h) in alpha]
    j = rng.randrange(len(ends))
    stop = ends[(j + rng.randint(1, 3)) % len(ends)]
    run = [circle[ends[j]]]
    while (ends[j] + len(run)) % len(circle) != stop:
        run.append(circle[(ends[j] + len(run)) % len(circle)])
    return tuple(run)


def test_random_gluings_give_valid_quotients(full_checks):
    rng = random.Random(20261020)
    hosts = [standard_disk(n) for n in (2, 3, 4)]
    hosts += [annulus_model().surface, one_holed_torus(),
              disjoint_union(standard_disk(2), standard_disk(3))[0]]
    hosts += [random_sutured_surface(rng) for _ in range(30)]
    hosts += [_subdivided_boundary(s) for s in hosts[:8]]
    before = full_checks["glue"]  # random_sutured_surface glues as well
    glued = 0
    for _ in range(10000):
        s = rng.choice(hosts)
        gamma = _random_stretch(rng, s)
        gamma_prime = tuple(reversed(_random_stretch(rng, s)))
        if len(gamma) == len(gamma_prime) and not gluing_violations(s, gamma, gamma_prime):
            data = gluing_module.glue(Gluing(s, gamma, gamma_prime))
            glued += 1
            # cut the weld open again where it is an arc of two edges
            if len(gamma) == 2:
                gluing_module.cut_open(data.result, gamma)
    assert glued > 250 and full_checks["glue"] - before == glued
    assert full_checks["cut_open"] > 50


def test_quadrangulations_cut_and_reweld_in_full(full_checks):
    for s in _quadrangulation_hosts():
        dec = gluing_module.quadrangulate(s)
        gluing_module.square_chord_family(dec)
    # random_sutured_surface glues too: 27 re-welds and more
    assert full_checks["cut_open"] > 30 and full_checks["glue"] > 27


# -- hand-built refusals --------------------------------------------------

def _unchecked_gluing(host, gamma, gamma_prime):
    """A Gluing built past its constructor's check."""
    tau = object.__new__(Gluing)
    tau.host, tau.gamma, tau.gamma_prime = host, tuple(gamma), tuple(gamma_prime)
    return tau


def _unchecked_quotient(tau, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(gluing_module, "validate_near", lambda s, vertices: None)
        return gluing_module.glue(tau).result


# On the one-suture disk with halved boundary edges (boundary vertices
# 0, 4, 1, 5, 2, 6, 3, 7 in order, F+ at 0, a+ at 1, F- at 2, a- at 3), each
# weld breaks gluing rules and a surface rule at the weld.
_SUBDIVIDED_DISK_WELDS = [
    # 4 is sent to both 7 and 5: two boundary corners meet at one vertex
    ((0, 8), (14, 2), "boundary is pinched at vertex 4",
     "face 0 walk breaks after halfedge 6"),
    # a+ welded to a plain point: a boundary circle with two marks
    ((2,), (6,), "boundary circle carries 2 marks; need a positive multiple of 4",
     "boundary circle carries 2 marks; need a positive multiple of 4"),
    # the marks on the weld's circle come out as F+ a- F- a+
    ((2, 12), (6, 8), "marking pattern broken on a boundary circle",
     "marking pattern broken on a boundary circle"),
]


@pytest.mark.parametrize("gamma, gamma_prime, local, full", _SUBDIVIDED_DISK_WELDS)
def test_a_bad_weld_is_refused_locally_and_in_full(gamma, gamma_prime, local, full,
                                                   monkeypatch):
    host = _subdivided_boundary(standard_disk(1))
    assert gluing_violations(host, gamma, gamma_prime)
    tau = _unchecked_gluing(host, gamma, gamma_prime)
    with pytest.raises(InvalidSurfaceError) as err:
        gluing_module.glue(tau)
    assert str(err.value).startswith(local)
    quotient = _unchecked_quotient(tau, monkeypatch)
    with pytest.raises(InvalidSurfaceError) as err:
        validate_surface(quotient)
    assert str(err.value).startswith(full)


def test_a_sign_change_across_the_weld_is_refused_locally_and_in_full():
    # a valid gluing joins faces of one sign, so the set is built past its
    # check: every face sign flipped, and K reversed to keep the K rule
    ds = chord_to_dividing_set(enumerate_chord_diagrams(3)[0])
    s = ds.surface
    gamma, gamma_prime = _suture_corner_sites(s)[0]
    data = gluing_module.glue(Gluing(s, gamma, gamma_prime))
    flipped = {f: -sign for f, sign in ds.face_signs.items()}
    k = tuple(s.twin[h] for h in ds.k_halfedges)
    assert dividing_set_violations(s, k, flipped)
    # welded faces of opposite sign: flip one of the two back
    welded = {s.face_of(gamma[0]), s.face_of(gamma_prime[0])}
    assert len(welded) == 2
    flipped[min(welded)] = -flipped[min(welded)]
    bad = _welded_dividing_set(s, k, flipped, (), ())
    with pytest.raises(InvalidDividingSetError, match="sign change across the plain edge"):
        gluing_module.push_dividing_set(data, bad)
    # the constructor derives its own coloring, so the bad one goes in as input
    stated = {**data.result.to_json_dict(), "K": list(k),
              "signs": {str(f): "+" if sign > 0 else "-" for f, sign in flipped.items()}}
    with pytest.raises(InvalidDividingSetError, match="sign change across the plain edge"):
        DividingSet.from_json_dict(stated)
