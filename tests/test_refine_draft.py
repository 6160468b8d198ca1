"""The edit draft against the copy-per-edit refinements it replaced.

`surface._Draft` applies a batch of face splits and edge subdivisions in
place and builds one surface at the end.  The oracle below is the old
path: every edit copies the whole complex into a new surface, and no
index is handed on.  Each batch the library makes is recorded edit by
edit, replayed on the oracle, and the two must agree on every id after
every edit; the frozen surface must be handed exactly the indices the
draft keeps, each equal to one built from scratch.
"""
from __future__ import annotations

import random

import pytest

import sutured_tqft.gluing as gluing_module
from sutured_tqft.axioms import random_sutured_surface
from sutured_tqft.dividing import ChordDiagram, chord_to_dividing_set, enumerate_chord_diagrams
from sutured_tqft.gluing import _realize_arc, quadrangulate, square_chord_family
from sutured_tqft.models import annulus_model
from sutured_tqft.surface import (Surface, _Draft, split_face, standard_disk, subdivide_edge,
                                  validate_surface)

from test_gluing import _HANDED, _INDICES, _built_indices, _quadrangulation_hosts


# -- the oracle: one full copy per edit -------------------------------------

def copy_subdivide(s: Surface, h: int) -> tuple[Surface, int]:
    t = s.twin[h]
    u, v = s.tail(h), s.head[h]
    m = max(s.head.values()) + 1
    h2 = max(s.twin) + 1
    t2 = h2 + 1
    head = {**s.head, h: m, h2: v, t: m, t2: u}
    twin = {**s.twin, h: t2, t2: h, h2: t, t: h2}
    faces = list(s.faces)
    for x, x2 in ((h, h2), (t, t2)):
        for fi, walk in enumerate(faces):
            if x in walk:
                idx = walk.index(x) + 1
                faces[fi] = walk[:idx] + (x2,) + walk[idx:]
    return Surface(twin, head, faces, s.marks), m


def copy_split(s: Surface, fi: int, i: int, j: int) -> tuple[Surface, int]:
    if i > j:
        i, j = j, i
    walk = s.faces[fi]
    a = max(s.twin) + 1
    b = a + 1
    faces = list(s.faces)
    faces[fi] = walk[j:] + walk[:i] + (a,)
    faces.append(walk[i:j] + (b,))
    twin = {**s.twin, a: b, b: a}
    head = {**s.head, a: s.tail(walk[j]), b: s.tail(walk[i])}
    return Surface(twin, head, faces, s.marks), a


# -- recording the library's batches -----------------------------------------

def _cells(x):
    return dict(x.twin), dict(x.head), tuple(tuple(w) for w in x.faces)


def _from_scratch(s: Surface, name: str):
    return getattr(Surface, name).func(s)


class Recorder:
    """Wraps the draft so that every batch is kept as (parent, edits,
    frozen surface, indices it was handed); an edit is (kind, arguments,
    returned id, cells after)."""

    def __init__(self, monkeypatch):
        self.batches = []
        self.open = {}
        init, split, subdivide, freeze = (_Draft.__init__, _Draft.split, _Draft.subdivide,
                                          _Draft.freeze)
        rec = self

        def rec_init(d, s):
            init(d, s)
            rec.open[id(d)] = (s, [])

        def edit(kind, fn):
            def wrapped(d, *args):
                out = fn(d, *args)
                rec.open[id(d)][1].append((kind, args, out, _cells(d)))
                return out
            return wrapped

        def rec_freeze(d):
            key = id(d)
            s = freeze(d)
            parent, edits = rec.open.pop(key)
            rec.batches.append((parent, edits, s, _built_indices(s)))
            return s

        monkeypatch.setattr(_Draft, "__init__", rec_init)
        monkeypatch.setattr(_Draft, "split", edit("split", split))
        monkeypatch.setattr(_Draft, "subdivide", edit("subdivide", subdivide))
        monkeypatch.setattr(_Draft, "freeze", rec_freeze)

    def check(self) -> int:
        """Replay every frozen batch on the oracle; returns the edit count.
        The genus-cut search drops its probe drafts unfrozen."""
        edits_seen = 0
        for parent, edits, frozen, handed in self.batches:
            cur = parent
            for kind, args, out, cells in edits:
                cur, want = (copy_split if kind == "split" else copy_subdivide)(cur, *args)
                assert out == want, (kind, args)
                assert cells == _cells(cur), (kind, args)
            edits_seen += len(edits)
            assert frozen.twin == cur.twin and frozen.head == cur.head
            assert frozen.faces == cur.faces and frozen.marks == cur.marks
            assert frozen._fresh == _from_scratch(cur, "_fresh")
            assert handed == _HANDED
            for name in handed:
                assert frozen.__dict__[name] == _from_scratch(frozen, name), name
        return edits_seen


@pytest.fixture
def recorder(monkeypatch):
    return Recorder(monkeypatch)


# -- the differential tests ------------------------------------------------

def test_every_small_chord_set_matches_the_copy_path(recorder):
    diagrams = [cd for n in range(1, 8) for cd in enumerate_chord_diagrams(n)]
    assert len(diagrams) == 625
    for cd in diagrams:
        chord_to_dividing_set(cd)
    assert len(recorder.batches) == 625
    assert recorder.check() == sum(cd.n for cd in diagrams)


def test_quadrangulation_batches_match_the_copy_path(recorder, monkeypatch):
    # the corridor search fails on some hosts, and every unprotected
    # interior edge is then subdivided on the same draft
    corridor = gluing_module._corridor
    misses = []

    def counted(d, *args):
        path = corridor(d, *args)
        misses.append(path is None)
        return path

    monkeypatch.setattr(gluing_module, "_corridor", counted)
    hosts = _quadrangulation_hosts()
    assert len(hosts) == 27
    for s in hosts:
        square_chord_family(quadrangulate(s))
    assert any(misses)
    assert recorder.check() > 500


def test_seeded_random_surfaces_match_the_copy_path(recorder):
    # random batches the library never makes: boundary subdivisions,
    # subdivided faceless twins and splits of the faces they touch
    rng = random.Random(4711)
    for _ in range(30):
        s = random_sutured_surface(rng)
        # every index pre-built: none but the draft's own may be handed on
        for name in _INDICES:
            getattr(s, name)
        d = _Draft(s)
        for _ in range(rng.randint(1, 25)):
            if rng.random() < 0.4:
                d.subdivide(rng.choice(sorted(d.twin)))
                continue
            fi = rng.randrange(len(d.faces))
            walk = d.faces[fi]
            i, j = rng.randrange(len(walk)), rng.randrange(len(walk))
            if i != j and d.tail(walk[i]) != d.tail(walk[j]):
                d.split(fi, i, j)
        validate_surface(d.freeze())
    assert recorder.check() > 300


def test_one_edit_refinements_are_drafts(recorder):
    s = annulus_model().surface
    ref, m = subdivide_edge(s, s.boundary_halfedges()[0])
    s2 = ref.surface
    ref2, a, side, comp = split_face(s2, 0, 0, 2)
    assert (side, comp) == (len(s2.faces), 0)
    assert [len(edits) for _, edits, _, _ in recorder.batches] == [1, 1]
    recorder.check()


def test_a_frozen_draft_is_spent():
    d = _Draft(standard_disk(2))
    d.split(0, 0, 2)
    d.freeze()
    with pytest.raises(AttributeError):
        d.split(0, 1, 3)
    with pytest.raises(AttributeError):
        d.corners(0)


# -- one surface per batch ----------------------------------------------------

@pytest.fixture
def surfaces_built(monkeypatch):
    built = []
    init = Surface.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Surface, "__init__", counted)
    return built


def test_chord_set_builds_the_disk_and_one_refinement(surfaces_built):
    for n in range(1, 9):
        for cd in (ChordDiagram(n, tuple((2 * k + 1, 2 * k + 2) for k in range(n))),
                   ChordDiagram(n, tuple((k + 1, 2 * n - k) for k in range(n)))):
            surfaces_built.clear()
            ds = chord_to_dividing_set(cd)
            assert surfaces_built == [surfaces_built[0], ds.surface]


def test_square_family_builds_one_surface(surfaces_built):
    for s in _quadrangulation_hosts():
        dec = quadrangulate(s)
        surfaces_built.clear()
        pieces, reverse, _ = square_chord_family(dec)
        # the chords of every piece go in on one draft; the re-anchored
        # gluing validates its sites but builds nothing
        assert surfaces_built == [pieces]
        assert reverse.host is pieces


def test_realized_arc_builds_one_surface_with_or_without_the_fallback(surfaces_built,
                                                                      monkeypatch):
    corridor = gluing_module._corridor
    misses, calls = [], []

    def missed(d, *args):
        path = corridor(d, *args)
        misses.append(path is None)
        return path

    def counted(s, va, vb):
        before, missed_before = len(surfaces_built), sum(misses)
        out = _realize_arc(s, va, vb)
        calls.append((len(surfaces_built) - before, sum(misses) > missed_before))
        return out

    monkeypatch.setattr(gluing_module, "_corridor", missed)
    monkeypatch.setattr(gluing_module, "_realize_arc", counted)
    # the annulus and the one-holed torus take the fallback
    for s in _quadrangulation_hosts():
        quadrangulate(s)
    assert calls and all(made == 1 for made, _ in calls)
    assert sum(fell_back for _, fell_back in calls) >= 3
