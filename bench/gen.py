"""Seeded inputs for the benchmark.

Everything here is built from constructors whose outputs are pinned by
the test suite: ``standard_disk``, ``disjoint_union``, ``Gluing``/``glue``
and ``ChordDiagram``.  Sites are searched with the public ``Surface`` API
and ``gluing_violations`` only, so a change to the library's own random
corpora cannot move the benchmark's inputs.
"""
from __future__ import annotations

import random

from sutured_tqft import errors, gluing
from sutured_tqft.disks import disk_contact_element
from sutured_tqft.contact import contact_element
from sutured_tqft.dividing import ChordDiagram, chord_to_dividing_set
from sutured_tqft.exterior import RING_F2
from sutured_tqft.surface import disjoint_union, standard_disk

MAX_DRAWS = 4096


def random_diagram(rng: random.Random, n: int) -> ChordDiagram:
    """A uniform noncrossing matching on 2n points, via a random Dyck word.

    Shuffle n up-steps and n + 1 down-steps; by the cycle lemma exactly one
    rotation, the one starting just after the first minimum of the prefix
    sums, is a Dyck word followed by a down-step.  Dyck words of length 2n
    are in bijection with the diagrams, so the draw is uniform.
    """
    steps = [1] * n + [-1] * (n + 1)
    rng.shuffle(steps)
    total = low = cut = 0
    for i, step in enumerate(steps):
        total += step
        if total < low:
            low, cut = total, i + 1
    word = (steps[cut:] + steps[:cut])[:-1]
    opened: list[int] = []
    pairs = []
    for pos, step in enumerate(word, start=1):
        if step > 0:
            opened.append(pos)
        else:
            pairs.append((opened.pop(), pos))
    return ChordDiagram(n, tuple(sorted(pairs)))


def boundary_arcs(s, sutures: int) -> list[tuple[int, ...]]:
    """Boundary halfedge runs from an alpha vertex to the alpha vertex
    ``sutures`` steps further along the same boundary circle."""
    alpha = s.marks["alpha_plus"] | s.marks["alpha_minus"]
    arcs = []
    for circle in s.boundary_circles():
        m = len(circle)
        at = [i for i in range(m) if s.tail(circle[i]) in alpha]
        if sutures >= len(at):
            continue
        for j in range(len(at)):
            i, stop = at[j], at[(j + sutures) % len(at)]
            run = []
            while i != stop:
                run.append(circle[i])
                i = (i + 1) % m
            arcs.append(tuple(run))
    return arcs


def random_site(rng: random.Random, s, sutures: int, draws: int = 64):
    """A random valid self-gluing of two boundary arcs, or None.

    Samples ordered arc pairs and keeps the first one that passes
    ``gluing_violations``; the second arc is reversed as gluing expects.
    """
    arcs = boundary_arcs(s, sutures)
    if len(arcs) < 2:
        return None
    for _ in range(draws):
        ga, gb = rng.sample(arcs, 2)
        gp = tuple(reversed(gb))
        if not gluing.gluing_violations(s, ga, gp):
            return ga, gp
    return None


def glued_disk(rng: random.Random, n: int):
    """(diagram, dividing set, glued data) for the gluing_rank workload.

    The diagram has n chords (host rank L = n - 1) and an element of
    degree floor(L / 2); it is self-glued on a two-suture site that
    swallows a positive suture and leaves a nonzero glued element.
    """
    want = (n - 1) // 2
    for _ in range(MAX_DRAWS):
        cd = random_diagram(rng, n)
        if disk_contact_element(cd, RING_F2).grade != want:
            continue
        ds = chord_to_dividing_set(cd)
        site = random_site(rng, ds.surface, sutures=2)
        if site is None:
            continue
        g = gluing.glue(gluing.Gluing(ds.surface, *site))
        if not g.swallowed:
            continue
        pushed = gluing.push_dividing_set(g, ds)
        if contact_element(pushed, ring=RING_F2).value.is_zero():
            continue
        return cd, ds, g
    raise RuntimeError(f"no glueable {n}-chord diagram in {MAX_DRAWS} draws")


def exterior_rank(s) -> int:
    """L = n(F) - chi, counted from the raw cell data."""
    chi = len(set(s.head.values())) - len(s.twin) // 2 + len(s.faces)
    return len(s.marks["F_plus"]) - chi


def surfaces_by_rank(rng: random.Random, ranks, count: int) -> dict[int, list]:
    """``count`` random surfaces for each exterior rank in ``ranks``.

    Surfaces are drawn with ``random_surface`` and binned by rank until
    every bin is full; draws of other ranks, or into a full bin, are
    dropped.
    """
    bins: dict[int, list] = {L: [] for L in ranks}
    for _ in range(MAX_DRAWS * len(bins)):
        s = random_surface(rng)
        L = exterior_rank(s)
        if L in bins and len(bins[L]) < count:
            bins[L].append(s)
            if all(len(b) == count for b in bins.values()):
                return bins
    raise RuntimeError(f"could not fill the rank bins {sorted(bins)}")


def random_surface(rng: random.Random, max_sutures: int = 16,
                   max_genus: int = 3, max_circles: int = 4):
    """One or two standard disks, self-glued along up to two arc pairs.

    Rejection sampling keeps positive sutures, genus and boundary circles
    under the caps.  The sizes make each rank L = 2..5 at least 10% likely,
    so ``surfaces_by_rank`` fills its bins in few draws.
    """
    for _ in range(MAX_DRAWS):
        s = standard_disk(rng.randint(1, 6))
        if rng.random() < 0.5:
            s = disjoint_union(s, standard_disk(rng.randint(1, 4)))[0]
        for _ in range(rng.randint(0, 2)):
            site = random_site(rng, s, sutures=rng.choice((1, 2)), draws=32)
            if site is None:
                break
            try:
                s = gluing.glue(gluing.Gluing(s, *site)).result
            except errors.InternalConsistencyError:
                break
        if (0 < len(s.marks["F_plus"]) <= max_sutures and s.genus() <= max_genus
                and len(s.boundary_circles()) <= max_circles):
            return s
    raise RuntimeError(f"no surface within the caps in {MAX_DRAWS} draws")
