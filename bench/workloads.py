"""The four benchmark workloads: inputs, timed operations and oracles.

A workload builds a list of *rounds* from the seed.  Every round holds
the same mix of input strata (ring, rank, size or kind), so every round
costs about the same and a run can stop at any round boundary without
skewing the mix.  Each operation is a timed call into the library plus
an untimed oracle check and a canonical, sign-normalized form of its
output for the run digest.

Operations call the library through module attributes (``gluing.glue``,
not a name imported once), so the tracer's wrappers see every call.
"""
from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import gen
from sutured_tqft import axioms, contact, disks, dividing, gluing, models
from sutured_tqft.exterior import RING_F2, RING_Z

DEFAULT_SEED = 20260823


@dataclass(frozen=True)
class Op:
    """One timed call.  ``key`` names the input, ``label`` its stratum.

    Oracles that cost library work are computed on first use and cached,
    so they stay out of both the timed call and the set-up time.
    """
    label: str
    key: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    form: Callable[[Any], Any]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rounds: int            # distinct rounds generated from the seed
    trace_rounds: int      # rounds in the digest and in the traced pass
    build: Callable[[random.Random, int, int], list[list[Op]]]


def signed_terms(x) -> list[list[int]]:
    """Terms of a multivector as sorted [mask, coefficient] pairs, negated
    when needed so the lowest mask has a positive coefficient."""
    terms = sorted(x.terms.items())
    flip = -1 if terms and terms[0][1] < 0 else 1
    return [[m, flip * c] for m, c in terms]


def same_up_to_sign(x, y) -> bool:
    return signed_terms(x) == signed_terms(y)


def odd_masks(x) -> list[int]:
    return sorted(m for m, c in x.terms.items() if c % 2)


# -- axiom_suite ----------------------------------------------------------

def _suite_ok(reports) -> bool:
    return (all(r.verdict for r in reports)
            and {r.axiom for r in reports} >= {1, 2, 3, 4, 5})


def build_axiom_suite(rng: random.Random, seed: int, count: int) -> list[list[Op]]:
    op = Op("suite", f"seed={seed}",
            run=lambda: axioms.run_axiom_suite(seed=seed),
            check=_suite_ok,
            form=lambda reports: [[r.axiom, r.instance, r.verdict] for r in reports])
    return [[op]]


# -- gluing_rank ----------------------------------------------------------

def _respect_op(cd, ds, g, ring: str) -> Op:
    tau = g.gluing
    key = f"{cd.render()}|{tau.gamma}|{tau.gamma_prime}|{ring}"
    return Op(f"{ring}.L{cd.n - 1}", key,
              run=lambda: gluing.check_respect(g, ds, ring=ring),
              check=lambda verdict: verdict is True,
              form=lambda verdict: verdict)


# inputs per round for each host rank L; every input runs over both rings
RESPECT_MIX = {8: 3, 9: 2, 10: 1, 11: 1}


def build_gluing_rank(rng: random.Random, seed: int, count: int) -> list[list[Op]]:
    rounds = []
    for _ in range(count):
        ops = []
        for L, k in RESPECT_MIX.items():
            for _ in range(k):
                cd, ds, g = gen.glued_disk(rng, L + 1)
                ops += [_respect_op(cd, ds, g, ring) for ring in (RING_Z, RING_F2)]
        rounds.append(ops)
    return rounds


# -- chord_disks ----------------------------------------------------------

def _contact_op(cd) -> Op:
    def run():
        return (disks.disk_contact_element(cd, RING_Z).value,
                disks.disk_contact_element(cd, RING_F2).value)

    return Op(f"contact.n{cd.n}", cd.render(), run,
              check=lambda zf: odd_masks(zf[0]) == odd_masks(zf[1]),
              form=lambda zf: [signed_terms(zf[0]), odd_masks(zf[1])])


def _match_op(a, b) -> Op:
    def run():
        return (disks.matchable_via_wedge(a, b, RING_Z),
                disks.matchable_via_wedge(a, b, RING_F2))

    want = functools.cache(lambda: disks.matchable(a, b))
    return Op(f"match.n{a.n}", f"{a.render()}|{b.render()}", run,
              check=lambda zf: zf == (want(), want()),
              form=list)


def _torus_op(cd, params) -> Op:
    want = functools.cache(
        lambda: disks.matchable(cd, disks.rotate_diagram(cd, params.steps)))
    return Op(f"torus.nq{cd.n}", f"{cd.render()}|{params.n},{params.p},{params.q}",
              run=lambda: disks.solid_torus_tight(cd, params),
              check=lambda tight: tight == want(),
              form=lambda tight: tight)


def _torus_params(rng: random.Random):
    q = rng.randint(1, 4)
    n = rng.randint(1, 12 // q)
    p = rng.choice([p for p in range(-3, 4) if math.gcd(p, q) == 1])
    return disks.TorusParameters(n, p, q)


def build_chord_disks(rng: random.Random, seed: int, count: int) -> list[list[Op]]:
    rounds = []
    for r in range(count):
        ops = [_contact_op(gen.random_diagram(rng, n)) for n in range(6, 25)]
        for n in range(6, 17):
            a = gen.random_diagram(rng, n)
            # every other round pairs a diagram with one of its rotations,
            # so both verdicts occur
            b = (disks.rotate_diagram(a, rng.randrange(1, 2 * n)) if r % 2
                 else gen.random_diagram(rng, n))
            ops.append(_match_op(a, b))
        for _ in range(6):
            params = _torus_params(rng)
            ops.append(_torus_op(gen.random_diagram(rng, params.n * params.q), params))
        rounds.append(ops)
    return rounds


# -- surface_build --------------------------------------------------------

def _quad_op(s) -> Op:
    rank = gen.exterior_rank(s)
    key = f"H={len(s.twin)} F={len(s.faces)} n(F)={len(s.marks['F_plus'])} L={rank}"

    def run():
        dec = gluing.quadrangulate(s)
        _, _, options = gluing.square_chord_family(dec)
        return dec.cuts, options

    return Op(f"quad.L{rank}", key, run,
              # a quadrangulation has L squares with two chord systems each
              check=lambda out: math.prod(len(o) for o in out[1]) == 2 ** rank,
              form=lambda out: [[len(c) for c in out[0]], [len(o) for o in out[1]]])


def _realize_op(cd) -> Op:
    def run():
        ds = dividing.chord_to_dividing_set(cd)
        model = models.disk_model(cd.n).rebind(ds.surface)
        return contact.contact_element(ds, ring=RING_Z,
                                       basis=model.basis_plus(RING_Z)).value

    want = functools.cache(lambda: disks.disk_contact_element(cd, RING_Z).value)
    return Op(f"realize.n{cd.n}", cd.render(), run,
              check=lambda x: same_up_to_sign(x, want()),
              form=signed_terms)


# Quadrangulation cost has a heavy tail from L = 6 on: over 30 surfaces per
# rank the coefficient of variation was 1.4 at L = 6 and 3.5 at L = 8 (one
# op took 3 s), and single ops at L = 9..11 took 2.4 s to 22 s, mostly in
# _realize_arc's corridor search.  A few such surfaces would decide a run,
# so the ranks stop at 5 and each round draws two surfaces per rank.
QUAD_RANKS = range(2, 6)
QUADS_PER_RANK = 2
REALIZE_SIZES = (8, 12, 16, 20, 24)


def build_surface_build(rng: random.Random, seed: int, count: int) -> list[list[Op]]:
    bins = gen.surfaces_by_rank(rng, QUAD_RANKS, QUADS_PER_RANK * count)
    rounds = []
    for r in range(count):
        ops = [_quad_op(bins[L][QUADS_PER_RANK * r + i])
               for L in QUAD_RANKS for i in range(QUADS_PER_RANK)]
        ops += [_realize_op(gen.random_diagram(rng, n)) for n in REALIZE_SIZES]
        rounds.append(ops)
    return rounds


WORKLOADS = {w.name: w for w in (
    Workload("axiom_suite",
             "run_axiom_suite at its defaults: every layer, mostly surface queries",
             rounds=1, trace_rounds=1, build=build_axiom_suite),
    Workload("gluing_rank",
             "check_respect on self-glued disks at L=8..11 over Z and F2: the C(L,k) solve",
             rounds=8, trace_rounds=3, build=build_gluing_rank),
    Workload("chord_disks",
             "disk formulas, matchability and solid-torus tests: "
             "disks and exterior, little surface",
             rounds=64, trace_rounds=16, build=build_chord_disks),
    Workload("surface_build",
             "many short-lived surfaces: quadrangulation and realized chord diagrams",
             rounds=24, trace_rounds=4, build=build_surface_build),
)}


def build(name: str, seed: int) -> list[list[Op]]:
    w = WORKLOADS[name]
    return w.build(random.Random(f"{name}/{seed}"), seed, w.rounds)
