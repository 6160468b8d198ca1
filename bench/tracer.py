"""Outside-in tracer for the benchmark's traced run.

The tracer wraps public library functions from outside the package: a
module-level function is replaced in every ``sutured_tqft.*`` namespace
that binds it (modules import each other with ``from .x import y``), a
method is replaced on its class.  Nothing under ``src/`` changes.

Each wrapped call is a span.  Spans nest on a per-thread stack, because
``run_axiom_suite`` runs its checks on a thread pool, and are aggregated
in memory per function and per caller/callee edge; ``write`` stores the
aggregate when the run ends.  Self time is per-thread CPU time
(``time.thread_time_ns``) of a wrapped call minus that of the wrapped
calls it makes, so threads waiting for the interpreter lock or for a
pool are not charged.  Time in unwrapped helpers is charged to the
nearest wrapped caller.  The hottest ``Surface`` point queries are
counted only, with no span, and their time goes to their caller.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

NOTE = ("self_s is per-thread CPU time inside wrapped library calls minus "
        "wrapped callees; time in unwrapped helpers is charged to the nearest "
        "wrapped caller; Surface point queries are counted, not timed")

PACKAGE = "sutured_tqft"

# layer (= module) -> wrapped names, each timed as a span
SPANS = {
    "linalg": ("smith_normal_form", "solve_z", "f2_solve", "f2_rank", "f2_invert",
               "f2_row_space", "invert_unimodular", "left_inverse_z", "det_q",
               "rank_q", "mat_mul", "mat_vec"),
    "exterior": ("Multivector.wedge", "interior", "induced_map", "pair"),
    "surface": ("Surface.__init__", "Surface.boundary_vertices",
                "Surface.boundary_circles", "Surface.components",
                "Surface.outgoing_fan", "Surface.boundary_halfedges",
                "Surface.genus", "Surface.copy", "Surface.relabel",
                "validate_complex", "validate_marking", "validate_surface",
                "standard_disk", "subsurface", "disjoint_union",
                "chain_from_path", "chain_boundary", "face_boundary_chain",
                "transport_chain", "subdivide_edge", "split_face",
                "add_detached_circle"),
    "homology": ("RelativeH1.__init__", "RelativeH1.coordinates",
                 "RelativeH1.reduce", "RelativeH1.representative",
                 "HomologyBasis.__init__", "HomologyBasis.express",
                 "HomologyBasis.vertex_functional", "induced_matrix"),
    "dividing": ("DividingSet.__init__", "regions", "chord_to_dividing_set",
                 "dividing_set_violations", "infer_face_signs", "orient_by_signs",
                 "boundary_arc_signs", "add_trivial_circle",
                 "enumerate_chord_diagrams", "annulus_fixture"),
    "contact": ("contact_element", "negative_contact_element", "default_basis",
                "region_homology", "duality_check", "DualStructure.__init__",
                "DualStructure.pair"),
    "models": ("disk_model", "annulus_model", "one_holed_torus",
               "SurfaceModel.basis_plus", "SurfaceModel.basis_minus",
               "SurfaceModel.rebind", "SurfaceModel.transport"),
    "gluing": ("gluing_violations", "Gluing.__init__", "glue", "pushforward_class",
               "glued_relative_basis", "gluing_morphism", "push_dividing_set",
               "check_respect", "cut_open", "quadrangulate", "square_chord_family"),
    "disks": ("disk_contact_element", "bypass_triple_at", "matching_curve_count",
              "matchable", "matchable_via_wedge", "rotation_map", "rotate_diagram",
              "solid_torus_tight"),
    "axioms": ("run_axiom_suite", "check_grading", "check_disjoint_union",
               "check_trivial_closed", "check_gluing_axiom",
               "check_relabel_invariance", "check_basis_of_contact_elements",
               "check_uniqueness_hypotheses", "random_sutured_surface",
               "random_glued_dividing_sets", "excess_intersection_replay"),
}

# counted only: these run millions of times in one axiom suite
COUNTED = {
    "surface": ("Surface.tail", "Surface.face_of", "Surface.in_face",
                "Surface.is_boundary_halfedge", "Surface.walk_next",
                "Surface.walk_prev"),
}

SURFACE_READS = ("boundary_vertices", "boundary_circles", "components", "outgoing_fan")


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _area(m) -> tuple[int, int]:
    rows = len(m)
    return rows, (len(m[0]) if rows else 0)


def _snf(counts, peaks, args, kwargs, out):
    rows, cols = _area(_arg(args, kwargs, 0, "a"))
    counts["linalg.smith_normal_form.cells"] += rows * cols


def _solve_z(counts, peaks, args, kwargs, out):
    rows, cols = _area(_arg(args, kwargs, 0, "a"))
    counts["linalg.solve_z.cells"] += rows * cols
    peaks["linalg.solve.max_dim"] = max(peaks["linalg.solve.max_dim"], rows, cols)


def _f2_solve(counts, peaks, args, kwargs, out):
    rows = len(_arg(args, kwargs, 0, "a_rows"))
    cols = _arg(args, kwargs, 2, "ncols")
    counts["linalg.f2_solve.cells"] += rows * cols
    peaks["linalg.solve.max_dim"] = max(peaks["linalg.solve.max_dim"], rows, cols)


def _wedge(counts, peaks, args, kwargs, out):
    counts["exterior.wedge.terms_out"] += len(out.terms)


def _contact(counts, peaks, args, kwargs, out):
    counts["contact.contact_element.terms_out"] += len(out.value.terms)


def _surface_new(counts, peaks, args, kwargs, out):
    counts["surface.Surface.halfedges_new"] += len(args[0].twin)


def _h1_new(counts, peaks, args, kwargs, out):
    counts["homology.RelativeH1.halfedges"] += len(args[0].surface.twin)


def _violations(counts, peaks, args, kwargs, out):
    counts["gluing.gluing_violations.accepted"] += not out


def _quadrangulate(counts, peaks, args, kwargs, out):
    counts["gluing.quadrangulate.cuts"] += len(out.cuts)


# span key -> hook(counts, peaks, args, kwargs, result), run after the call
HOOKS = {
    "linalg.smith_normal_form": _snf,
    "linalg.solve_z": _solve_z,
    "linalg.f2_solve": _f2_solve,
    "exterior.Multivector.wedge": _wedge,
    "contact.contact_element": _contact,
    "surface.Surface.__init__": _surface_new,
    "homology.RelativeH1.__init__": _h1_new,
    "gluing.gluing_violations": _violations,
    "gluing.quadrangulate": _quadrangulate,
}


class _Stats:
    """One thread's share of the trace."""

    def __init__(self):
        self.stack: list[list] = []           # [key, child CPU ns] per open span
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.edge_calls = defaultdict(int)    # (caller key or None, key)
        self.edge_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.peaks = defaultdict(int)


class _Local(threading.local):
    def __init__(self, registry: list, lock: threading.Lock):
        self.stats = _Stats()
        with lock:
            registry.append(self.stats)


class Tracer:
    """Install with ``install()``, run the traced work, then ``uninstall()``."""

    def __init__(self):
        self._registry: list[_Stats] = []
        self._local = _Local(self._registry, threading.Lock())
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- wrappers ---------------------------------------------------------
    def _span(self, key: str, fn, hook):
        local = self._local
        clock = time.thread_time_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            st = local.stats
            stack = st.stack
            caller = stack[-1] if stack else None
            frame = [key, 0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st.calls[key] += 1
                st.self_ns[key] += dt - frame[1]
                edge = (caller[0] if caller else None, key)
                st.edge_calls[edge] += 1
                st.edge_ns[edge] += dt
                if caller:
                    caller[1] += dt
            if hook is not None:
                hook(st.counts, st.peaks, args, kwargs, out)
            return out

        return span

    def _counter(self, key: str, fn):
        local = self._local

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            local.stats.calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, layer: str, name: str, timed: bool) -> None:
        key = f"{layer}.{name}"
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        owner_name, _, attr = name.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        fn = vars(owner).get(attr) if owner is not None else None
        if not inspect.isfunction(fn):
            self.missing.append(key)
            return
        wrapper = (self._span(key, fn, HOOKS.get(key)) if timed
                   else self._counter(key, fn))
        if owner_name:
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            return
        for mname, ns in list(sys.modules.items()):
            if mname != PACKAGE and not mname.startswith(PACKAGE + "."):
                continue
            for alias, value in list(vars(ns).items()):
                if value is fn:
                    self._undo.append((ns, alias, fn))
                    setattr(ns, alias, wrapper)

    def install(self) -> None:
        for layer, names in SPANS.items():
            for name in names:
                self._wrap(layer, name, timed=True)
        for layer, names in COUNTED.items():
            for name in names:
                self._wrap(layer, name, timed=False)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    # -- results ----------------------------------------------------------
    def totals(self) -> dict:
        """Every thread's stats summed (peaks: maximum)."""
        out = {f: defaultdict(int) for f in
               ("calls", "self_ns", "edge_calls", "edge_ns", "counts", "peaks")}
        for st in self._registry:
            for field in ("calls", "self_ns", "edge_calls", "edge_ns", "counts"):
                for k, v in getattr(st, field).items():
                    out[field][k] += v
            for k, v in st.peaks.items():
                out["peaks"][k] = max(out["peaks"][k], v)
        return out

    def write(self, path, extra: dict) -> None:
        t = self.totals()
        doc = {
            "note": NOTE,
            "missing": self.missing,
            "functions": {k: {"calls": t["calls"][k],
                              "self_s": t["self_ns"].get(k, 0) / 1e9}
                          for k in sorted(t["calls"])},
            "edges": [{"caller": c, "callee": k, "calls": n,
                       "total_s": t["edge_ns"][c, k] / 1e9}
                      for (c, k), n in sorted(t["edge_calls"].items(),
                                              key=lambda kv: (kv[0][0] or "", kv[0][1]))],
            "counts": dict(sorted(t["counts"].items())),
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n")


def layer_metrics(t: dict) -> dict[str, float]:
    """The per-layer metrics that the tracer itself measures."""
    calls, counts = t["calls"], t["counts"]
    out: dict[str, float] = {}
    for layer in SPANS:
        out[f"{layer}.self_s"] = sum(
            ns for k, ns in t["self_ns"].items() if k.startswith(layer + ".")) / 1e9
    out.update({
        "linalg.smith_normal_form.calls": calls["linalg.smith_normal_form"],
        "linalg.smith_normal_form.cells": counts["linalg.smith_normal_form.cells"],
        "linalg.solve_z.cells": counts["linalg.solve_z.cells"],
        "linalg.f2_solve.cells": counts["linalg.f2_solve.cells"],
        "linalg.solve.max_dim": t["peaks"]["linalg.solve.max_dim"],
        "exterior.wedge.calls": calls["exterior.Multivector.wedge"],
        "exterior.wedge.terms_out": counts["exterior.wedge.terms_out"],
        "exterior.induced_map.calls": calls["exterior.induced_map"],
        "exterior.interior.calls": calls["exterior.interior"],
        "surface.Surface.new": calls["surface.Surface.__init__"],
        "surface.Surface.halfedges_new": counts["surface.Surface.halfedges_new"],
        "surface.reads.calls": sum(calls[f"surface.Surface.{r}"] for r in SURFACE_READS),
        "surface.point_queries": sum(calls[f"surface.{n}"] for n in COUNTED["surface"]),
        "surface.validate_surface.calls": calls["surface.validate_surface"],
        "homology.RelativeH1.new": calls["homology.RelativeH1.__init__"],
        "homology.RelativeH1.halfedges": counts["homology.RelativeH1.halfedges"],
        "homology.induced_matrix.calls": calls["homology.induced_matrix"],
        "dividing.DividingSet.new": calls["dividing.DividingSet.__init__"],
        "dividing.regions.calls": calls["dividing.regions"],
        "dividing.chord_to_dividing_set.calls": calls["dividing.chord_to_dividing_set"],
        "contact.contact_element.calls": calls["contact.contact_element"],
        "contact.contact_element.terms_out": counts["contact.contact_element.terms_out"],
        "models.disk_model.calls": calls["models.disk_model"],
        "gluing.glue.calls": calls["gluing.glue"],
        "gluing.gluing_morphism.calls": calls["gluing.gluing_morphism"],
        "gluing.gluing_violations.calls": calls["gluing.gluing_violations"],
        "gluing.gluing_violations.accept_ratio": (
            counts["gluing.gluing_violations.accepted"] / calls["gluing.gluing_violations"]
            if calls["gluing.gluing_violations"] else 0.0),
        "gluing.quadrangulate.cuts": counts["gluing.quadrangulate.cuts"],
        "disks.disk_contact_element.calls": calls["disks.disk_contact_element"],
        "disks.solid_torus_tight.calls": calls["disks.solid_torus_tight"],
    })
    return out
