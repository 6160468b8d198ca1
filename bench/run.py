#!/usr/bin/env python3
"""Benchmark of the exact sutured-surface calculator.

    python3 bench/run.py --workload gluing_rank --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1                 # every workload in turn

A run measures in ``PROCESSES`` fresh Python processes, one after the
other, each with a share of ``--seconds``: the speed of one process on a
shared host depends on where it lands (a fixed loop varied far more
between processes than between windows of one process), so pooling a few
of them steadies the numbers.  Each process imports the library and
generates the inputs from the seed (``setup_s`` is the median over the
processes), then runs rounds of operations until its share of the time
has passed, checking every output against its oracle.  Op times are
scaled to a fixed reference speed of the host (see ``SpeedTrace``).  With
``--trace 1`` the first process then repeats its first rounds under the
outside-in tracer, and the run reports per-layer metrics instead of the
end-to-end ones.  The last line of standard output is the JSON result; a
readable report goes to standard error.  The exit code is 0 when every operation
passed, 1 when any failed, 2 on bad arguments or a checkout without the
library.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"

PROCESSES = 3
PROCESS_SLACK_S = 40       # beyond its share of time, before a process is killed
P90_MIN_OPS = 100
REF_MASKS = tuple(range(1, 65))
REF_ITERS = 500            # outer iterations of one reference slice
REF_NOMINAL_NS = 5_000_000  # a reference slice's time at the reference speed
REF_SHARE = 0.05           # reference slice time per op time
REF_WINDOW_S = 1.0         # reference slices this close to an op set its speed
LIBRARY = ("exterior", "linalg", "surface", "homology", "dividing", "contact",
           "models", "gluing", "disks", "axioms", "cli")

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("peak_rss_mib", "MiB"))

RESPECT_P50 = tuple(f"gluing.check_respect.p50_ms.{ring}.L{L}"
                    for ring in ("z", "f2") for L in (8, 9, 10, 11))
REALIZE_P50 = tuple(f"contact.realize.p50_ms.n{n}" for n in (8, 16, 24))

PER_LAYER = (
    ("linalg.self_s", "s"), ("linalg.smith_normal_form.calls", "count"),
    ("linalg.smith_normal_form.cells", "count"), ("linalg.solve_z.cells", "count"),
    ("linalg.f2_solve.cells", "count"), ("linalg.solve.max_dim", "count"),
    ("exterior.self_s", "s"), ("exterior.wedge.calls", "count"),
    ("exterior.wedge.terms_out", "count"), ("exterior.induced_map.calls", "count"),
    ("exterior.interior.calls", "count"),
    ("surface.self_s", "s"), ("surface.Surface.new", "count"),
    ("surface.Surface.halfedges_new", "count"), ("surface.reads.calls", "count"),
    ("surface.point_queries", "count"), ("surface.validate_surface.calls", "count"),
    ("homology.self_s", "s"), ("homology.RelativeH1.new", "count"),
    ("homology.RelativeH1.halfedges", "count"), ("homology.induced_matrix.calls", "count"),
    ("dividing.self_s", "s"), ("dividing.DividingSet.new", "count"),
    ("dividing.regions.calls", "count"), ("dividing.chord_to_dividing_set.calls", "count"),
    ("contact.self_s", "s"), ("contact.contact_element.calls", "count"),
    ("contact.contact_element.terms_out", "count"),
    *((name, "ms") for name in REALIZE_P50),
    ("models.self_s", "s"), ("models.disk_model.calls", "count"),
    ("gluing.self_s", "s"), ("gluing.glue.calls", "count"),
    ("gluing.gluing_morphism.calls", "count"), ("gluing.gluing_violations.calls", "count"),
    ("gluing.gluing_violations.accept_ratio", "ratio"),
    ("gluing.quadrangulate.cuts", "count"),
    *((name, "ms") for name in RESPECT_P50),
    ("disks.self_s", "s"), ("disks.disk_contact_element.calls", "count"),
    ("disks.solid_torus_tight.calls", "count"),
    ("axioms.self_s", "s"), ("axioms.run_axiom_suite.s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    help="axiom_suite, gluing_rank, chord_disks, surface_build or all")
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the library's default seed)")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measured time per workload, shared by the processes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced pass")
    ap.add_argument("--process", type=int, default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def set_up(name: str, seed: int):
    """Import the library and build the inputs; return them and the time.

    Runs first thing in a fresh measuring process, so the import is paid
    here in full.
    """
    t0 = time.perf_counter()
    for mod in LIBRARY:
        importlib.import_module(f"sutured_tqft.{mod}")
    workloads = importlib.import_module("workloads")
    rounds = workloads.build(name, seed)
    return workloads, rounds, time.perf_counter() - t0


def run_op(op, check: bool):
    """Time one call; return (ns, output form, error or None)."""
    t0 = time.perf_counter_ns()
    try:
        out = op.run()
    except Exception as exc:  # one bad operation must not end the run
        return time.perf_counter_ns() - t0, None, f"raised {type(exc).__name__}: {exc}"
    ns = time.perf_counter_ns() - t0
    try:
        form = op.form(out)
        if check and not op.check(out):
            return ns, form, "oracle mismatch"
    except Exception as exc:
        return ns, None, f"oracle raised {type(exc).__name__}: {exc}"
    return ns, form, None


def fingerprint(form) -> str:
    blob = json.dumps(form, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def reference_work(n: int = REF_ITERS) -> int:
    """Fixed pure-Python work like the library's inner loops: build a
    fresh dict from bit masks to integer coefficients, the way a sparse
    exterior product does.  No library code runs here."""
    out: dict[int, int] = {}
    for i in range(n):
        shift = i * 131
        for k in REF_MASKS:
            m = (k ^ shift) & 0xFFFF
            if not m & k:
                out[m | k] = out.get(m | k, 0) + k * (i + 1)
    return len(out)


class SpeedTrace:
    """The host's speed over a run, from reference slices between ops.

    A shared host runs this interpreter faster or slower by 20% and more
    for seconds at a time.  A fixed slice of dict-building work slows down
    with the operations nearly in step; loops of big-integer arithmetic
    or over small tables swung about twice as much as the operations
    did.  So between ops the measuring loop times ``reference_work``
    slices, ``REF_SHARE`` of the op time in all (one slice after every
    hundred 1-ms ops, forty after a 4-s op), and each op's time is scaled
    by ``REF_NOMINAL_NS`` over the median slice time near the op (within
    ``REF_WINDOW_S``, or the op's length if longer): the time the op would take on a host that
    runs one slice in exactly ``REF_NOMINAL_NS``.  The slices are not
    counted as op time.
    """

    def __init__(self):
        self.at: list[float] = []
        self.ns: list[int] = []
        self.owed = 0.0
        for _ in range(3):  # warm up
            reference_work()
        for _ in range(5):
            self.sample()

    def sample(self) -> int:
        t0 = time.perf_counter_ns()
        reference_work()
        self.ns.append(time.perf_counter_ns() - t0)
        self.at.append(time.perf_counter())
        return self.ns[-1]

    def after_op(self, op_ns: int) -> None:
        """Run slices until they add up to ``REF_SHARE`` of the op time
        since the last slice."""
        self.owed += REF_SHARE * op_ns
        while self.owed > 0:
            self.owed -= self.sample()

    def scale(self, start: float, end: float) -> float:
        """Reference over measured speed around the interval [start, end],
        widened by the interval's own length for an op that outlasts
        ``REF_WINDOW_S``, so its estimate draws on more than the slices
        right before and after it."""
        pad = max(REF_WINDOW_S, end - start)
        lo = bisect.bisect_left(self.at, start - pad)
        hi = bisect.bisect_right(self.at, end + pad)
        near = self.ns[lo:hi] or self.ns
        return REF_NOMINAL_NS / statistics.median(near)


class Tally:
    """Latencies, failures and output fingerprints of one process.

    ``raw_ns`` are the measured op times; ``ns`` and ``by_label`` are at
    the reference speed (``finish``).
    """

    def __init__(self):
        self.raw_ns: list[int] = []
        self.starts: list[float] = []
        self.labels: list[str] = []
        self.rounds = 0
        self.ns: list[float] = []
        self.by_label: dict[str, list[float]] = defaultdict(list)
        self.ref_ns: list[int] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.forms: dict[str, str] = {}     # "round,op" -> output fingerprint

    def record(self, r: int, j: int, op, result) -> int:
        ns, form, err = result
        self.attempted += 1
        where = f"{r},{j}"
        if err is None:
            form = fingerprint(form)
            if self.forms.get(where, form) != form:
                err = "output differs from an earlier run of the same input"
        if err is not None:
            self.failures.append(f"{op.label} [{op.key}]: {err}")
        else:
            self.forms.setdefault(where, form)
        return ns

    def finish(self, speed: SpeedTrace) -> None:
        """Scale the op times to the reference speed and group them."""
        self.ref_ns = speed.ns
        self.ns = [ns * speed.scale(t, t + ns / 1e9)
                   for t, ns in zip(self.starts, self.raw_ns)]
        for label, ns in zip(self.labels, self.ns):
            self.by_label[label].append(ns)


def measure(rounds, seconds: float, min_rounds: int, start: int = 0):
    """Untraced loop over the rounds from round ``start`` on, wrapping
    around; returns the tally and the op time of the first ``min_rounds``
    rounds (the traced pass repeats those)."""
    tally = Tally()
    speed = SpeedTrace()
    head_ns = 0
    t_start = time.perf_counter()
    i = 0
    while i < min_rounds or time.perf_counter() - t_start < seconds:
        r = (start + i) % len(rounds)
        for j, op in enumerate(rounds[r]):
            tally.starts.append(time.perf_counter())
            ns = tally.record(r, j, op, run_op(op, check=True))
            speed.after_op(ns)
            tally.raw_ns.append(ns)
            tally.labels.append(op.label)
            if i < min_rounds:
                head_ns += ns
        tally.rounds += 1
        i += 1
    tally.finish(speed)
    return tally, head_ns


def traced_pass(rounds, tally: Tally):
    """Run the first rounds again under the tracer; outputs must match."""
    tr = tracer.Tracer()
    tr.install()
    busy = 0
    try:
        for r, ops in enumerate(rounds):
            for j, op in enumerate(ops):
                busy += tally.record(r, j, op, run_op(op, check=False))
    finally:
        tr.uninstall()
    return tr, busy


def digest(rounds, forms: dict[str, str]) -> str:
    return fingerprint([[op.label, op.key, forms.get(f"{r},{j}")]
                        for r, ops in enumerate(rounds) for j, op in enumerate(ops)])


def part_of(tally: Tally, setup_s: float) -> dict:
    """What one measuring process hands back to the run."""
    return {"setup_s": setup_s, "ns": tally.ns, "raw_ns": tally.raw_ns,
            "rounds": tally.rounds, "ref_ns": tally.ref_ns,
            "by_label": tally.by_label, "attempted": tally.attempted,
            "failures": tally.failures, "forms": tally.forms,
            "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def measure_process(name: str, seed: int, seconds: float, trace: bool,
                    index: int) -> dict:
    """The work of one measuring process.  Process 0 starts at round 0,
    always covers the digest rounds and runs the traced pass; the others
    start further on, so the processes between them see more inputs."""
    workloads, rounds, setup_s = set_up(name, seed)
    spec = workloads.WORKLOADS[name]
    head = rounds[:spec.trace_rounds]
    # the inputs live for the whole process: keep the collector off them
    gc.collect()
    gc.freeze()
    first = index == 0
    tally, head_ns = measure(rounds, seconds, len(head) if first else 1,
                             start=index * len(rounds) // PROCESSES)
    extra = {}
    if first:
        extra["digest"] = digest(head, tally.forms)
    if trace:
        tr, traced_ns = traced_pass(head, tally)
        layers = tracer.layer_metrics(tr.totals())
        tr.write(OUT / f"trace-{name}-seed{seed}.json",
                 {"workload": name, "seed": seed, "metrics": layers})
        extra.update(layers=layers, overhead=traced_ns / head_ns, missing=tr.missing)
    return {**part_of(tally, setup_s), **extra}


def pin_to_one_cpu() -> None:
    """Keep this process, and the thread pool ``run_axiom_suite`` starts,
    on one CPU.  With its two threads on two vCPUs, ``axiom_suite`` read
    0.21-0.25 ops/s at the reference speed and with both on one vCPU
    0.25-0.27, over the same five seeds in alternating runs: each handoff
    of the interpreter lock between CPUs waits on the host, which the
    reference slices, run on one thread, do not see."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def spawn(name: str, seed: int, seconds: float, trace: bool, index: int) -> dict:
    """Run ``measure_process`` in a fresh interpreter and wait for it."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace)),
           "--process", str(index)]
    limit = seconds + PROCESS_SLACK_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        return {"error": f"process {index} timed out after {limit:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except json.JSONDecodeError:
        pass
    return {"error": f"process {index} exited with code {proc.returncode} and no result"}


def rate(ns) -> float:
    """Ops per second of op time."""
    return len(ns) / (sum(ns) / 1e9) if ns else 0.0


def median_ms(samples) -> float:
    return statistics.median(samples) / 1e6 if samples else 0.0


def report(name: str, seed: int, parts: list[dict], trace: bool, want) -> int:
    """Pool the processes' parts, print the result line, return the exit code."""
    failures = [p["error"] for p in parts if "error" in p]
    parts = [p for p in parts if "error" not in p]
    attempted = sum(p["attempted"] for p in parts)
    for p in parts:
        failures += p["failures"]
    seen: dict[str, str] = {}
    for p in parts:
        for where, form in p["forms"].items():
            if seen.setdefault(where, form) != form:
                failures.append(f"round,op {where}: output differs between processes")
    run_digest = next((p["digest"] for p in parts if "digest" in p), None)
    traced = next((p for p in parts if "layers" in p), None)
    if want is not None and run_digest != want:
        failures.append(f"digest {run_digest} != recorded {want}")

    ns = [x for p in parts for x in p["ns"]]
    by_label = defaultdict(list)
    for p in parts:
        for label, xs in p["by_label"].items():
            by_label[label] += xs
    if not parts or (trace and traced is None):
        metrics = {}
    elif trace:
        metrics = dict(traced["layers"])
        for key in RESPECT_P50:  # op labels are "<ring>.L<rank>"
            metrics[key] = median_ms(by_label[".".join(key.split(".")[-2:])])
        for key in REALIZE_P50:  # op labels are "realize.n<chords>"
            metrics[key] = median_ms(by_label["realize." + key.split(".")[-1]])
        metrics["axioms.run_axiom_suite.s"] = median_ms(by_label["suite"]) / 1e3
        metrics["trace.overhead_ratio"] = traced["overhead"]
        log(f"# trace: {tracer.NOTE}")
        if traced["missing"]:
            log(f"# trace: not found in the library: {', '.join(traced['missing'])}")
    else:
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in parts),
            "ops_per_s": rate(ns),
            "op_p50_ms": median_ms(ns),
            "peak_rss_mib": max(p["rss_kib"] for p in parts) / 1024,
        }

    failed = len(failures)
    setups = ", ".join(f"{p['setup_s']:.3f}" for p in parts)
    log(f"# {name} seed={seed}: {len(ns)} ops in "
        f"{sum(p['rounds'] for p in parts)} rounds over {len(parts)} processes; "
        f"setup {setups} s")
    if not trace and parts:
        raw_ns = [x for p in parts for x in p["raw_ns"]]
        ref_ns = [x for p in parts for x in p["ref_ns"]]
        log(f"#   unscaled: ops_per_s = {rate(raw_ns):.6g} 1/s, "
            f"op_p50_ms = {median_ms(raw_ns):.6g} ms; host speed "
            f"{REF_NOMINAL_NS / statistics.median(ref_ns):.3f} of the reference "
            f"(median of {len(ref_ns)} slices)")
    if not trace and len(ns) >= P90_MIN_OPS:
        log(f"#   op_p90_ms = {statistics.quantiles(ns, n=10)[8] / 1e6:.3f} ms "
            f"(over {len(ns)} ops)")
    log(f"#   failed_frac = {failed / max(attempted, 1):.4f} "
        f"({failed} of {attempted}); digest {run_digest}")
    for fail in failures[:10]:
        log(f"#   FAILED {fail}")
    result = {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in (PER_LAYER if trace else END_TO_END) if k in metrics},
    }
    for key, m in result["metrics"].items():
        log(f"#   {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def run_workload(name: str, seed: int, seconds: float, trace: bool, workloads) -> int:
    share = seconds / PROCESSES
    parts = [spawn(name, seed, share, trace and k == 0, k) for k in range(PROCESSES)]
    want = None
    if seed == workloads.DEFAULT_SEED and DIGESTS.is_file():
        want = json.loads(DIGESTS.read_text()).get(name)
    return report(name, seed, parts, trace, want)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sutured_tqft" / "surface.py").is_file():
        log(f"error: no library sources at {SRC / 'sutured_tqft'}")
        return 2
    sys.path.insert(0, str(SRC))
    if args.process is not None:
        pin_to_one_cpu()
        part = measure_process(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.process)
        print(json.dumps(part))
        return 0
    workloads = importlib.import_module("workloads")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown or args.seconds <= 0:
        log(f"error: unknown workload {unknown[0]!r}" if unknown
            else "error: --seconds must be positive")
        return 2
    lib = Path(sys.modules["sutured_tqft.surface"].__file__).resolve()
    if SRC.resolve() not in lib.parents:
        log(f"error: imported the library from {lib}, not from {SRC}")
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    return max(run_workload(n, seed, args.seconds, bool(args.trace), workloads)
               for n in names)


if __name__ == "__main__":
    sys.exit(main())
