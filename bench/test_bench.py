"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""
from __future__ import annotations

import collections
import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def disk_round():
    return workloads.build("chord_disks", 3)[0]


def _broken(op, **change):
    return dataclasses.replace(op, **change)


def _raise():
    raise RuntimeError("forced")


def test_forced_oracle_mismatch_is_counted(disk_round):
    ops = list(disk_round)
    ops[4] = _broken(ops[4], check=lambda out: False)
    ops[7] = _broken(ops[7], run=_raise)
    tally, _ = run.measure([ops], seconds=0, min_rounds=1)
    assert tally.attempted == len(ops)
    assert len(tally.failures) == 2
    assert "oracle mismatch" in tally.failures[0]
    assert "RuntimeError" in tally.failures[1]


def test_changed_output_on_a_later_pass_is_counted(disk_round):
    flips = iter([True, False])
    op = _broken(disk_round[0], form=lambda out: next(flips))
    tally, _ = run.measure([[op]], seconds=0, min_rounds=2)
    assert tally.attempted == 2 and len(tally.failures) == 1


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_failed_run_reports_and_exits_nonzero(disk_round, capsys):
    ops = [_broken(disk_round[0], check=lambda out: False)] + list(disk_round[1:])
    tally, _ = run.measure([ops], seconds=0, min_rounds=1)
    code = run.report("chord_disks", 3, [run.part_of(tally, 0.1)], trace=False, want=None)
    result = _result(capsys)
    assert code == 1 and result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == len(ops)


def test_outputs_must_agree_between_processes_and_with_the_digest(disk_round, capsys):
    tally, _ = run.measure([disk_round], seconds=0, min_rounds=1)
    part = run.part_of(tally, 0.1)
    other = json.loads(json.dumps(part))
    other["forms"]["0,3"] = "0" * 16
    assert run.report("chord_disks", 3, [part, other], trace=False, want=None) == 1
    assert _result(capsys)["failed"] == 1
    part["digest"] = "1" * 16
    assert run.report("chord_disks", 3, [part], trace=False, want="2" * 16) == 1
    assert _result(capsys)["failed"] == 1


def test_a_short_run_passes_and_prints_every_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "chord_disks", "--seed", "2",
         "--seconds", "1.5", "--trace", "0"],
        capture_output=True, text=True, timeout=120)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 0 and result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert ([(w["name"], w["why"]) for w in spec["workloads"]]
            == [(w.name, w.why) for w in workloads.WORKLOADS.values()])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    produced = set(tracer.layer_metrics(tracer.Tracer().totals()))
    produced |= {*run.RESPECT_P50, *run.REALIZE_P50, "axioms.run_axiom_suite.s",
                 "trace.overhead_ratio"}
    assert produced == {name for name, _ in run.PER_LAYER}


def test_op_times_are_scaled_by_the_nearby_reference_slices():
    speed = run.SpeedTrace()
    speed.at = [0.0, 0.1, 10.0, 10.1]
    speed.ns = [run.REF_NOMINAL_NS, run.REF_NOMINAL_NS, 2 * run.REF_NOMINAL_NS,
                2 * run.REF_NOMINAL_NS]
    assert speed.scale(0.05, 0.06) == 1.0
    assert speed.scale(10.05, 10.06) == 0.5   # a host at half speed
    assert speed.scale(5.0, 5.1) == 2 / 3     # no slice near: all of them


def test_random_diagrams_are_uniform():
    rng = random.Random(11)
    seen = collections.Counter(gen.random_diagram(rng, 3).render() for _ in range(5000))
    assert len(seen) == 5  # Catalan(3)
    assert all(800 < c < 1200 for c in seen.values())


def test_inputs_repeat_for_a_seed():
    a = workloads.build("surface_build", 5)
    b = workloads.build("surface_build", 5)
    assert [op.key for r in a for op in r] == [op.key for r in b for op in r]


def _traced_counts(ops):
    tr = tracer.Tracer()
    tr.install()
    try:
        forms = [op.form(op.run()) for op in ops]
    finally:
        tr.uninstall()
    counts = {k: v for k, v in tracer.layer_metrics(tr.totals()).items()
              if not k.endswith("self_s")}
    return forms, counts


def test_traced_counts_repeat_and_uninstall_restores(disk_round):
    from sutured_tqft import disks, surface

    before = (disks.disk_contact_element, surface.Surface.face_of)
    first = _traced_counts(disk_round)
    assert (disks.disk_contact_element, surface.Surface.face_of) == before
    assert first == _traced_counts(disk_round)
    assert first[1]["disks.disk_contact_element.calls"] > 0


def test_checkout_without_library_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chord_disks", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
