"""End-to-end tests of the command-line interface via run(argv)."""

import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from sutured_tqft.axioms import _suture_corner_sites
from sutured_tqft.cli import ENUMERATE_MAX_N, main, run
from sutured_tqft.contact import render_multivector
from sutured_tqft.disks import disk_contact_element, rotate_diagram
from sutured_tqft.dividing import (ChordDiagram, DividingSet, add_trivial_circle,
                                   catalan, chord_to_dividing_set,
                                   enumerate_chord_diagrams)
from sutured_tqft.errors import (InvalidDividingSetError, InvalidSurfaceError,
                                 UnsupportedSurfaceError)
from sutured_tqft.gluing import Gluing
from sutured_tqft.models import disk_model
from sutured_tqft.surface import Surface, disjoint_union, standard_disk


SRC = str(Path(__file__).resolve().parents[1] / "src")


def capture(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


# -- goldens ---------------------------------------------------------------

def test_contact_outermost_f2():
    code, text = capture(["contact", "--ring", "f2", "--diagram", "1-2,3-4"])
    assert code == 0
    assert text == "1\n"


def test_contact_nested_z():
    code, text = capture(["contact", "--diagram", "1-4,2-3"])
    assert code == 0
    assert text == "b1\n"


def test_contact_beyond_rank_64():
    # 80 outermost chords: rank 79, a single-term element
    render = ",".join(f"{2 * i + 1}-{2 * i + 2}" for i in range(80))
    code, text = capture(["contact", "--diagram", render])
    assert code == 0
    assert text == "1\n"


def test_enumerate_count_only():
    code, text = capture(["enumerate", "3", "--count-only"])
    assert code == 0
    assert text == "5\n"


def test_enumerate_lists_sorted_with_elements():
    code, text = capture(["enumerate", "2"])
    assert code == 0
    lines = text.splitlines()
    assert lines == sorted(lines)
    table = dict(line.split("\t") for line in lines)
    assert table == {"1-2,3-4": "1", "1-4,2-3": "b1"}


def _catalan_by_recurrence(n):
    c = [1]
    for m in range(n):
        c.append(sum(c[i] * c[m - i] for i in range(m + 1)))
    return c[n]


def test_enumerate_catalan_counts():
    assert [_catalan_by_recurrence(n) for n in (1, 2, 4)] == [1, 2, 14]
    for n in range(1, 21):
        code, text = capture(["enumerate", str(n), "--count-only"])
        assert code == 0 and text == f"{_catalan_by_recurrence(n)}\n"


def test_enumerate_streams_the_sorted_lines(monkeypatch):
    # the lines are the sorted table of every diagram with its element
    for n in range(1, 7):
        for ring in ("z", "f2"):
            labels = disk_model(n).labels_plus if n >= 2 else None
            table = [f"{cd.render()}\t"
                     f"{render_multivector(disk_contact_element(cd, ring).value, labels)}"
                     for cd in enumerate_chord_diagrams(n)]
            assert capture(["enumerate", str(n), "--ring", ring]) == (
                0, "".join(f"{line}\n" for line in sorted(table)))
    # and each prints as it is found: when the first write fails, one
    # element has been computed, not all 42
    calls, seen = [], []

    def counted(cd, ring):
        calls.append(cd)
        return disk_contact_element(cd, ring)

    class Closed(io.StringIO):
        def write(self, text):
            seen.append(len(calls))
            raise BrokenPipeError("output closed")

    monkeypatch.setattr("sutured_tqft.cli.disk_contact_element", counted)
    assert run(["enumerate", "5"], out=Closed()) == 2
    assert seen == [1]


# -- match -----------------------------------------------------------------

def test_match_verdicts_and_exit():
    code, text = capture(["match", "1-2,3-4", "1-4,2-3"])
    assert code == 0
    assert text.splitlines() == ["# closed curves: 1", "oracle true", "wedge true"]

    code, text = capture(["match", "1-2,3-4", "1-2,3-4"])
    assert code == 1
    assert text.splitlines() == ["# closed curves: 2", "oracle false", "wedge false"]


def test_match_ring_choice_does_not_change_verdict():
    for ring in ("f2", "z"):
        code, _ = capture(["match", "--ring", ring, "1-6,2-3,4-5", "1-2,3-6,4-5"])
        assert code in (0, 1)
        code2, _ = capture(["match", "1-6,2-3,4-5", "1-2,3-6,4-5"])
        assert code == code2


# -- torus -----------------------------------------------------------------

def test_torus_tight_meridian():
    code, text = capture(["torus", "1-2", "--n", "1", "--p", "1", "--q", "1"])
    assert code == 0
    assert text.splitlines() == ["pairing 1", "tight true"]


def test_torus_overtwisted_exit_one():
    code, text = capture(["torus", "1-2,3-6,4-5", "--n", "1", "--p", "1",
                          "--q", "3"])
    assert code == 1
    assert text.splitlines() == ["pairing 0", "tight false"]

    code, text = capture(["torus", "1-6,2-3,4-5", "--n", "1", "--p", "1",
                          "--q", "3"])
    assert code == 0
    assert text.splitlines() == ["pairing 1", "tight true"]


def test_torus_invalid_parameters():
    code, _ = capture(["torus", "1-2,3-4", "--n", "1", "--p", "2", "--q", "2"])
    assert code == 2  # gcd(p, q) != 1


def test_torus_base_point_rotates_before_testing():
    plain = capture(["torus", "1-2,3-6,4-5", "--n", "1", "--p", "1", "--q", "3"])
    based = capture(["torus", "1-2,3-6,4-5", "--n", "1", "--p", "1", "--q", "3",
                     "--base", "0"])
    assert based == plain
    # re-basing by two sutures tests the rotated diagram instead
    rotated = capture(["torus", "1-6,2-5,3-4", "--n", "1", "--p", "1",
                       "--q", "3"])
    moved = capture(["torus", "1-2,3-6,4-5", "--n", "1", "--p", "1", "--q", "3",
                     "--base", "2"])
    assert moved == rotated


# -- bypass ----------------------------------------------------------------

def test_bypass_triple_lines():
    code, text = capture(["bypass", "1-2,3-6,4-5", "--site", "2"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "1-2,3-6,4-5"
    assert set(lines[1:3]) == {"1-4,2-3,5-6", "1-6,2-5,3-4"}
    assert lines[3] == "# f2 sum zero: true"


def test_bypass_invalid_site():
    code, _ = capture(["bypass", "1-2,3-6,4-5", "--site", "1"])
    assert code == 2


# -- glue and decompose ----------------------------------------------------

@pytest.fixture()
def disk3_files(tmp_path):
    s = standard_disk(3)
    tau = Gluing(s, *_suture_corner_sites(s, sutures=1)[0])
    surface = tmp_path / "surface.json"
    gluing = tmp_path / "gluing.json"
    surface.write_text(json.dumps(s.to_json_dict()))
    gluing.write_text(json.dumps(tau.to_json_dict()))
    return str(surface), str(gluing)


def test_glue_emits_reparsable_json(disk3_files):
    surface, gluing = disk3_files
    code, text = capture(["glue", "--surface", surface, "--gluing", gluing])
    assert code == 0
    obj = json.loads(text)
    glued = Surface.from_json_dict(obj["surface"])
    assert glued.to_json_dict() == obj["surface"]
    assert obj["swallowed"] == []
    # a one-suture self-gluing keeps the rank and inverts
    assert len(obj["matrix"]) == 2 and len(obj["matrix"][0]) == 2


def test_glue_ring_agreement(disk3_files):
    surface, gluing = disk3_files
    _, tz = capture(["glue", "--surface", surface, "--gluing", gluing,
                     "--ring", "z"])
    _, tf = capture(["glue", "--surface", surface, "--gluing", gluing,
                     "--ring", "f2"])
    mz = json.loads(tz)["matrix"]
    mf = json.loads(tf)["matrix"]
    assert [[c % 2 for c in row] for row in mz] == mf


def test_decompose_round_trip(disk3_files):
    surface, _ = disk3_files
    code, text = capture(["decompose", "--surface", surface])
    assert code == 0
    obj = json.loads(text)
    refined = Surface.from_json_dict(obj["refined"])
    pieces = Surface.from_json_dict(obj["pieces"])
    assert refined.to_json_dict() == obj["refined"]
    assert len(pieces.faces) == 2  # L = 2 squares for the three-suture disk
    # the reverse gluing is hosted on the pieces and reassembles them
    g = Gluing.from_json_dict(pieces, obj["reverse"])
    assert g.to_json_dict() == obj["reverse"]


def test_contact_from_dividing_set_stdin(monkeypatch):
    ds = chord_to_dividing_set(ChordDiagram.parse("1-4,2-3"))
    payload = json.dumps(ds.to_json_dict())
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, text = capture(["contact", "--ring", "f2", "--input", "-"])
    assert code == 0
    assert text == "e1\n"


# -- axioms ----------------------------------------------------------------

def test_axioms_json_lines():
    code, text = capture(["axioms", "--seed", "11", "--max-n", "3",
                          "--gluing-samples", "2"])
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 8
    for line in lines:
        obj = json.loads(line)
        assert obj["verdict"] is True
        assert json.dumps(obj, sort_keys=True) == line
        assert obj["axiom"] in range(1, 6)


def test_axioms_requires_seed(capsys):
    code, _ = capture(["axioms"])
    assert code == 2
    capsys.readouterr()


def test_axioms_rejects_hosts_without_sites(capsys):
    # two-chord surfaces have no self-gluing sites, so the corpus cannot
    # be drawn and the command reports malformed input
    code, _ = capture(["axioms", "--seed", "11", "--max-n", "2",
                       "--gluing-samples", "2"])
    assert code == 2
    capsys.readouterr()


# -- failure handling ------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["contact", "--diagram", "1-2,3"],
    ["contact", "--diagram", "1-2,3-x"],
    ["contact", "--diagram", "1-3,2-4"],
    ["enumerate"],
    ["match", "1-2", "nope"],
    ["frobnicate"],
    [],
])
def test_malformed_inputs_exit_two(argv, capsys):
    code, _ = capture(argv)
    assert code == 2
    capsys.readouterr()


def _assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_contact_on_unmarked_complex_exits_two(tmp_path, capsys):
    data = chord_to_dividing_set(ChordDiagram.parse("1-4,2-3")).to_json_dict()
    data["marks"] = {k: [] for k in data["marks"]}
    p = tmp_path / "unmarked.json"
    p.write_text(json.dumps(data))
    code, _ = capture(["contact", "--input", str(p)])
    assert code == 2
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("n", ["0", "-3"])
def test_enumerate_without_chords_exits_two(n, capsys):
    for extra in ([], ["--count-only"]):
        code, text = capture(["enumerate", n, *extra])
        assert (code, text) == (2, "")
        _assert_one_line_error(capsys)


def test_axioms_with_two_chord_disks_fails_fast(capsys):
    start = time.perf_counter()
    code, text = capture(["axioms", "--seed", "1", "--max-n", "2"])
    assert time.perf_counter() - start < 1.0
    assert (code, text) == (2, "")
    _assert_one_line_error(capsys)


def test_axioms_with_one_suture_disks_only_exits_two(capsys):
    code, text = capture(["axioms", "--seed", "1", "--max-n", "1"])
    assert (code, text) == (2, "")
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    ["--gluing-samples", "-1"],
    ["--max-n", "-5", "--gluing-samples", "0"],
    ["--max-n", "0", "--gluing-samples", "0"],
])
def test_axioms_out_of_range_sizes_exit_two(argv, capsys):
    code, text = capture(["axioms", "--seed", "1", *argv])
    assert (code, text) == (2, "")
    _assert_one_line_error(capsys)


def test_missing_file_exits_two(tmp_path, capsys):
    code, _ = capture(["contact", "--input", str(tmp_path / "absent.json")])
    assert code == 2
    capsys.readouterr()


def test_bad_json_file_exits_two(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, _ = capture(["contact", "--input", str(p)])
    assert code == 2
    capsys.readouterr()


def test_main_raises_system_exit(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["sutured-tqft", "enumerate", "3",
                                     "--count-only"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    assert capsys.readouterr().out == "5\n"


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


def _replace_signs(d, old, new):
    return {**d, "signs": {f: new if v == old else v for f, v in d["signs"].items()}}


# Each mutation turns valid JSON into one with a missing key, a value of
# the wrong type, or a sign other than "+" / "-".
@pytest.mark.parametrize("mutate", [
    lambda d: _without(d, "signs"),
    lambda d: _without(d, "K"),
    lambda d: {**d, "K": 5},
    lambda d: {**d, "K": [str(h) for h in d["K"]]},
    lambda d: {**d, "signs": list(d["signs"].values())},
    lambda d: {**d, "signs": {"f" + f: v for f, v in d["signs"].items()}},
    lambda d: _replace_signs(d, "-", "x"),
    lambda d: _replace_signs(d, "-", -1),
    lambda d: {**d, "marks": []},
], ids=["no-signs", "no-K", "K-int", "K-strings", "signs-list", "face-ids",
        "sign-x", "sign-int", "marks-list"])
def test_contact_input_loader_rejects_bad_json(mutate, tmp_path, capsys):
    data = chord_to_dividing_set(ChordDiagram.parse("1-4,2-3")).to_json_dict()
    p = tmp_path / "ds.json"
    p.write_text(json.dumps(mutate(data)))
    code, text = capture(["contact", "--input", str(p)])
    assert (code, text) == (2, "")
    _assert_one_line_error(capsys)


def _set_halfedge(d, key, value):
    recs = [dict(r) for r in d["halfedges"]]
    recs[0][key] = value
    return {**d, "halfedges": recs}


# Surface ids must be integers proper: a float, a bool or a string is
# refused, never truncated, and a malformed "vertices" is a typed error.
@pytest.mark.parametrize("mutate", [
    lambda d: _set_halfedge(d, "id", d["halfedges"][0]["id"] + 0.5),
    lambda d: _set_halfedge(d, "id", float(d["halfedges"][0]["id"])),
    lambda d: _set_halfedge(d, "twin", str(d["halfedges"][0]["twin"])),
    lambda d: _set_halfedge(d, "head", True),
    lambda d: {**d, "faces": [[float(h) for h in w] for w in d["faces"]]},
    lambda d: {**d, "marks": {**d["marks"], "F_plus": [0.5]}},
    lambda d: {**d, "vertices": 5},
    lambda d: {**d, "vertices": ["x"]},
    lambda d: {**d, "vertices": [v + 0.5 for v in d["vertices"]]},
], ids=["id-half", "id-float", "twin-string", "head-bool", "face-floats",
        "mark-float", "vertices-int", "vertices-strings", "vertices-floats"])
def test_surface_loader_rejects_non_integer_ids(mutate, tmp_path, capsys):
    data = chord_to_dividing_set(ChordDiagram.parse("1-2,3-6,4-5")).to_json_dict()
    p = tmp_path / "ds.json"
    p.write_text(json.dumps(mutate(data)))
    code, text = capture(["contact", "--input", str(p)])
    assert (code, text) == (2, "")
    _assert_one_line_error(capsys)


def test_surface_loader_still_reads_integer_ids(tmp_path):
    data = chord_to_dividing_set(ChordDiagram.parse("1-2,3-6,4-5")).to_json_dict()
    p = tmp_path / "ds.json"
    p.write_text(json.dumps(data))
    assert capture(["contact", "--ring", "f2", "--input", str(p)]) == (0, "e2\n")


@pytest.mark.parametrize("mutate", [
    lambda d: _without(d, "gamma"),
    lambda d: {**d, "gamma": 0},
    lambda d: {**d, "gamma": [float(h) for h in d["gamma"]]},
    lambda d: {**d, "vertex_map": {"a": 1}},
    lambda d: {**d, "vertex_map": [1, 2]},
    lambda d: {**d, "vertex_map": {a: b + 0.5 for a, b in d["vertex_map"].items()}},
    lambda d: {**d, "vertex_map": {a: float(b) for a, b in d["vertex_map"].items()}},
    lambda d: {**d, "vertex_map": {a: str(b) for a, b in d["vertex_map"].items()}},
    lambda d: [d["gamma"], d["gamma_prime"]],
], ids=["no-gamma", "gamma-int", "gamma-floats", "vertex-map-keys",
        "vertex-map-list", "vertex-map-halves", "vertex-map-floats",
        "vertex-map-strings", "not-an-object"])
def test_glue_loader_rejects_bad_json(mutate, disk3_files, tmp_path, capsys):
    surface, gluing = disk3_files
    p = tmp_path / "bad_gluing.json"
    p.write_text(json.dumps(mutate(json.loads(Path(gluing).read_text()))))
    code, text = capture(["glue", "--surface", surface, "--gluing", str(p)])
    assert (code, text) == (2, "")
    _assert_one_line_error(capsys)


def _disk3_beside_a_broken_disk():
    """The three-suture disk beside a one-suture disk whose F+ and F- are
    swapped, as JSON: the corner site of `disk3_files` welds only the
    first disk, so no weld touches the broken circle."""
    s, vmap, _ = disjoint_union(standard_disk(3), standard_disk(1))
    data = s.to_json_dict()
    f_plus, f_minus = vmap[0], vmap[2]
    data["marks"]["F_plus"] = sorted(set(data["marks"]["F_plus"]) - {f_plus} | {f_minus})
    data["marks"]["F_minus"] = sorted(set(data["marks"]["F_minus"]) - {f_minus} | {f_plus})
    return data


def test_loaded_surface_is_validated_in_full(disk3_files, tmp_path):
    _, gluing = disk3_files
    data = _disk3_beside_a_broken_disk()
    with pytest.raises(InvalidSurfaceError, match="marking pattern broken"):
        Surface.from_json_dict(data)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "sutured_tqft.cli", "glue", "--surface",
                           str(path), "--gluing", gluing], env=env, capture_output=True,
                          text=True, timeout=10)
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert "marking pattern broken" in done.stderr


def test_loaded_dividing_set_is_validated_in_full(tmp_path, capsys):
    # a trivial circle whose K edges are dropped from the JSON: its inner
    # face keeps the opposite sign across what are now plain edges
    base = chord_to_dividing_set(ChordDiagram.parse("1-2,3-6,4-5"))
    ds, _ = add_trivial_circle(base, 0)
    data = ds.to_json_dict()
    data["K"] = sorted(base.k_halfedges)
    with pytest.raises(InvalidDividingSetError) as err:
        DividingSet.from_json_dict(data)
    assert {m.rpartition(" ")[0] for m in str(err.value).split("; ")} == {
        "sign change across the plain edge"}
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(data))
    assert capture(["contact", "--input", str(path)]) == (2, "")
    _assert_one_line_error(capsys)


def test_loaded_surface_refuses_a_repeated_halfedge(tmp_path, capsys):
    # the standard disk with one record listed twice: 9 records, 8 halfedges
    data = standard_disk(1).to_json_dict()
    data["halfedges"].append(dict(data["halfedges"][3]))
    with pytest.raises(InvalidSurfaceError, match="halfedge 3 is listed twice"):
        Surface.from_json_dict(data)
    path = tmp_path / "disk.json"
    path.write_text(json.dumps(data))
    assert capture(["decompose", "--surface", str(path)]) == (2, "")
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("key, message", [
    ('"0"', "JSON object repeats key '0'"),
    ('"00"', "'signs' gives one face two signs"),
], ids=("same key", "two spellings"))
def test_repeated_face_sign_exits_two(tmp_path, capsys, key, message):
    # a second sign for face 0, which a plain load would drop unseen
    data = chord_to_dividing_set(ChordDiagram.parse("1-2,3-4")).to_json_dict()
    assert data["signs"]["0"] == "-"
    text = json.dumps(data).replace('"signs": {', f'"signs": {{{key}: "+", ', 1)
    path = tmp_path / "ds.json"
    path.write_text(text)
    assert capture(["contact", "--input", str(path)]) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unsupported_decompose_exits_two(disk3_files, monkeypatch, capsys):
    def refuse(s):
        raise UnsupportedSurfaceError("no genus-reducing cut found")

    monkeypatch.setattr("sutured_tqft.cli.quadrangulate", refuse)
    surface, _ = disk3_files
    code, text = capture(["decompose", "--surface", surface])
    assert (code, text) == (2, "")
    _assert_one_line_error(capsys)


def test_failed_invariant_exits_three(monkeypatch, capsys):
    monkeypatch.setattr("sutured_tqft.cli.matchable_via_wedge",
                        lambda a, b, ring: False)
    code, text = capture(["match", "1-2,3-4", "1-4,2-3"])
    assert code == 3
    assert text.splitlines()[1:] == ["oracle true", "wedge false"]
    err = capsys.readouterr().err
    assert err == "internal error: oracle and wedge criteria disagree\n"


_COUNT_30 = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from sutured_tqft.cli import run
raise SystemExit(run(["enumerate", "30", "--count-only"]))
"""


def test_enumerate_count_only_builds_no_diagram():
    # C(60, 30) / 31 diagrams would need far more than 1 GiB of address space
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _COUNT_30], env=env,
                          capture_output=True, text=True, timeout=10)
    assert (done.returncode, done.stdout, done.stderr) == (0, "3814986502092304\n", "")


_OVER_BUDGET = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from sutured_tqft.cli import run
# one positive region whose three consecutive-suture paths each pass over
# 128 betas: 128**3 = 2**21 terms, past the budget of 2**20
pairs = [(1, 770)]
for lo in (2, 258, 514):
    pairs.append((lo, lo + 255))
    pairs += [(p, p + 1) for p in range(lo + 1, lo + 254, 2)]
render = ",".join(f"{a}-{b}" for a, b in sorted(pairs))
raise SystemExit(run(["contact", "--ring", "f2", "--diagram", render]))
"""


def test_contact_over_the_term_budget_exits_two():
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", _OVER_BUDGET], env=env,
                          capture_output=True, text=True, timeout=10)
    assert time.perf_counter() - start < 2
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert "budget" in done.stderr


# a random 60-chord diagram: its F2 contact element exceeds the term budget
_BYPASS_60 = (
    "1-2,3-108,4-5,6-105,7-104,8-13,9-12,10-11,14-95,15-16,17-94,"
    "18-93,19-82,20-81,21-24,22-23,25-30,26-29,27-28,31-80,32-79,"
    "33-34,35-74,36-37,38-41,39-40,42-49,43-44,45-46,47-48,50-73,"
    "51-60,52-59,53-56,54-55,57-58,61-72,62-69,63-68,64-65,66-67,"
    "70-71,75-76,77-78,83-88,84-85,86-87,89-90,91-92,96-99,97-98,"
    "100-103,101-102,106-107,109-120,110-111,112-113,114-119,115-116,"
    "117-118")

_LIMITED_RUN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from sutured_tqft.cli import run
raise SystemExit(run(sys.argv[1:]))
"""


def test_bypass_over_the_term_budget_prints_nothing():
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", _LIMITED_RUN, "bypass", "--site", "2",
                           _BYPASS_60], env=env, capture_output=True, text=True, timeout=10)
    assert time.perf_counter() - start < 2
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert "budget" in done.stderr and "Traceback" not in done.stderr


def _limited_env():
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def test_deeply_nested_input_exits_two(tmp_path):
    # json.load recurses once per bracket and gives up with RecursionError
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", _LIMITED_RUN, "contact", "--input", str(path)],
                          env=_limited_env(), capture_output=True, text=True, timeout=10)
    assert time.perf_counter() - start < 2
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr == "error: input too big or too deeply nested (RecursionError)\n"


_BROKEN_RUN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import sutured_tqft.cli as cli

def broken(*args, **kwargs):
    raise KeyError(15)

cli.disk_contact_element = broken
raise SystemExit(cli.run(sys.argv[1:]))
"""


def test_unexpected_exception_exits_three():
    # a bug that raises something other than InternalConsistencyError is
    # still an internal error, never exit 1 ("verdict false") with a traceback
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", _BROKEN_RUN, "contact", "--diagram", "1-2,3-4"],
                          env=_limited_env(), capture_output=True, text=True, timeout=10)
    assert time.perf_counter() - start < 2
    assert (done.returncode, done.stdout, done.stderr) == (3, "", "internal error: KeyError(15)\n")


def test_axioms_over_the_square_family_budget_exits_two():
    # max_n 40 would check a square family of 2^39 members; the budget is
    # checked before any corpus is built
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", _LIMITED_RUN, "axioms", "--seed", "1",
                           "--max-n", "40"], env=env, capture_output=True, text=True,
                          timeout=10)
    assert time.perf_counter() - start < 2
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert "budget" in done.stderr and "Traceback" not in done.stderr


@pytest.mark.parametrize("argv", [
    ["enumerate", "7200", "--count-only"],
    ["enumerate", "1000000000", "--count-only"],
    ["axioms", "--seed", "1", "--gluing-samples", "1000000000"],
])
def test_sizes_past_their_bound_exit_two_before_any_work(argv):
    # a count of C(2N, N)/(N + 1) past 4,300 digits cannot be printed, and
    # a billion gluing samples would be drawn before the first check
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", _LIMITED_RUN, *argv], env=_limited_env(),
                          capture_output=True, text=True, timeout=10)
    assert time.perf_counter() - start < 1
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert "Traceback" not in done.stderr


def test_enumerate_counts_up_to_the_bound(capsys):
    code, text = capture(["enumerate", str(ENUMERATE_MAX_N), "--count-only"])
    assert (code, text) == (0, f"{catalan(ENUMERATE_MAX_N)}\n")
    assert len(text) == 4301
    code, text = capture(["enumerate", str(ENUMERATE_MAX_N + 1), "--count-only"])
    assert (code, text) == (2, "")
    _assert_one_line_error(capsys)


def test_a_lowered_digit_limit_refuses_the_count():
    # C(2400, 1200)/1201 has 718 digits: under the bound, but past a limit
    # of 640 set from outside; a count under it still prints
    env = {**_limited_env(), "PYTHONINTMAXSTRDIGITS": "640"}
    for n, want in ((1200, 2), (1000, 0)):
        done = subprocess.run([sys.executable, "-c", _LIMITED_RUN, "enumerate", str(n),
                               "--count-only"], env=env, capture_output=True, text=True,
                              timeout=10)
        assert done.returncode == want, done.stderr
        if want:
            assert done.stdout == ""
            assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
            assert "640" in done.stderr
        else:
            assert done.stdout == f"{catalan(n)}\n" and done.stderr == ""


def test_contact_input_over_the_term_budget_exits_two(tmp_path):
    # the dividing set of the 60-chord diagram: wedging its region classes
    # would pass the term budget, which is checked before each wedge step
    path = tmp_path / "k60.json"
    ds = chord_to_dividing_set(ChordDiagram.parse(_BYPASS_60))
    path.write_text(json.dumps(ds.to_json_dict()))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", _LIMITED_RUN, "contact", "--input",
                           str(path)], env=env, capture_output=True, text=True, timeout=10)
    assert time.perf_counter() - start < 2
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert "budget" in done.stderr and "Traceback" not in done.stderr


def _random_pairs(rng, first, n):
    """A random noncrossing matching of the 2n sutures from `first` on:
    `first` closes a chord around k others, and the rest follow it."""
    pairs = []
    while n:
        k = rng.randrange(n)
        pairs.append((first, first + 2 * k + 1))
        pairs += _random_pairs(rng, first + 1, k)
        first, n = first + 2 * k + 2, n - k - 1
    return pairs


_RUN_ARGV = "import sys; from sutured_tqft.cli import run; raise SystemExit(run(sys.argv[1:]))"


def test_match_and_torus_answer_on_an_80_chord_disk():
    # expanded, either element passes the 2^20-term budget; the factored
    # criteria never expand them
    rng = random.Random(80)
    a, b = (ChordDiagram(80, tuple(sorted(_random_pairs(rng, 1, 80)))) for _ in range(2))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    cases = [(["match", a.render(), rotate_diagram(a, 1).render()], {0}),
             (["match", a.render(), b.render()], {1}),
             (["torus", a.render(), "--n", "20", "--p", "1", "--q", "4"], {0, 1})]
    for argv, codes in cases:
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", _RUN_ARGV, *argv], env=env,
                              capture_output=True, text=True, timeout=10)
        assert time.perf_counter() - start < 1, argv[0]
        assert done.returncode in codes and done.stderr == "", done.stderr
        verdict = "true" if done.returncode == 0 else "false"
        want = ([f"oracle {verdict}", f"wedge {verdict}"] if argv[0] == "match"
                else [f"pairing {int(done.returncode == 0)}", f"tight {verdict}"])
        assert [line for line in done.stdout.splitlines()
                if not line.startswith("#")] == want


def test_malformed_inputs_exit_two_under_python_O(tmp_path):
    # -O strips assert statements, so this holds only if no input check is one
    surface = standard_disk(3).to_json_dict()
    surface["faces"][0] = surface["faces"][0][::-1]
    bad_surface = tmp_path / "surface.json"
    bad_surface.write_text(json.dumps(surface))
    data = chord_to_dividing_set(ChordDiagram.parse("1-4,2-3")).to_json_dict()
    data["marks"] = {k: [] for k in data["marks"]}
    unmarked = tmp_path / "unmarked.json"
    unmarked.write_text(json.dumps(data))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    for argv in (["decompose", "--surface", str(bad_surface)],
                 ["contact", "--input", str(unmarked)],
                 ["axioms", "--seed", "1", "--max-n", "1"]):
        done = subprocess.run([sys.executable, "-O", "-m", "sutured_tqft.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (2, ""), done.stderr
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, \
            done.stderr


# -- ring agreement on elements -------------------------------------------

@pytest.mark.parametrize("render", ["1-2,3-4", "1-4,2-3", "1-6,2-3,4-5",
                                    "1-2,3-6,4-5", "1-6,2-5,3-4"])
def test_contact_rings_agree_mod_two(render):
    _, tz = capture(["contact", "--ring", "z", "--diagram", render])
    _, tf = capture(["contact", "--ring", "f2", "--diagram", render])
    # integer coefficients here are all +-1, so only signs can differ
    assert tz.strip().replace("-", "") == tf.strip()
