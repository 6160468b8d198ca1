"""Fuzzing the command line in-process: mutated JSON inputs and argv.

Whatever the input, `cli.run` must return an exit code of the README
contract (0 ok, 1 verdict false, 2 malformed input, 3 internal error)
without letting an exception escape, and a failure must be reported on
exactly one stderr line.  Inputs stay small (a three-suture disk, small
integers), so every run is quick.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from sutured_tqft.axioms import _suture_corner_sites
from sutured_tqft.cli import run
from sutured_tqft.dividing import ChordDiagram, chord_to_dividing_set
from sutured_tqft.gluing import Gluing
from sutured_tqft.surface import standard_disk

_DISK = standard_disk(3)
_SURFACE = _DISK.to_json_dict()
_GLUING = Gluing(_DISK, *_suture_corner_sites(_DISK)[0]).to_json_dict()
_DIVIDING_SET = chord_to_dividing_set(ChordDiagram.parse("1-2,3-6,4-5")).to_json_dict()

_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 40),
    st.floats(width=16), st.text(alphabet="+-x0", max_size=3))
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "K", "0", "x"]), inner, max_size=2),
    max_leaves=4)


def _paths(doc, here=()):
    """Every position in a JSON document, as a key/index path."""
    yield here
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _paths(v, here + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _paths(v, here + (i,))


def _mutate(doc, data):
    """A copy of doc after one to three mutations."""
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        doc = _mutate_once(doc, data)
    return doc


def _mutate_once(doc, data):
    """Replace, delete, duplicate or swap one position of doc in place."""
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    op = data.draw(st.sampled_from(["replace", "delete", "duplicate", "swap"]),
                   label="op")
    if not path:
        return data.draw(_VALUES, label="document")
    *up, key = path
    parent = doc
    for k in up:
        parent = parent[k]
    if op == "replace":
        parent[key] = data.draw(_VALUES, label="value")
    elif op == "delete":
        del parent[key]
    elif op == "duplicate" and isinstance(parent, list):
        parent.insert(key, parent[key])
    elif op == "swap" and isinstance(parent, list) and len(parent) > 1:
        other = (key + 1) % len(parent)
        parent[key], parent[other] = parent[other], parent[key]
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv, out=out)
    return code, err.getvalue()


def _assert_contract(code, err):
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    elif code == 3:
        assert err.startswith("internal error: ") and err.count("\n") == 1, err


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_json_inputs_keep_the_exit_code_contract(data):
    command = data.draw(st.sampled_from(["contact", "glue", "decompose"]),
                        label="command")
    with tempfile.TemporaryDirectory() as tmp:
        def write(name, doc):
            path = os.path.join(tmp, name)
            with open(path, "w") as fh:
                json.dump(doc, fh)
            return path

        if command == "contact":
            ds = write("ds.json", _mutate(_DIVIDING_SET, data))
            argv = ["contact", "--ring", data.draw(st.sampled_from(["z", "f2"])),
                    "--input", ds]
        elif command == "glue":
            which = data.draw(st.sampled_from(["surface", "gluing"]), label="mutated")
            surface = _mutate(_SURFACE, data) if which == "surface" else _SURFACE
            gluing = _mutate(_GLUING, data) if which == "gluing" else _GLUING
            argv = ["glue", "--surface", write("s.json", surface),
                    "--gluing", write("g.json", gluing)]
        else:
            argv = ["decompose", "--surface", write("s.json", _mutate(_SURFACE, data))]
        _assert_contract(*_run(argv))


_BASE_ARGV = [
    ["contact", "--diagram", "1-2,3-6,4-5"],
    ["contact", "--ring", "f2", "--diagram", "1-4,2-3"],
    ["enumerate", "2"],
    ["enumerate", "3", "--count-only"],
    ["match", "1-2,3-4", "1-4,2-3"],
    ["torus", "1-2,3-6,4-5", "--n", "1", "--p", "1", "--q", "3"],
    ["bypass", "1-2,3-6,4-5", "--site", "2"],
    ["axioms", "--seed", "1", "--max-n", "1", "--gluing-samples", "2"],
]
# small integers only, so no mutation asks for a large enumeration
_TOKENS = st.one_of(st.sampled_from(["-1", "0", "1", "2", "3", "z", "f2", "--ring"]),
                    st.text(alphabet="-,x ", max_size=4))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(_BASE_ARGV), st.data())
def test_mutated_argv_keeps_the_exit_code_contract(base, data):
    argv = list(base)
    for _ in range(data.draw(st.integers(1, 2), label="mutations")):
        op = data.draw(st.sampled_from(["replace", "delete", "insert", "swap"]),
                       label="op")
        i = data.draw(st.integers(0, max(len(argv) - 1, 0)), label="at")
        if op == "insert" or not argv:
            argv.insert(i, data.draw(_TOKENS, label="token"))
        elif op == "replace":
            argv[i] = data.draw(_TOKENS, label="token")
        elif op == "delete":
            del argv[i]
        elif len(argv) > 1:
            j = (i + 1) % len(argv)
            argv[i], argv[j] = argv[j], argv[i]
    _assert_contract(*_run(argv))
