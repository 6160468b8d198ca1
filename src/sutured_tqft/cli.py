"""Command-line access to the library: computation, enumeration and
verification with stable line-oriented output.

Every command prints one result per line; lines starting with `#` are
comments.  Exit codes: 0 on success, 1 when a boolean verdict comes out
false, 2 on malformed or unsupported input, 3 when an internal invariant
fails (a bug).  Randomized commands take their entropy from a mandatory
--seed flag.
"""

import argparse
import json
import sys
from collections import Counter

from .axioms import run_axiom_suite
from .contact import contact_element, default_basis, render_multivector
from .disks import (TorusParameters, bypass_triple_at, disk_contact_element,
                    matchable, matchable_via_wedge, matching_curve_count,
                    rotate_diagram, solid_torus_tight)
from .dividing import ChordDiagram, DividingSet, catalan, chord_diagrams
from .errors import InternalConsistencyError, ValidationError
from .exterior import RING_F2, RING_Z
from .gluing import (Gluing, glue, glued_relative_basis, pushforward_class,
                     quadrangulate)
from .homology import induced_matrix
from .models import disk_model
from .surface import Surface


# The largest N `enumerate` takes: C(2N, N)/(N + 1) has at most 4,300
# digits up to it, Python's default limit for printing an integer.
ENUMERATE_MAX_N = 7152


def _disk_labels(n: int):
    return disk_model(n).labels_plus if n >= 2 else None


def _unique_keys(pairs):
    """A JSON object, refused if it repeats a key: json.load alone keeps
    the last value and drops the others unseen."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        dup = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ValidationError(f"JSON object repeats key {dup!r}")
    return obj


def _load_json(path):
    if path == "-":
        return json.load(sys.stdin, object_pairs_hook=_unique_keys)
    with open(path) as fh:
        return json.load(fh, object_pairs_hook=_unique_keys)


def _bool_word(value: bool) -> str:
    return "true" if value else "false"


# -- handlers -------------------------------------------------------------

def _cmd_contact(args, out) -> int:
    if args.diagram is not None:
        cd = ChordDiagram.parse(args.diagram)
        x = disk_contact_element(cd, args.ring).value
        print(render_multivector(x, _disk_labels(cd.n)), file=out)
    else:
        ds = DividingSet.from_json_dict(_load_json(args.input))
        x = contact_element(ds, ring=args.ring).value
        print(render_multivector(x), file=out)
    return 0


def _cmd_enumerate(args, out) -> int:
    if args.n < 1:
        raise ValidationError(f"need at least one chord, got {args.n}")
    if args.n > ENUMERATE_MAX_N:
        raise ValidationError(f"{args.n} chords is over the limit of {ENUMERATE_MAX_N}: "
                              "the count would pass 4,300 digits")
    if args.count_only:
        try:
            count = str(catalan(args.n))
        except ValueError:  # the digit limit was lowered from outside
            raise ValidationError(
                f"the count for {args.n} chords has more digits than the limit of "
                f"{sys.get_int_max_str_digits()} that this Python prints") from None
        print(count, file=out)
        return 0
    labels = _disk_labels(args.n)
    # text order, line by line: a line starts with its diagram's render
    for cd in chord_diagrams(args.n, key=str):
        x = disk_contact_element(cd, args.ring).value
        print(f"{cd.render()}\t{render_multivector(x, labels)}", file=out)
    return 0


def _cmd_match(args, out) -> int:
    cd1 = ChordDiagram.parse(args.first)
    cd2 = ChordDiagram.parse(args.second)
    oracle = matchable(cd1, cd2)
    wedge = matchable_via_wedge(cd1, cd2, args.ring)
    print(f"# closed curves: {matching_curve_count(cd1, cd2)}", file=out)
    print(f"oracle {_bool_word(oracle)}", file=out)
    print(f"wedge {_bool_word(wedge)}", file=out)
    if oracle != wedge:
        raise InternalConsistencyError("oracle and wedge criteria disagree")
    return 0 if oracle else 1


def _cmd_torus(args, out) -> int:
    params = TorusParameters(args.n, args.p, args.q)
    cd = rotate_diagram(ChordDiagram.parse(args.diagram), args.base)
    tight = solid_torus_tight(cd, params)
    print(f"pairing {1 if tight else 0}", file=out)
    print(f"tight {_bool_word(tight)}", file=out)
    return 0 if tight else 1


def _cmd_bypass(args, out) -> int:
    cd = ChordDiagram.parse(args.diagram)
    n2 = 2 * cd.n
    a = args.site
    site = (a, a % n2 + 1, (a % n2 + 1) % n2 + 1)
    triple = bypass_triple_at(cd, site)
    # every element is computed before anything prints, so a term-budget
    # refusal leaves stdout empty
    total = sum((disk_contact_element(d, RING_F2).value
                 for d in triple.diagrams),
                start=disk_contact_element(cd, RING_F2).value.scale(0))
    for d in triple.diagrams:
        print(d.render(), file=out)
    print(f"# f2 sum zero: {_bool_word(total.is_zero())}", file=out)
    return 0


def _cmd_glue(args, out) -> int:
    s = Surface.from_json_dict(_load_json(args.surface))
    tau = Gluing.from_json_dict(s, _load_json(args.gluing))
    data = glue(tau)
    hb = default_basis(s, args.ring)
    rb = glued_relative_basis(data, args.ring)
    mat = induced_matrix(hb, rb, push=lambda ch: pushforward_class(data, ch))
    obj = {"surface": data.result.to_json_dict(),
           "swallowed": list(data.swallowed),
           "matrix": mat}
    print(json.dumps(obj, sort_keys=True), file=out)
    return 0


def _cmd_decompose(args, out) -> int:
    s = Surface.from_json_dict(_load_json(args.surface))
    dec = quadrangulate(s)
    obj = {"refined": dec.refined.to_json_dict(),
           "pieces": dec.pieces.to_json_dict(),
           "cuts": [list(c) for c in dec.cuts],
           "reverse": dec.reverse.to_json_dict()}
    print(json.dumps(obj, sort_keys=True), file=out)
    return 0


def _cmd_axioms(args, out) -> int:
    reports = run_axiom_suite(seed=args.seed, max_n=args.max_n,
                              gluing_samples=args.gluing_samples)
    for r in reports:
        print(json.dumps(r.to_json_dict(), sort_keys=True), file=out)
    return 0 if all(r.verdict for r in reports) else 1


# -- argument plumbing ----------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with one `error:` line, like any malformed input;
    subcommand parsers are made of this class too."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="sutured-tqft",
        description="Exact contact elements of sutured surfaces.")
    sub = ap.add_subparsers(dest="command", required=True)

    def ring_flag(p):
        p.add_argument("--ring", choices=(RING_F2, RING_Z), default=RING_Z,
                       help="coefficient ring (default: z)")

    p = sub.add_parser("contact",
                       help="contact element of a diagram or dividing set")
    ring_flag(p)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--diagram", help='chord diagram, e.g. "1-2,3-4"')
    src.add_argument("--input",
                     help="dividing-set JSON file ('-' for stdin)")
    p.set_defaults(func=_cmd_contact)

    p = sub.add_parser("enumerate", help="all chord diagrams on N chords")
    ring_flag(p)
    p.add_argument("n", type=int)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("match",
                       help="can two diagrams close up to one circle?")
    ring_flag(p)
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("torus", help="solid-torus tightness of a meridian set")
    p.add_argument("diagram")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--base", type=int, default=0,
                   help="rotate the diagram this many sutures before "
                        "testing (boundary base-point choice)")
    p.set_defaults(func=_cmd_torus)

    p = sub.add_parser("bypass", help="the bypass triple at a site")
    p.add_argument("diagram")
    p.add_argument("--site", type=int, required=True,
                   help="first of three consecutive sutures")
    p.set_defaults(func=_cmd_bypass)

    p = sub.add_parser("glue", help="glue a surface and print the morphism")
    ring_flag(p)
    p.add_argument("--surface", required=True,
                   help="surface JSON file ('-' for stdin)")
    p.add_argument("--gluing", required=True, help="gluing JSON file")
    p.set_defaults(func=_cmd_glue)

    p = sub.add_parser("decompose", help="quadrangulate into square pieces")
    p.add_argument("--surface", required=True,
                   help="surface JSON file ('-' for stdin)")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("axioms", help="run the axiom harness")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--gluing-samples", type=int, default=200)
    p.set_defaults(func=_cmd_axioms)

    return ap


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args, out)
    except (ValidationError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        print(f"error: input too big or too deeply nested ({type(exc).__name__})", file=sys.stderr)
        return 2
    except Exception as exc:  # a failed invariant or any other bug
        why = exc if isinstance(exc, InternalConsistencyError) else repr(exc)
        print(f"internal error: {why}", file=sys.stderr)
        return 3


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
