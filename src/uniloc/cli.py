"""Command line interface: ring catalog, classification, and the exact
arithmetic subcommands (class groups, torsion, Cech dimensions, Smith
normal form, poset enumeration).

Exit codes: 0 success, 2 input error, 3 ring not representable,
4 inconclusive: an unknown classify answer, or a torsion order that
`ell torsion` cannot test on a model without integer coefficients.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import sys
from fractions import Fraction
from itertools import islice

from .errors import InconclusiveError, InputError, NotRepresentableError, record
from .verdict import INFINITE, Verdict, check_printable, read_number


def _lazy(name: str):
    """The module uniloc.<name>, registered now and run on first attribute access.

    It sits in sys.modules and on the package at once, as after an import,
    so a call compiles and runs only the family modules its subcommand uses.
    """
    fullname = "%s.%s" % (__package__, name)
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)
    return module


abgroup, elliptic, lcohom, quadorder, segre, spectool = map(
    _lazy, ("abgroup", "elliptic", "lcohom", "quadorder", "segre", "spectool"))


# input parsing ---------------------------------------------------------------

def _required(value: str, message: str) -> str:
    if not value:
        raise InputError(message)
    return value


def _parse_fraction(text: str) -> Fraction:
    try:
        return read_number(text.strip(), "a rational number", Fraction)
    except (ValueError, ZeroDivisionError):
        raise InputError("cannot read %r as a rational number" % (text,)) from None


def _parse_curve(text: str, message: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(message)
    return elliptic.WeierstrassCurve(_parse_fraction(parts[0]), _parse_fraction(parts[1]))


def _parse_point(text: str):
    text = text.strip()
    if text in ("O", "o", "inf", "infinity"):
        return elliptic.O
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError('point must be "x,y" or "O", got %r' % (text,))
    return elliptic.ECPoint(_parse_fraction(parts[0]), _parse_fraction(parts[1]))


def _parse_variable_set(text: str):
    inner = text.strip()
    if inner.startswith("(") and inner.endswith(")"):
        inner = inner[1:-1]
    names = [t.strip() for t in inner.split(",") if t.strip()]
    if not names:
        raise InputError("empty prime %r" % (text,))
    return tuple(names)


def _parse_quad_primes(order, text: str):
    ideals, labels = [], []
    for token in text.split(","):
        token = token.strip()
        m = re.fullmatch(r"p(\d+)(bar)?", token)
        if not m:
            raise InputError('prime spec must look like "p2" or "p3bar", got %r'
                             % (token,))
        ell = read_number(m.group(1), "--prime")
        conjugate = bool(m.group(2))
        dec = quadorder.decompose_prime(order, ell)
        if isinstance(dec, quadorder.Split):
            ideal = dec.pbar if conjugate else dec.p
        elif conjugate and isinstance(dec, quadorder.Inert):
            raise InputError("%d is inert, p%d has no distinct conjugate"
                             % (ell, ell))
        else:
            # the ramified prime equals its conjugate, accept both spellings
            ideal = dec.p
        if ideal not in ideals:  # a prime named twice keeps its first label
            ideals.append(ideal)
            labels.append(token)
    return ideals, labels


def _read_file(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from None


def _parse_matrix_file(path: str) -> abgroup.IntMatrix:
    text = _read_file(path)
    lines = [ln for ln in (l.split("#", 1)[0].strip() for l in text.splitlines()) if ln]
    if not lines:
        raise InputError("empty matrix file %s" % (path,))
    head = lines[0].split()
    if len(head) != 2 or not all(t.lstrip("-").isdigit() for t in head):
        raise InputError('first line must be "rows cols"')
    rows, cols = (read_number(t, "the matrix header") for t in head)
    if len(lines) - 1 != rows:
        raise InputError("expected %d matrix rows, found %d" % (rows, len(lines) - 1))
    entries = []
    for number, ln in enumerate(lines[1:], 1):
        row = ln.split()
        if len(row) != cols:
            raise InputError("row %r does not have %d entries" % (ln, cols))
        try:
            entries.append([read_number(t, "matrix row %d" % number) for t in row])
        except ValueError:
            raise InputError("non-integer entry in row %r" % (ln,)) from None
    return abgroup.IntMatrix.from_rows(entries)


def _parse_relations(text: str, variables):
    rels = []
    for token in (t.strip() for t in text.split(",")):
        if not token:
            continue
        if "*" in token:
            parts = [p.strip() for p in token.split("*")]
        elif all(len(v) == 1 for v in variables):
            parts = list(token)
        else:
            raise InputError("relation %r needs '*' between variables" % (token,))
        for p in parts:
            if p not in variables:
                raise InputError("relation %r uses unknown variable %r" % (token, p))
        if len(set(parts)) != len(parts):
            raise InputError("relation %r is not squarefree" % (token,))
        rels.append(set(parts))
    return rels


# ring families ---------------------------------------------------------------
# A family parser turns the ring id and the prime options into the positional
# arguments of the family classifier.

def _quad_args(ring, prime_spec, fp, asserted):
    body = ring.split(":", 1)[1]
    try:
        d = read_number(body, "the ring id")
    except ValueError:
        raise InputError("cannot read %r as an integer" % (body,)) from None
    order = quadorder.QuadOrder(d)
    return (order, *_parse_quad_primes(
        order, _required(prime_spec, "quad rings need --prime")))


def _ell_args(ring, prime_spec, fp, asserted):
    E = _parse_curve(ring.split(":", 1)[1], 'curve spec must look like "ell:a,b"')
    P = _parse_point(_required(prime_spec, "elliptic rings need --prime with a point"))
    return E, P


def _segre_args(ring, prime_spec, fp, asserted):
    if fp and prime_spec:
        raise InputError("give either --prime or --fp, not both")
    if fp:
        return (segre.SegrePrime.poly(fp, irreducible=asserted),)
    names = _parse_variable_set(_required(prime_spec, "segre needs --prime or --fp"))
    if asserted:
        raise InputError("--assert-irreducible applies to --fp only")
    return (segre.coordinate_prime(names),)


def _variable_args(message):
    def parse(ring, prime_spec, fp, asserted):
        return (_parse_variable_set(_required(prime_spec, message)),)
    return parse


@record
class Row:
    """One `catalog list` entry."""

    id: str
    description: str
    primes: str  # how to name a prime of this ring on the command line
    notes: tuple = ()


@record
class Family:
    """A ring family: its ids, its catalog rows and how to classify it.

    spec is the ring id, or "<name>:<parameters>" for ids that carry
    parameters.  reads lists the classify options the family uses besides
    --prime.  parse turns the ring id and those options into the ring and
    the prime, and classifier names the module function that takes them and
    nothing else; it is looked up on each call, so a rebinding of the
    module attribute applies.  The family
    modules load on first use (see _lazy): holding one here runs none of
    its code, and only the family a call classifies is compiled.
    """

    spec: str
    rows: tuple
    reads: tuple = ()
    parse: object = None
    classifier: tuple = None  # (module, function name)
    representable: bool = True

    def matches(self, ring: str) -> bool:
        name, colon, _ = self.spec.partition(":")
        return ring.startswith(name + colon) if colon else ring == self.spec


FAMILIES = (
    Family(
        "quad:<d>",
        (Row("quad:-5",
             "Z[sqrt(-5)], the maximal imaginary quadratic order of discriminant -20",
             '--prime "p<l>" or "p<l>bar" for the conjugate, comma separated',
             ("any squarefree d < 0 works as quad:<d>",)),),
        parse=_quad_args, classifier=(quadorder, "classify_dedekind"),
    ),
    Family(
        "ell:a,b",
        (Row("ell:0,-4",
             "cone over the plane cubic with affine model y^2 = x^3 - 4; "
             "carries rational points of infinite order",
             '--prime "x,y" (rationals allowed as num/den) or "O"'),
         Row("ell:-1,0", "cone over y^2 = x^3 - x; every rational point is 2-torsion",
             '--prime "x,y" or "O"'),
         Row("ell:0,1",
             "cone over y^2 = x^3 + 1; rational points form a cyclic group of order 6",
             '--prime "x,y" or "O"')),
        parse=_ell_args, classifier=(elliptic, "classify_point"),
    ),
    Family(
        "segre",
        (Row("segre",
             "the quadric cone k[X,Y,U,V]/(XU-YV); height-one homogeneous primes "
             "presented by bihomogeneous polynomials in S0,S1,T0,T1",
             '--prime "(X,V)" for a coordinate pair, or --fp "S0*T0^2 + S1*T1^2"'),),
        reads=("--fp", "--assert-irreducible"),
        parse=_segre_args, classifier=(segre, "classify_segre"),
    ),
    Family(
        "twoplanes",
        (Row("twoplanes", "k[X,Y,U]/(XU), two planes meeting in a line",
             '--prime "(X,Y)": any variable subset generating a prime',
             ("polynomial model standing in for the power series ring; the "
              "graded pieces and the (non)vanishing verdicts agree degreewise",)),),
        parse=_variable_args("twoplanes needs --prime with a variable subset"),
        classifier=(lcohom, "classify_twoplanes"),
    ),
    Family(
        "dim3hyper",
        (Row("dim3hyper",
             "k[X,Y,U,V]/(XU-YV) as a three dimensional hypersurface singularity",
             '--prime one of "(X,Y)", "(X,V)", "(Y,U)", "(U,V)", or "(X,Y,U,V)"',
             ("certificates run on the monomial surrogate k[X,Y,U,V]/(XU): "
              "killing Y or V gives the same quotient for both rings",)),),
        parse=_variable_args("dim3hyper needs --prime"),
        classifier=(lcohom, "classify_dim3hyper"),
    ),
    Family(
        "nagata",
        (Row("nagata",
             "a noetherian normal local domain whose defining data is not finitely "
             "presentable in this tool",
             "none", ("catalogued as a boundary marker; classify refuses it",)),),
        representable=False,
    ),
)


def classify(ring: str, prime_spec: str = "", fp: str = "",
             asserted: bool = False) -> Verdict:
    """Parse the prime for the ring's family and run the family classifier,
    which takes only the parsed ring and prime."""
    ring = ring.strip()
    family = next((f for f in FAMILIES if f.matches(ring)), None)
    if family is None:
        raise InputError("unknown ring %r; see `uniloc catalog list`" % (ring,))
    if not family.representable:
        raise NotRepresentableError(
            "%s is catalogued but carries no finite presentation; "
            "nothing can be computed for it" % (ring,))
    for option, value in (("--fp", fp), ("--assert-irreducible", asserted)):
        if value and option not in family.reads:
            raise InputError("%s does not apply to %s" % (option, ring))
    args = family.parse(ring, prime_spec, fp, asserted)
    module, name = family.classifier
    return getattr(module, name)(*args)


# subcommand handlers ---------------------------------------------------------

def _emit(args, payload_json, payload_text) -> None:
    if args.format == "json":  # join in batches: json.dumps holds every chunk at once
        chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(payload_json)
        payload_text = "".join(iter(lambda: "".join(islice(chunks, 4096)), ""))
    try:
        print(payload_text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left: send the flush at exit to devnull, keep the exit code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _cmd_catalog_list(args) -> int:
    entries, lines = [], []
    for family in FAMILIES:
        flag = "" if family.representable else "  [not representable]"
        for row in family.rows:
            entries.append({"id": row.id, "description": row.description,
                            "primes": row.primes, "notes": list(row.notes),
                            "representable": family.representable})
            lines.append("%-12s %s%s" % (row.id, row.description, flag))
            lines.append("%-12s primes: %s" % ("", row.primes))
            lines.extend("%-12s note: %s" % ("", note) for note in row.notes)
    _emit(args, {"schema": 1, "entries": entries}, "\n".join(lines))
    return 0


def _cmd_classify(args) -> int:
    verdict = classify(args.ring, args.prime or "", args.fp or "",
                       args.assert_irreducible)
    _emit(args, verdict.to_json_dict(), verdict.to_text())
    return 0 if verdict.conclusive else 4


def _cmd_classgroup(args) -> int:
    D = args.disc
    if D % 4 == 0:
        d = D // 4
    elif D % 4 == 1:
        d = D
    else:
        raise InputError("%d is not a discriminant (need 0 or 1 mod 4)" % (D,))
    order = quadorder.QuadOrder(d)
    if order.discriminant != D:
        raise InputError(
            "%d is not a fundamental discriminant (the maximal order of "
            "Q(sqrt(%d)) has discriminant %d)" % (D, d, order.discriminant))
    forms = quadorder.reduced_forms(order)
    doc = {
        "schema": 1,
        "discriminant": D,
        "class_number": len(forms),
        "reduced_forms": [list(f) for f in forms],
    }
    text = "\n".join(
        ["discriminant: %d" % D, "class number: %d" % len(forms)]
        + ["form: %d %d %d" % f for f in forms])
    _emit(args, doc, text)
    return 0


def _cmd_ell_torsion(args) -> int:
    E = _parse_curve(args.curve, '--curve must look like "a,b"')
    P = _parse_point(args.point)
    order = elliptic.torsion_order(E, P)  # ModelNotIntegral exits 4
    rendered = "infinite" if order is INFINITE else order
    doc = {
        "schema": 1,
        "curve": E.spec(),
        "point": "O" if P.is_infinity else "%s,%s" % (P.x, P.y),
        "torsion": rendered,
    }
    _emit(args, doc, "torsion: %s" % rendered)
    return 0


def _cmd_cech(args) -> int:
    variables = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    A = lcohom.MonomialAlgebra.make(variables,
                                    _parse_relations(args.rel or "", variables))
    gens = tuple(g.strip() for g in args.ideal.split(",") if g.strip())
    I = lcohom.VariableIdeal.of(A, gens)
    out, table = lcohom.cech_table(A, I, args.i, args.box)
    dims = {",".join(str(x) for x in a): dim for a, dim in table}
    doc = {
        "schema": 1,
        "algebra": A.describe(),
        "ideal": list(I.generators),
        "i": args.i,
        "box": args.box,
        "dim_by_degree": dims,
        "witness": list(out.witness) if out.found else None,
        "note": out.note,
    }
    lines = ["algebra: %s" % A.describe(),
             "ideal: (%s)" % ", ".join(I.generators)]
    if args.format == "text":  # the table can be large: spell it out only to print it
        lines += ["H^%d dim %d at (%s)" % (args.i, dim, key)
                  for key, dim in sorted(dims.items())]
    lines.append("witness: %s" % (list(out.witness) if out.found else "none"))
    lines.append("note: %s" % out.note)
    _emit(args, doc, "\n".join(lines))
    return 0


def _cmd_snf(args) -> int:
    M = _parse_matrix_file(args.matrix)
    D, U, W = abgroup.smith_normal_form(M)
    if (U @ M) @ W != D:
        raise AssertionError("transform identity U*M*W = D failed")
    check_printable((x for T in (D, U, W) for x in T.entries), "the Smith normal form")
    structure = abgroup.diagonal_structure(D)
    doc = {
        "schema": 1,
        "D": D.to_rows(),
        "U": U.to_rows(),
        "W": W.to_rows(),
        "diagonal": D.diagonal(),
        "cokernel": {
            "free_rank": structure.free_rank,
            "invariant_factors": list(structure.invariant_factors),
        },
    }
    lines = ["D = U * M * W with"]
    for tag, mat in (("D", D), ("U", U), ("W", W)):
        lines.append("%s:" % tag)
        lines.extend("  " + " ".join(str(x) for x in row) for row in mat.to_rows())
    lines.append("diagonal: %s" % (D.diagonal(),))
    lines.append("cokernel: free rank %d, invariant factors %s"
                 % (structure.free_rank, list(structure.invariant_factors)))
    _emit(args, doc, "\n".join(lines))
    return 0


def _cmd_spec_enumerate(args) -> int:
    P = spectool.SpecPoset.from_text(_read_file(args.poset))
    closed = spectool.enumerate_closed(P)
    heights = P.heights()
    doc = {
        "schema": 1,
        "nodes": list(P.nodes),
        "heights": heights,
        "count": len(closed),
        "closed_sets": [c.sorted_members() for c in closed],
    }
    lines = ["nodes: %s" % ", ".join(P.nodes),
             "heights: %s" % ", ".join("%s:%d" % (n, heights[n]) for n in P.nodes),
             "count: %d" % len(closed)]
    lines.extend("closed: {%s}" % ", ".join(c.sorted_members()) for c in closed)
    _emit(args, doc, "\n".join(lines))
    return 0


# parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uniloc",
        description="classify localisations of catalogued noetherian rings "
                    "with exact arithmetic")
    sub = parser.add_subparsers(dest="command")

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_catalog = sub.add_parser("catalog", help="catalog operations")
    catalog_sub = p_catalog.add_subparsers(dest="catalog_command")
    p_list = catalog_sub.add_parser("list", help="list built-in rings")
    add_format(p_list)
    p_list.set_defaults(func=_cmd_catalog_list)

    p_classify = sub.add_parser(
        "classify", help="flat / universal / classical verdict for V(p)")
    p_classify.add_argument("--ring", required=True)
    p_classify.add_argument("--prime", default="")
    p_classify.add_argument("--fp", default="",
                            help="bihomogeneous polynomial for segre primes")
    p_classify.add_argument("--assert-irreducible", action="store_true",
                            help="assert irreducibility of --fp above degree 2")
    add_format(p_classify)
    p_classify.set_defaults(func=_cmd_classify)

    p_cg = sub.add_parser("classgroup", help="reduced forms and class number")
    p_cg.add_argument("--disc", type=int, required=True,
                      help="fundamental discriminant, e.g. -20")
    add_format(p_cg)
    p_cg.set_defaults(func=_cmd_classgroup)

    p_ell = sub.add_parser("ell", help="elliptic curve utilities")
    ell_sub = p_ell.add_subparsers(dest="ell_command")
    p_tors = ell_sub.add_parser("torsion", help="torsion order of a point")
    p_tors.add_argument("--curve", required=True, help='"a,b" coefficients')
    p_tors.add_argument("--point", required=True, help='"x,y" or "O"')
    add_format(p_tors)
    p_tors.set_defaults(func=_cmd_ell_torsion)

    p_cech = sub.add_parser("cech", help="multigraded local cohomology dims")
    p_cech.add_argument("--vars", required=True, help="comma separated names")
    p_cech.add_argument("--rel", default="",
                        help="comma separated squarefree monomials, e.g. XU")
    p_cech.add_argument("--ideal", required=True, help="comma separated generators")
    p_cech.add_argument("--i", type=int, required=True)
    p_cech.add_argument("--box", type=int, default=3,
                        help="display range |a_j| <= N of the dimension table")
    add_format(p_cech)
    p_cech.set_defaults(func=_cmd_cech)

    p_snf = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    p_snf.add_argument("--matrix", required=True,
                       help='file: first line "rows cols", then the rows')
    add_format(p_snf)
    p_snf.set_defaults(func=_cmd_snf)

    p_spec = sub.add_parser("spec", help="finite spectrum posets")
    spec_sub = p_spec.add_subparsers(dest="spec_command")
    p_enum = spec_sub.add_parser("enumerate",
                                 help="all specialisation closed subsets")
    p_enum.add_argument("--poset", required=True,
                        help='file of lines "child < parent"')
    add_format(p_enum)
    p_enum.set_defaults(func=_cmd_spec_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except NotRepresentableError as exc:
        print("not representable: %s" % exc, file=sys.stderr)
        return 3
    except InconclusiveError as exc:
        print("inconclusive: %s" % exc, file=sys.stderr)
        return 4
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except AssertionError as exc:  # a failed self-check: a uniloc bug
        print("internal error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
