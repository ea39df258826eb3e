"""Command line interface: ring catalog, classification, and the exact
arithmetic subcommands (class groups, torsion, Cech dimensions, Smith
normal form, poset enumeration).

Exit codes: 0 success, 2 input error, 3 ring not representable,
4 inconclusive: an unknown classify answer, or a torsion order that
`ell torsion` cannot test on a model without integer coefficients.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import os
import re
import sys
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import isqrt

from .errors import InconclusiveError, InputError, NotRepresentableError, record
from .verdict import PRINT_DIGITS, Verdict, _json_list, check_printable, read_number


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


def _reads_as_int(token: str) -> bool:
    """Whether read_number reads token as an int: a sign, then at most
    PRINT_DIGITS decimal digits with single underscores between them.
    ASCII digits are tested as bytes, an order of magnitude faster than
    str.isdecimal."""
    body = token[1:] if token[:1] in "+-" else token
    digits = body.replace("_", "")
    return ((digits.encode().isdigit() if digits.isascii() else digits.isdecimal())
            and len(digits) <= PRINT_DIGITS and "__" not in body and body[:1] != "_" != body[-1:])


def _square_bits_floor(token: str) -> int:
    """A floor on the bits of x * x for the int x that token spells, from
    its d significant digits alone: x * x >= 10 ** (2 * (d - 1)), of at
    least 2 * (d - 1) * log2(10) bits, and 3.321928 < log2(10).  A token
    with a digit other than ASCII counts for none."""
    digits = token.lstrip("+-").replace("_", "").lstrip("0")
    d = len(digits) if digits.isascii() else 0
    return 2 * (d - 1) * 3321928 // 10 ** 6 + 1 if d else 0


def _past_cost_bound(rows: int, cols: int, row_bits, floor: bool = False):
    """The InputError for a matrix past abgroup.SNF_COST_BOUND, else None.

    h bounds the bits of the product of the min(rows, cols) longest row
    norms, the Hadamard bound of every minor; row_bits holds the bits of
    each row's squared norm, or a floor on them, and then h is a floor.
    """
    h = (sum(sorted(row_bits, reverse=True)[:min(rows, cols)]) + 1) // 2
    n = max(rows, cols)
    if n ** 4 * h ** 3 <= abgroup.SNF_COST_BOUND ** 2:
        return None
    return InputError("a %d x %d matrix with a Hadamard bound of %s%d bits has n^2 * h^1.5 "
                      "%s %d, past abgroup.SNF_COST_BOUND = %d"
                      % (rows, cols, "at least " if floor else "", h, ">=" if floor else "=",
                         isqrt(n ** 4 * h ** 3), abgroup.SNF_COST_BOUND))


def _quote_row(line: str) -> str:
    """repr of a matrix row for a row error, cut to its first 40
    characters and "...": a row of 4300-digit entries would put hundreds
    of KB on one line of stderr."""
    return repr(line) if len(line) <= 40 else "%r..." % line[:40]


def _parse_matrix_file(path: str) -> abgroup.IntMatrix:
    text = _read_file(path)
    lines = [ln for ln in (l.split("#", 1)[0].strip() for l in text.splitlines()) if ln]
    if not lines:
        raise InputError("empty matrix file %s" % (path,))
    head = lines[0].split()
    if len(head) != 2 or not all(t.isdecimal() for t in head):
        raise InputError('first line must be "rows cols"')
    rows, cols = (read_number(t, "the matrix header") for t in head)
    if max(rows, cols) > abgroup.SNF_DIM_BOUND:
        raise InputError("a %d x %d matrix is above abgroup.SNF_DIM_BOUND = %d rows or columns"
                         % (rows, cols, abgroup.SNF_DIM_BOUND))
    if len(lines) - 1 != rows:
        raise InputError("expected %d matrix rows, found %d" % (rows, len(lines) - 1))
    tokens = [ln.split() for ln in lines[1:]]
    # a floor on h from each row's longest token, before any int is built:
    # a file past the bound on it is past it on h too, and when every
    # token reads, it is refused unread; otherwise the read below gives
    # the error of the first bad row
    error = _past_cost_bound(rows, cols, [_square_bits_floor(max(row, key=len))
                                          for row in tokens], floor=True)
    if error and all(len(row) == cols and all(map(_reads_as_int, row)) for row in tokens):
        raise error
    entries = []
    for number, (ln, row) in enumerate(zip(lines[1:], tokens), 1):
        if len(row) != cols:
            raise InputError("row %s does not have %d entries" % (_quote_row(ln), cols))
        try:
            entries.append([read_number(t, "matrix row %d" % number) for t in row])
        except ValueError:
            raise InputError("non-integer entry in row %s" % _quote_row(ln)) from None
    # O(rows * cols), before any elimination
    error = _past_cost_bound(rows, cols, [sum(x * x for x in row).bit_length() for row in entries])
    if error:
        raise error
    return abgroup.IntMatrix(rows, cols, tuple(x for row in entries for x in row))


def _parse_relations(text: str, variables):
    rels, known = [], set(variables)
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
            if p not in known:
                raise InputError("relation %r uses unknown variable %r" % (token, p))
        if len(set(parts)) != len(parts):
            raise InputError("relation %r is not squarefree" % (token,))
        rels.append(set(parts))
    return rels


# ring families ---------------------------------------------------------------

def _classify_quad(ring, prime_spec, fp, asserted):
    body = ring.split(":", 1)[1]
    try:
        d = read_number(body, "the ring id")
    except ValueError:
        raise InputError("cannot read %r as an integer" % (body,)) from None
    order = quadorder.QuadOrder(d)
    ideals, labels = _parse_quad_primes(
        order, _required(prime_spec, "quad rings need --prime"))
    return quadorder.classify_dedekind(order, ideals, labels)


def _classify_ell(ring, prime_spec, fp, asserted):
    E = _parse_curve(ring.split(":", 1)[1], 'curve spec must look like "ell:a,b"')
    P = _parse_point(_required(prime_spec, "elliptic rings need --prime with a point"))
    return elliptic.classify_point(E, P)


def _classify_segre(ring, prime_spec, fp, asserted):
    if fp and prime_spec:
        raise InputError("give either --prime or --fp, not both")
    if fp:
        return segre.classify_segre(segre.SegrePrime.poly(fp, irreducible=asserted))
    names = _parse_variable_set(_required(prime_spec, "segre needs --prime or --fp"))
    if asserted:
        raise InputError("--assert-irreducible applies to --fp only")
    return segre.classify_segre(segre.coordinate_prime(names))


def _classify_twoplanes(ring, prime_spec, fp, asserted):
    return lcohom.classify_twoplanes(_parse_variable_set(
        _required(prime_spec, "twoplanes needs --prime with a variable subset")))


def _classify_dim3hyper(ring, prime_spec, fp, asserted):
    return lcohom.classify_dim3hyper(_parse_variable_set(
        _required(prime_spec, "dim3hyper needs --prime")))


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
    --prime.  classify(ring, prime_spec, fp, asserted) parses the prime and
    calls the family classifier, read off its module on each call so that a
    rebinding of the module attribute applies; it is None for a family that
    is catalogued but not representable.  The family modules load on first
    use (see _lazy): holding one here runs none of its code, and only the
    family a call classifies is compiled.
    """

    spec: str
    rows: tuple
    reads: tuple = ()
    classify: object = None

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
        classify=_classify_quad,
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
        classify=_classify_ell,
    ),
    Family(
        "segre",
        (Row("segre",
             "the quadric cone k[X,Y,U,V]/(XU-YV); height-one homogeneous primes "
             "presented by bihomogeneous polynomials in S0,S1,T0,T1",
             '--prime "(X,V)" for a coordinate pair, or --fp "S0*T0^2 + S1*T1^2"'),),
        reads=("--fp", "--assert-irreducible"),
        classify=_classify_segre,
    ),
    Family(
        "twoplanes",
        (Row("twoplanes", "k[X,Y,U]/(XU), two planes meeting in a line",
             '--prime "(X,Y)": any variable subset generating a prime',
             ("polynomial model standing in for the power series ring; the "
              "graded pieces and the (non)vanishing verdicts agree degreewise",)),),
        classify=_classify_twoplanes,
    ),
    Family(
        "dim3hyper",
        (Row("dim3hyper",
             "k[X,Y,U,V]/(XU-YV) as a three dimensional hypersurface singularity",
             '--prime one of "(X,Y)", "(X,V)", "(Y,U)", "(U,V)", or "(X,Y,U,V)"',
             ("certificates run on the monomial surrogate k[X,Y,U,V]/(XU): "
              "killing Y or V gives the same quotient for both rings",)),),
        classify=_classify_dim3hyper,
    ),
    Family(
        "nagata",
        (Row("nagata",
             "a noetherian normal local domain whose defining data is not finitely "
             "presentable in this tool",
             "none", ("catalogued as a boundary marker; classify refuses it",)),),
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
    if family.classify is None:
        raise NotRepresentableError(
            "%s is catalogued but carries no finite presentation; "
            "nothing can be computed for it" % (ring,))
    for option, value in (("--fp", fp), ("--assert-irreducible", asserted)):
        if value and option not in family.reads:
            raise InputError("%s does not apply to %s" % (option, ring))
    return family.classify(ring, prime_spec, fp, asserted)


# subcommand handlers ---------------------------------------------------------

def _json_text(value, indent: str = "") -> str:
    """json.dumps(value, sort_keys=True, indent=2), one string per value.

    Every --format json document prints with it but a verdict, a class
    group and a list of closed sets, which write their fixed layouts
    themselves.  The standard library indents through a generator per
    token, a few microseconds for each integer of an SNF transform; here
    a list or dict is one join over its items, and an int or str item is
    written inline.
    """
    if isinstance(value, (list, tuple)) and value:
        inner = indent + "  "
        items = [repr(v) if type(v) is int else encode_basestring_ascii(v) if type(v) is str
                 else _json_text(v, inner) for v in value]
        return "[\n%s%s\n%s]" % (inner, (",\n" + inner).join(items), indent)
    if isinstance(value, dict) and value:
        inner = indent + "  "
        items = [encode_basestring_ascii(k if isinstance(k, str) else json.dumps(k)) + ": "
                 + (repr(v) if type(v) is int else encode_basestring_ascii(v) if type(v) is str
                    else _json_text(v, inner)) for k, v in sorted(value.items())]
        return "{\n%s%s\n%s}" % (inner, (",\n" + inner).join(items), indent)
    if type(value) is int:
        return repr(value)
    if type(value) is str:
        return encode_basestring_ascii(value)
    return json.dumps(value)  # bool, None, float, [] and {}


def _emit(args, payload_json, payload_text) -> None:
    _print(_json_text(payload_json) if args.format == "json" else payload_text)


def _print(payload_text) -> None:
    _flush(sys.stdout, payload_text)


def _flush(stream, payload_text=None) -> None:
    """Print payload_text to stream, when given, then flush the stream.

    When the reader has left (a closed pipe), the stream's descriptor is
    pointed at devnull: what is still buffered goes there on a later
    flush, and the call keeps its exit code.
    """
    try:
        if payload_text is not None:
            print(payload_text, file=stream)
        stream.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def _cmd_catalog_list(args) -> int:
    entries, lines = [], []
    for family in FAMILIES:
        representable = family.classify is not None
        flag = "" if representable else "  [not representable]"
        for row in family.rows:
            entries.append({"id": row.id, "description": row.description,
                            "primes": row.primes, "notes": list(row.notes),
                            "representable": representable})
            lines.append("%-12s %s%s" % (row.id, row.description, flag))
            lines.append("%-12s primes: %s" % ("", row.primes))
            lines.extend("%-12s note: %s" % ("", note) for note in row.notes)
    _emit(args, {"schema": 1, "entries": entries}, "\n".join(lines))
    return 0


def _cmd_classify(args) -> int:
    verdict = classify(args.ring, args.prime or "", args.fp or "",
                       args.assert_irreducible)
    _print(verdict.to_json() if args.format == "json" else verdict.to_text())
    return 0 if verdict.rule.conclusive else 4


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
    # one format for the whole listing: the forms can be many, and the unit
    # form makes the list non-empty
    h = len(forms)
    if args.format == "json":
        layout = ('{\n  "class_number": %d,\n  "discriminant": %d,\n  "reduced_forms": ['
                  + (",\n    [\n      %d,\n      %d,\n      %d\n    ]" * h)[1:]
                  + '\n  ],\n  "schema": 1\n}')
        head = (h, D)
    else:
        layout = "discriminant: %d\nclass number: %d" + "\nform: %d %d %d" * h
        head = (D, h)
    _print(layout % (head + tuple(chain.from_iterable(forms))))
    return 0


def _cmd_ell_torsion(args) -> int:
    E = _parse_curve(args.curve, '--curve must look like "a,b"')
    P = _parse_point(args.point)
    order = elliptic.torsion_order(E, P)  # ModelNotIntegral exits 4
    doc = {
        "schema": 1,
        "curve": E.spec(),
        "point": "O" if P.is_infinity else "%s,%s" % (P.x, P.y),
        "torsion": order,
    }
    _emit(args, doc, "torsion: %s" % order)
    return 0


def _cmd_cech(args) -> int:
    variables = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    rels = _parse_relations(args.rel or "", variables)
    gens = tuple(g.strip() for g in args.ideal.split(",") if g.strip())
    # before the algebra is built: its relation test is quadratic in the relations
    lcohom.check_scannable(len(set(variables).intersection(gens).union(*rels)),
                           len(set(map(frozenset, rels))))
    A = lcohom.MonomialAlgebra.make(variables, rels)
    I = lcohom.VariableIdeal.of(A, gens)
    out, table = lcohom.cech_table(A, I, args.i, args.box)
    dims = {",".join(a): dim for a, dim in table}
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
    if args.format == "text":  # U and W can be large: spell them out only to print them
        for tag, mat in (("D", D), ("U", U), ("W", W)):
            lines.append("%s:" % tag)
            lines.extend("  " + " ".join(str(x) for x in row) for row in mat.to_rows())
    lines.append("diagonal: %s" % (D.diagonal(),))
    lines.append("cokernel: free rank %d, invariant factors %s"
                 % (structure.free_rank, list(structure.invariant_factors)))
    _emit(args, doc, "\n".join(lines))
    return 0


def _cmd_spec_enumerate(args) -> int:
    nodes, edges = spectool.parse_poset(_read_file(args.poset))
    # before build, so an oversize file with a cycle gets the size message
    spectool.check_enumerable(len(set(nodes)))
    P = spectool.SpecPoset.build(nodes, edges)
    closed = spectool.enumerate_closed(P)
    heights = P.heights()
    if args.format == "json":  # labels encoded once, one join per closed set
        quoted = {n: encode_basestring_ascii(n) for n in P.nodes}.__getitem__
        # the empty set comes first and prints as []; a poset has a node, so
        # at least one non-empty closed set follows
        rest = "\n    ],\n    [\n      ".join([",\n      ".join(map(quoted, c))
                                             for c in closed[1:]])
        _print('{\n  "closed_sets": [\n    [],\n    [\n      %s\n    ]\n  ],\n  "count": %d,'
               '\n  "heights": {\n    %s\n  },\n  "nodes": %s,\n  "schema": 1\n}' % (
                   rest, len(closed),
                   ",\n    ".join("%s: %d" % (quoted(n), heights[n]) for n in sorted(P.nodes)),
                   _json_list(P.nodes, "  ", quoted)))
    else:
        _print("\n".join(["nodes: %s" % ", ".join(P.nodes),
                          "heights: %s" % ", ".join("%s:%d" % (n, heights[n]) for n in P.nodes),
                          "count: %d" % len(closed)]
                         + ["closed: {%s}" % ", ".join(c) for c in closed]))
    return 0


# parser ----------------------------------------------------------------------

@functools.cache  # built once per process: building costs more than most commands
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


def run():
    """The `uniloc` command, for `python -m uniloc.cli` and the console script.

    main() answers from sys.argv.  Once it returns, the answer is out:
    stdout and stderr are flushed and os._exit ends the process with
    main()'s code, skipping the interpreter's teardown (clearing modules
    and freeing every object, several ms of a short call).  So atexit
    handlers and finalizers do not run; wrap main(argv) to profile or
    measure a call.  An exception out of main() is not caught: the
    interpreter prints its traceback and exits 1.
    """
    code = main()
    _flush(sys.stdout)
    _flush(sys.stderr)
    os._exit(code)


if __name__ == "__main__":
    run()
