"""Command line interface: ring catalog, classification, and the exact
arithmetic subcommands (class groups, torsion, Cech dimensions, Smith
normal form, poset enumeration).

The CLI parses the command line and prints.  Each subcommand reads its
input and lays out its answer in the module that computes it, so a call
compiles and runs only that module (see _lazy).

Exit codes: 0 success, 2 input error, 3 ring not representable,
4 inconclusive: an unknown classify answer, or a torsion order that
`ell torsion` cannot test on a model without integer coefficients.
"""

from __future__ import annotations

import functools
import importlib.util
import os
import sys
from types import SimpleNamespace

from .errors import InconclusiveError, InputError, NotRepresentableError, json_text, quote, record


def _lazy(name: str):
    """The module uniloc.<name>, registered now and run on first attribute access.

    It sits in sys.modules and on the package at once, as after an import,
    so a call compiles and runs only the modules its subcommand uses.
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


abgroup, elliptic, lcohom, quadorder, segre, spectool, verdict = map(
    _lazy, ("abgroup", "elliptic", "lcohom", "quadorder", "segre", "spectool", "verdict"))


# ring families ---------------------------------------------------------------

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
    --prime.  classify(ring, prime_spec, *values of reads) calls the family
    module's reader, which parses the ring and the prime and calls the
    family classifier; it is None for a family that is catalogued but not
    representable.  Each reader is looked up on its module at call time:
    the family modules load on first use (see _lazy), so holding a reader
    here would run its module, and a module attribute rebound after import
    applies.
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
        classify=lambda *spec: quadorder.classify_ring(*spec),
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
        classify=lambda *spec: elliptic.classify_ring(*spec),
    ),
    Family(
        "segre",
        (Row("segre",
             "the quadric cone k[X,Y,U,V]/(XU-YV); height-one homogeneous primes "
             "presented by bihomogeneous polynomials in S0,S1,T0,T1",
             '--prime "(X,V)" for a coordinate pair, or --fp "S0*T0^2 + S1*T1^2"'),),
        reads=("--fp", "--assert-irreducible"),
        classify=lambda *spec: segre.classify_ring(*spec),
    ),
    Family(
        "twoplanes",
        (Row("twoplanes", "k[X,Y,U]/(XU), two planes meeting in a line",
             '--prime "(X,Y)": any variable subset generating a prime',
             ("polynomial model standing in for the power series ring; the "
              "graded pieces and the (non)vanishing verdicts agree degreewise",)),),
        classify=lambda *spec: lcohom.classify_twoplanes_ring(*spec),
    ),
    Family(
        "dim3hyper",
        (Row("dim3hyper",
             "k[X,Y,U,V]/(XU-YV) as a three dimensional hypersurface singularity",
             '--prime one of "(X,Y)", "(X,V)", "(Y,U)", "(U,V)", or "(X,Y,U,V)"',
             ("certificates run on the monomial surrogate k[X,Y,U,V]/(XU): "
              "killing Y or V gives the same quotient for both rings",)),),
        classify=lambda *spec: lcohom.classify_dim3hyper_ring(*spec),
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
             asserted: bool = False) -> verdict.Verdict:
    """Parse the prime for the ring's family and run the family classifier,
    which takes only the parsed ring and prime."""
    ring = ring.strip()
    family = next((f for f in FAMILIES if f.matches(ring)), None)
    if family is None:
        raise InputError("unknown ring %s; see `uniloc catalog list`" % quote(ring))
    if family.classify is None:
        raise NotRepresentableError(
            "%s is catalogued but carries no finite presentation; "
            "nothing can be computed for it" % (ring,))
    options = {"--fp": fp, "--assert-irreducible": asserted}
    for option, value in options.items():
        if value and option not in family.reads:
            raise InputError("%s does not apply to %s" % (option, quote(ring, str)))
    return family.classify(ring, prime_spec, *map(options.get, family.reads))


# subcommand handlers ---------------------------------------------------------

def _read_file(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError as exc:  # as str(exc) reads, but with the path quoted
        raise InputError("cannot read %s: [Errno %s] %s: %s" % (
            quote(path, str), exc.errno, exc.strerror, quote(path))) from None


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
    _print(json_text({"schema": 1, "entries": entries}) if args.format == "json"
           else "\n".join(lines))
    return 0


def _cmd_classify(args) -> int:
    answer = classify(args.ring, args.prime or "", args.fp or "", args.assert_irreducible)
    _print(answer.to_json() if args.format == "json" else answer.to_text())
    return 0 if answer.rule.conclusive else 4


def _cmd_classgroup(args) -> int:
    _print(quadorder.classgroup_text(args.disc, args.format == "json"))
    return 0


def _cmd_ell_torsion(args) -> int:
    _print(elliptic.torsion_text(args.curve, args.point, args.format == "json"))
    return 0


def _cmd_cech(args) -> int:
    _print(lcohom.cech_text(args.vars, args.rel, args.ideal, args.i, args.box,
                            args.format == "json"))
    return 0


def _cmd_snf(args) -> int:
    _print(abgroup.snf_text(_read_file(args.matrix), args.matrix, args.format == "json"))
    return 0


def _cmd_spec_enumerate(args) -> int:
    _print(spectool.enumerate_text(_read_file(args.poset), args.format == "json"))
    return 0


# command table ---------------------------------------------------------------

@record
class Option:
    """One option of a command, as argparse takes it: its type is str, int,
    or bool for a flag (store_true)."""

    name: str
    type: type = str
    default: object = None
    required: bool = False
    choices: tuple = None
    help: str = None


@record
class Command:
    """A command path, its help and, when it runs, its handler and its
    options in the order of its usage line; a path with subcommands has no
    handler."""

    words: tuple
    help: str
    handler: object = None
    options: tuple = ()


FORMAT = Option("--format", choices=("text", "json"), default="text")

# the CLI grammar, a parent before its subcommands
COMMANDS = (
    Command(("catalog",), "catalog operations"),
    Command(("catalog", "list"), "list built-in rings", _cmd_catalog_list, (FORMAT,)),
    Command(("classify",), "flat / universal / classical verdict for V(p)", _cmd_classify, (
        Option("--ring", required=True),
        Option("--prime", default=""),
        Option("--fp", default="", help="bihomogeneous polynomial for segre primes"),
        Option("--assert-irreducible", bool, False,
               help="assert irreducibility of --fp above degree 2"),
        FORMAT)),
    Command(("classgroup",), "reduced forms and class number", _cmd_classgroup, (
        Option("--disc", int, required=True, help="fundamental discriminant, e.g. -20"),
        FORMAT)),
    Command(("ell",), "elliptic curve utilities"),
    Command(("ell", "torsion"), "torsion order of a point", _cmd_ell_torsion, (
        Option("--curve", required=True, help='"a,b" coefficients'),
        Option("--point", required=True, help='"x,y" or "O"'),
        FORMAT)),
    Command(("cech",), "multigraded local cohomology dims", _cmd_cech, (
        Option("--vars", required=True, help="comma separated names"),
        Option("--rel", default="", help="comma separated squarefree monomials, e.g. XU"),
        Option("--ideal", required=True, help="comma separated generators"),
        Option("--i", int, required=True),
        Option("--box", int, 3, help="display range |a_j| <= N of the dimension table"),
        FORMAT)),
    Command(("snf",), "Smith normal form of an integer matrix", _cmd_snf, (
        Option("--matrix", required=True, help='file: first line "rows cols", then the rows'),
        FORMAT)),
    Command(("spec",), "finite spectrum posets"),
    Command(("spec", "enumerate"), "all specialisation closed subsets", _cmd_spec_enumerate, (
        Option("--poset", required=True, help='file of lines "child < parent"'),
        FORMAT)),
)

# words -> (command, {option name: (option, its namespace attribute)})
_GRAMMAR = {command.words: (command, {o.name: (o, o.name[2:].replace("-", "_"))
                                      for o in command.options})
            for command in COMMANDS}


def _negative_number(value: str) -> bool:
    """Whether argparse takes value for a negative number, and so for the
    value of an option where any other word starting with "-" is an
    option: -<digits> or -[<digits>].<digits>, as its
    _negative_number_matcher reads them."""
    whole, dot, fraction = value[1:].partition(".")
    return value[:1] == "-" and ((whole.isdecimal() and not dot)
                                 or (fraction.isdecimal() and (whole.isdecimal() or not whole)))


def read_argv(argv):
    """The namespace that build_parser().parse_args(argv) returns, read
    without argparse, or None.

    It reads only well-formed argv: the words of a command that runs,
    then its options by their exact names, as --name value or
    --name=value, with a value that does not start with "-" unless it is
    a negative number (or, after "=", that is not "--"), that int() reads
    for an int option and that is one of the choices of --format, and
    with every required option present.  A repeated option keeps its last
    value, as in argparse.  Anything else gives None and argparse answers,
    so help, usage errors, abbreviated options and "--" print what they
    always printed.
    """
    namespace, words = {}, ()
    args = iter(argv)
    while True:
        word = next(args, None)
        if words + (word,) not in _GRAMMAR:
            return None
        namespace["_".join(words + ("command",))] = word
        words += (word,)
        command, options = _GRAMMAR[words]
        if command.handler is not None:
            break
    for option, dest in options.values():
        namespace[dest] = option.default
    for arg in args:
        if arg in options:
            option, dest = options[arg]
            if option.type is bool:
                namespace[dest] = True
                continue
            value = next(args, None)
            if value is None or value[:1] == "-" and not _negative_number(value):
                return None
        else:  # --name=value, where argparse reads the value "--" as none
            name, eq, value = arg.partition("=")
            if not eq or value == "--" or name not in options or options[name][0].type is bool:
                return None
            option, dest = options[name]
        try:
            namespace[dest] = option.type(value)
        except ValueError:
            return None
        if option.choices and value not in option.choices:
            return None
    if any(option.required and namespace[dest] is None for option, dest in options.values()):
        return None
    namespace["func"] = command.handler
    return SimpleNamespace(**namespace)


@functools.cache  # built once per process: building costs more than most commands
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of COMMANDS.  main() builds it only for an argv
    that read_argv leaves to it: help, and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="uniloc",
        description="classify localisations of catalogued noetherian rings "
                    "with exact arithmetic")
    parsers, subparsers = {(): parser}, {}
    for command in COMMANDS:
        parent = command.words[:-1]
        if parent not in subparsers:
            subparsers[parent] = parsers[parent].add_subparsers(
                dest="_".join(parent + ("command",)))
        sub = parsers[command.words] = subparsers[parent].add_parser(
            command.words[-1], help=command.help)
        for option in command.options:
            if option.type is bool:
                sub.add_argument(option.name, action="store_true", help=option.help)
            else:
                sub.add_argument(option.name, type=option.type, default=option.default,
                                 required=option.required, choices=option.choices,
                                 help=option.help)
        if command.handler is not None:
            sub.set_defaults(func=command.handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = read_argv(argv)
    if args is None:  # help or a usage error, or a form only argparse reads
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
