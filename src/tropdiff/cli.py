"""Command-line front end.

Thin wrappers over the library, one subcommand per operation.  JSON output is
written by jsonio.dumps, the one writer, whose bytes are those of
json.dumps(value, sort_keys=True, indent=2); list order is fixed by contract
(generators in input order, derivative indices graded, terms in display
order), so identical input produces byte-identical output.

A subcommand call parses its arguments once, with a parser built from that
command's row of _COMMANDS alone.  The parser is built on the first call that
names the command and reused by every later call in the same process; it holds
the row's argument declarations and nothing else.  The top-level parser names
the commands and declares none of their arguments: it prints --help, and the
error for no arguments, an unknown command, or arguments the command's parser
leaves over.

Input comes in one way: _read_source reads a file and stdin ('-') alike as
bytes, with one UTF-8 decode that does not depend on the locale.  JSON input
is decoded by _json, which reports input that json.loads refuses as exit 2 in
every case: a syntax error as json.JSONDecodeError, nesting deeper than
MAX_JSON_NESTING or an integer with too many digits as a SchemaError.

Output goes out one way: _emit builds the whole text of the chosen format
before it prints any, and refuses an integer with more digits than the
interpreter writes as text (a coefficient, an exponent, a point of a vertex
set, a multi-index or a power) as a SchemaError, so nothing is printed.

Exit codes: 0 success, 2 parse or usage error or a power too large to
expand, 3 domain error, 4 internal inconsistency.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import re
import sys
from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate

from . import jsonio
from .diffpoly import DiffMonomial, DiffPoly, multi_indices, prolong
from .errors import (
    InconsistentOracle,
    InternalInconsistency,
    PolyParseError,
    SchemaError,
    TropdiffError,
    shown,
    width,
)
from .orders import EQ, GT, LT, MonomialOrder, order_standard
from .parsing import inferred_width, parse_rational
from .series import (
    bezout_witness,
    max_ideal_member,
    order_from_membership,
    residue,
    trop_frac,
)
from .translation import initial_form, initial_generators, translate, tropw
from .vertexpoly import VertexPoly, omega_chain
from .weights import BooleanWeight, SubstitutionKernel

# Each chain element costs a few exact vertex extractions, so the run time grows
# linearly with --count; the cap keeps a run to seconds instead of hours.
MAX_OMEGA_COUNT = 1000
# A generator over m unknowns has C(bound + m, m) derivatives up to the bound.
# The cap bounds that number, not the time: each derivative also grows, and a
# coefficient's denominator squares with each derivative, so a one-term
# generator with coefficient 1/(t + u) takes seconds to minutes well under it.
MAX_DERIVATIVES = 2000
# Decoding JSON, and reading the decoded value, take a stack frame per level;
# the cap keeps both far below the interpreter's recursion limit on every
# version, where the decoder's own limit differs between versions.
MAX_JSON_NESTING = 100
# an ASCII bracket as a signed byte, 1 for an opening one and -1 for a closing one
_DEPTH_STEP = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")
_NOT_A_BRACKET = bytes(c for c in range(128) if c not in b"[]{}")

_REL_NAME = {LT: "LT", EQ: "EQ", GT: "GT"}
_REL_SIGN = {LT: "<", EQ: "=", GT: ">"}


def _emit(args, to_json, to_pretty) -> int:
    """Print the requested rendering; only that one of the two is built, and
    whole before any of it is printed.  An integer with more digits than the
    interpreter writes as text, anywhere in it, is a SchemaError, and nothing
    is printed."""
    try:
        lines = [jsonio.dumps(to_json())] if args.format == "json" else list(to_pretty())
    except ValueError as exc:
        # the interpreter's digit limit raises a plain ValueError, told by its message
        if "integer string conversion" not in str(exc):
            raise
        raise SchemaError(
            f"output holds an integer with more than {sys.get_int_max_str_digits()} digits"
        ) from None
    for line in lines:
        print(line)
    return 0


def _read_source(path: str) -> str:
    """The text of path, or of stdin for '-'; text that does not decode is a SchemaError.

    A file and stdin alike are read as bytes and decoded as UTF-8 in one call,
    whatever the locale, with the universal newlines that text mode applies:
    "\\r\\n" and a lone "\\r" read as "\\n".  One leading byte-order mark is
    dropped after the decode.  A byte that does not decode is reported at its
    offset in the input, as text mode reports it.  A closed stdin is an
    OSError, as a missing file is.
    """
    try:
        if path == "-":
            if sys.stdin is None:  # closed before the interpreter started
                raise OSError(errno.EBADF, os.strerror(errno.EBADF), path)
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as handle:
                data = handle.read()
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"input is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.removeprefix("\ufeff")


def _json(text: str):
    """json.loads(text), refusing nesting above MAX_JSON_NESTING and integers
    that int() refuses as a SchemaError; a syntax error stays a JSONDecodeError."""
    # a value nests at most as deep as it has brackets, so only text with more
    # than the cap needs the scan.  It drops the strings as the decoder reads
    # them, by "(?:[^"\\]|\\.)*" unrolled (the same strings, matched without an
    # alternation per character), keeps the brackets as steps of the depth, and
    # takes the greatest depth a prefix reaches.
    if text.count("[") + text.count("{") > MAX_JSON_NESTING:
        outside = re.sub(r'"[^"\\]*(?:\\.[^"\\]*)*"', "", text).encode("ascii", "ignore")
        steps = memoryview(outside.translate(_DEPTH_STEP, _NOT_A_BRACKET)).cast("b")
        if max(accumulate(steps), default=0) > MAX_JSON_NESTING:
            raise SchemaError(f"JSON input nests deeper than {MAX_JSON_NESTING}")
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:  # the interpreter's limit on the digits of an int
        raise SchemaError("JSON input holds an integer with too many digits") from None


def _load_problem(args) -> jsonio.ProblemFile:
    return jsonio.problem_from(_json(_read_source(args.input)))


def _selected(problem: jsonio.ProblemFile, names: Sequence[str]):
    if not names:
        return list(problem.polynomials)
    table = dict(problem.polynomials)
    missing = [name for name in names if name not in table]
    if missing:
        raise SchemaError(f"unknown polynomial name(s): {', '.join(missing)}")
    return [(name, table[name]) for name in names]


def _declared(value, what: str):
    if value is None:
        raise SchemaError(f"problem file declares no {what}")
    return value


def _kernel_of(args, problem: jsonio.ProblemFile) -> SubstitutionKernel:
    # argparse's choices already hold --kernel to a kernel name
    return problem.kernel if args.kernel is None else SubstitutionKernel(args.kernel)


def _bound_of(args, problem: jsonio.ProblemFile, generators: int) -> int:
    """The prolongation bound, refused when the derivatives would exceed the cap."""
    bound = problem.prolong_bound if args.bound is None else args.bound
    if bound < 0:
        raise SchemaError(f"--bound must be a nonnegative integer, got {args.bound!r}")
    size = generators * math.comb(bound + problem.m, problem.m)
    if size > MAX_DERIVATIVES:
        raise SchemaError(
            f"bound {shown(bound)} asks for {shown(size)} derivatives, more than {MAX_DERIVATIVES}"
        )
    return bound


def _m_of(args) -> int | None:
    if args.m is None:
        return None
    try:
        return width(args.m, "--m")
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


# -- subcommands -------------------------------------------------------------


def cmd_trop(args) -> int:
    if args.expr is not None:
        source = args.expr
    elif args.input is not None:
        source = _read_source(args.input)
    else:
        raise SchemaError("no expression given: pass one or use --input")

    text = source.strip()
    decoded = _json(text) if text.startswith(("{", '"')) else text
    vf = trop_frac(jsonio.rational_from(decoded, _m_of(args)))
    return _emit(args, lambda: jsonio.vertexfraction_json(vf), lambda: [str(vf)])


def cmd_tropw(args) -> int:
    problem = _load_problem(args)
    weights = _declared(problem.weights, "weight")
    values = [(name, tropw(poly, weights)) for name, poly in _selected(problem, args.names)]
    return _emit(
        args,
        lambda: [{"name": n, "value": jsonio.vertexfraction_json(v)} for n, v in values],
        lambda: [f"{n}: {v}" for n, v in values],
    )


def _emit_derivatives(args, problem: jsonio.ProblemFile, step) -> int:
    """Emit step(d^J P) for each selected P and each |J| <= bound."""
    selected = _selected(problem, args.names)
    bound = _bound_of(args, problem, len(selected))
    indices = multi_indices(problem.m, bound)
    rows = [
        (name, list(J), step(derived))
        for name, poly in selected
        for J, derived in zip(indices, prolong(poly, bound))
    ]
    return _emit(
        args,
        lambda: [{"name": n, "J": J, "poly": jsonio.diffpoly_json(q)} for n, J, q in rows],
        lambda: [f"{n} J={J}: {q}" for n, J, q in rows],
    )


def cmd_translate(args) -> int:
    problem = _load_problem(args)
    weights = _declared(problem.weights, "weight")
    kernel = _kernel_of(args, problem)
    return _emit_derivatives(args, problem, lambda q: translate(q, weights, kernel))


def cmd_initial(args) -> int:
    problem = _load_problem(args)
    weights = _declared(problem.weights, "weight")
    order = _declared(problem.order, "order")
    kernel = _kernel_of(args, problem)
    generators = [poly for _, poly in _selected(problem, args.names)]
    bound = _bound_of(args, problem, len(generators))
    forms = initial_generators(generators, weights, order, bound, kernel)
    return _emit(args, lambda: list(map(jsonio.diffpoly_json, forms)), lambda: map(str, forms))


def cmd_prolong(args) -> int:
    return _emit_derivatives(args, _load_problem(args), lambda q: q)


def cmd_order_recover(args) -> int:
    problem = _load_problem(args)
    order = _declared(problem.order, "order")
    pairs = list(problem.pairs)
    if args.pairs is not None:
        pairs += jsonio.pairs_from(_json(args.pairs), problem.m)
    relations = []
    for I, J in pairs:
        recovered = order_from_membership(lambda q: max_ideal_member(q, order), I, J)
        direct = order.compare(I, J)
        if recovered != direct:
            raise InternalInconsistency(
                f"membership oracle recovered {_REL_NAME[recovered]} for {I}, {J} "
                f"but direct comparison says {_REL_NAME[direct]}"
            )
        relations.append((list(I), list(J), recovered))
    return _emit(
        args,
        lambda: [{"I": I, "J": J, "relation": _REL_NAME[r]} for I, J, r in relations],
        lambda: [f"{I} {_REL_SIGN[r]} {J}" for I, J, r in relations],
    )


def cmd_bezout(args) -> int:
    m = _m_of(args) or inferred_width(args.phi, args.psi)
    witness = bezout_witness(parse_rational(args.phi, m), parse_rational(args.psi, m))
    return _emit(args, lambda: {"M": witness}, lambda: [f"M = {witness}"])


def cmd_omega_chain(args) -> int:
    if not 1 <= args.count <= MAX_OMEGA_COUNT:
        raise SchemaError(f"count must be between 1 and {MAX_OMEGA_COUNT}, got {args.count}")
    chain = omega_chain(args.count)
    for earlier, later in zip(chain, chain[1:]):
        if not (earlier <= later and earlier != later):
            raise InternalInconsistency("chain failed to increase")
    return _emit(
        args,
        lambda: list(map(jsonio.vertexfraction_json, chain)),
        lambda: [f"omega_{k} = {value}" for k, value in enumerate(chain, 1)],
    )


# -- selftest ----------------------------------------------------------------


def _selftest_checks():
    t_lex = order_standard("lex", 2)
    u_lex = MonomialOrder([[1, 0], [0, 1]])

    yield (
        "trop t1/(t1+t2)",
        lambda: jsonio.vertexfraction_json(trop_frac(parse_rational("t1/(t1+t2)")))
        == {"den": [[1, 0], [0, 1]], "num": [[1, 0]]},
    )
    yield (
        "vertex extraction drops dominated points",
        lambda: VertexPoly(2, [(3, 0), (2, 2), (1, 1), (0, 3)]).points
        == ((0, 3), (1, 1), (3, 0)),
    )

    x = DiffPoly.variable
    P = x(2, 1, 1, (1, 1)) - DiffPoly(2, 1, {DiffMonomial.var(1, (0, 0)): parse_rational("t", 2)})
    w = [BooleanWeight.cofinite(2, [(1, 1)])]

    yield (
        "weighted value of the running example",
        lambda: jsonio.vertexfraction_json(tropw(P, w))
        == {"den": [[0, 0]], "num": [[1, 0], [0, 1]]},
    )
    yield (
        "translation coefficient lands on -t/(t+u)",
        lambda: translate(P, w).coeff(DiffMonomial.var(1, (0, 0)))
        == parse_rational("-t/(t+u)", 2),
    )
    yield (
        "initial form, u smallest",
        lambda: initial_form(P, w, u_lex) == x(2, 1, 1, (1, 1)),
    )
    yield (
        "initial form, t smallest",
        lambda: initial_form(P, w, t_lex) == x(2, 1, 1, (1, 1)) - x(2, 1, 1, (0, 0)),
    )

    def growing():
        chain = omega_chain(5)
        return all(
            a <= b and a != b and b.in_unit_ball() for a, b in zip(chain, chain[1:])
        )

    yield ("unit-ball chain grows strictly", growing)
    yield (
        "bezout witness for t, u-t",
        lambda: bezout_witness(parse_rational("t", 2), parse_rational("-t+u", 2)) == 2,
    )
    yield (
        "order recovery on a lex pair",
        lambda: order_from_membership(
            lambda q: max_ideal_member(q, t_lex), (1, 0), (0, 1)
        )
        == LT,
    )
    yield (
        "residues of (t+2u)/(t+u) under both orders",
        lambda: (
            residue(parse_rational("(t+2*u)/(t+u)"), t_lex),
            residue(parse_rational("(t+2*u)/(t+u)"), u_lex),
        )
        == (Fraction(1), Fraction(2)),
    )


def cmd_selftest(args) -> int:
    passed = []
    for label, check in _selftest_checks():
        try:
            ok = bool(check())
        except TropdiffError:
            ok = False
        print(f"{'ok' if ok else 'FAIL'}: {label}")
        passed.append(ok)
    print(f"selftest: {sum(passed)}/{len(passed)} checks passed")
    return 0 if all(passed) else 4


# -- argument parsing --------------------------------------------------------

# An argument is (flags, add_argument keywords); a command is (name, help,
# handler, arguments).  The parser is built from this table alone.
_FORMAT = (("--format",), dict(
    choices=("json", "pretty"), default="json",
    help="output as canonical JSON (default) or human-readable text",
))
_NAMES = (("names",), dict(nargs="*", help="polynomial names to use (default: all)"))
_PROBLEM = (("--input",), dict(required=True, help="problem file, - for stdin"))
_BOUND = (("--bound",), dict(type=int, help="derivative bound override"))
_KERNEL = (("--kernel",), dict(
    choices=[k.value for k in SubstitutionKernel], help="substitution kernel override"
))

_COMMANDS = (
    ("trop", "tropical value of a rational function", cmd_trop, (
        _FORMAT,
        (("expr",), dict(nargs="?", help="expression text such as 't1/(t1+t2)'")),
        (("--input",), dict(help="read the expression or its JSON from a file, - for stdin")),
        (("--m",), dict(type=int, help="number of variables (default: inferred, at least 2)")),
    )),
    ("tropw", "weighted tropical value of each polynomial", cmd_tropw,
     (_FORMAT, _NAMES, _PROBLEM)),
    ("translate", "translated derivatives up to the bound", cmd_translate,
     (_FORMAT, _NAMES, _PROBLEM, _BOUND, _KERNEL)),
    ("initial", "initial form generator set", cmd_initial,
     (_FORMAT, _NAMES, _PROBLEM, _BOUND, _KERNEL)),
    ("prolong", "derivatives up to the bound", cmd_prolong,
     (_FORMAT, _NAMES, _PROBLEM, _BOUND)),
    ("order-recover", "recover exponent comparisons from ideal membership", cmd_order_recover, (
        _FORMAT,
        (("--input",), dict(required=True, help="problem file with an order, - for stdin")),
        (("--pairs",), dict(help="extra pairs as JSON, e.g. '[[[1,0],[0,1]]]'")),
    )),
    ("bezout", "smallest witness M for a pair", cmd_bezout, (
        _FORMAT,
        (("phi",), dict(help="first rational function")),
        (("psi",), dict(help="second rational function (put -- before a leading minus)")),
        (("--m",), dict(type=int, help="number of variables")),
    )),
    ("omega-chain", "strictly growing unit-ball values omega_1 .. omega_count", cmd_omega_chain,
     (_FORMAT, (("--count",), dict(type=int, default=5, help="chain length (default 5)")))),
    ("selftest", "run the built-in golden checks", cmd_selftest, ()),
)


def _build_parser() -> argparse.ArgumentParser:
    """The top level alone: each command's name and help, none of its arguments."""
    parser = argparse.ArgumentParser(
        prog="tropdiff",
        description="Exact tropical computations for differential polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, _, _ in _COMMANDS:
        sub.add_parser(name, help=help_text)
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command, from its row of _COMMANDS alone; built on
    first use and kept, since it holds only the row's argument declarations."""
    (arguments,) = [arguments for row_name, _, _, arguments in _COMMANDS if row_name == name]
    # the prog that a subparser of the top level would have
    parser = argparse.ArgumentParser(prog="tropdiff " + name)
    for flags, options in arguments:
        parser.add_argument(*flags, **options)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The parsed arguments of a call; argparse exits on help and on every usage error."""
    for name, _, func, _ in _COMMANDS:
        if argv[:1] == [name]:
            args, rest = _command_parser(name).parse_known_args(argv[1:])
            if rest:
                _build_parser().error("unrecognized arguments: " + " ".join(rest))
            args.func = func
            return args
    # --help, no arguments or an unknown command: the top level prints the
    # help or the error
    return _build_parser().parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message; fold --help's 0 through
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (PolyParseError, SchemaError, json.JSONDecodeError, OverflowError) as exc:
        # an OverflowError is a power too large to expand or to build (series._power)
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 2
    except (InconsistentOracle, InternalInconsistency) as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 4
    except TropdiffError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
