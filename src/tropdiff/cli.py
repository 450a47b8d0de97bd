"""Command-line front end.

Thin wrappers over the library, one subcommand per operation.  JSON output is
written by jsonio.dumps, the one writer, whose bytes are those of
json.dumps(value, sort_keys=True, indent=2); list order is fixed by contract
(generators in input order, derivative indices graded, terms in display
order), so identical input produces byte-identical output.

Each invocation builds the parser of its own subcommand only; --help, no
arguments and an unknown command build every subcommand's parser.

Exit codes: 0 success, 2 parse or usage error, 3 domain error, 4 internal
inconsistency.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Sequence

from . import jsonio
from .diffpoly import DiffMonomial, DiffPoly, multi_indices, prolong
from .errors import (
    InconsistentOracle,
    InternalInconsistency,
    PolyParseError,
    SchemaError,
    TropdiffError,
)
from .orders import EQ, GT, LT, MonomialOrder, order_standard
from .parsing import parse_rational
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
# A generator over m unknowns has C(bound + m, m) derivatives up to the bound,
# and each costs more as the bound grows; the cap (about 5 s at m = 2) refuses
# a prolongation that would run for minutes before printing anything.
MAX_DERIVATIVES = 2000

_REL_NAME = {LT: "LT", EQ: "EQ", GT: "GT"}
_REL_SIGN = {LT: "<", EQ: "=", GT: ">"}


def _emit(args, to_json, to_pretty) -> int:
    """Print the requested rendering; only that one of the two is built."""
    if args.format == "json":
        print(jsonio.dumps(to_json()))
    else:
        for line in to_pretty():
            print(line)
    return 0


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_problem(args) -> jsonio.ProblemFile:
    return jsonio.problem_from(json.loads(_read_source(args.input)))


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
            f"bound {bound} asks for {size} derivatives, more than {MAX_DERIVATIVES}"
        )
    return bound


def _m_of(args) -> int | None:
    if args.m is not None and args.m < 1:
        raise SchemaError(f"--m must be a positive integer, got {args.m!r}")
    return args.m


# -- subcommands -------------------------------------------------------------


def cmd_trop(args) -> int:
    if args.expr is not None:
        source = args.expr
    elif args.input is not None:
        source = _read_source(args.input)
    else:
        raise SchemaError("no expression given: pass one or use --input")

    text = source.strip()
    decoded = json.loads(text) if text.startswith(("{", '"')) else text
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
        pairs += jsonio.pairs_from(json.loads(args.pairs), problem.m)
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
    texts = (args.phi, args.psi)
    first, second = (parse_rational(text, _m_of(args)) for text in texts)
    if first.m != second.m:  # both widths were inferred; parse again at the larger
        width = max(first.m, second.m)
        first, second = (parse_rational(text, width) for text in texts)
    witness = bezout_witness(first, second)
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
_COMMAND_NAMES = [name for name, *_ in _COMMANDS]


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of only the command named."""
    parser = argparse.ArgumentParser(
        prog="tropdiff",
        description="Exact tropical computations for differential polynomials.",
    )
    # An "unrecognized arguments" error prints this parser's usage line, which
    # must list every command either way.  Only the single-command parser sets
    # the metavar, because it would also rename the command in the errors of
    # the full parser (missing or unknown command), which this one never meets.
    every = None if only is None else "{%s}" % ",".join(_COMMAND_NAMES)
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for name, help_text, func, arguments in _COMMANDS:
        if only in (None, name):
            p = sub.add_parser(name, help=help_text)
            for flags, options in arguments:
                p.add_argument(*flags, **options)
            p.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # --help, no arguments and unknown commands need every command's parser
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMAND_NAMES else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message; fold --help's 0 through
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (PolyParseError, SchemaError, json.JSONDecodeError) as exc:
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
