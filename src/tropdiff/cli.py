"""Command-line front end.

Thin wrappers over the library, one subcommand per operation.  JSON output is
deterministic: keys sorted, two-space indent, list order fixed by contract
(generators in input order, derivative indices graded, terms in display
order), so identical input produces byte-identical output.

Exit codes: 0 success, 2 parse or usage error, 3 domain error, 4 internal
inconsistency.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any, Sequence

from . import jsonio
from .diffpoly import DiffMonomial, DiffPoly, multi_indices, prolong
from .errors import (
    InconsistentOracle,
    InternalInconsistency,
    PolyParseError,
    SchemaError,
    TropdiffError,
)
from .orders import EQ, GT, LT, order_standard, order_validate
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

_REL_NAME = {LT: "LT", EQ: "EQ", GT: "GT"}
_REL_SIGN = {LT: "<", EQ: "=", GT: ">"}


def _emit(args, payload: Any, pretty_lines: list[str]) -> int:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in pretty_lines:
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


def _weights_of(problem: jsonio.ProblemFile) -> list[BooleanWeight]:
    if problem.weights is None:
        raise SchemaError("problem file declares no weight")
    return problem.weights


def _order_of(problem: jsonio.ProblemFile):
    if problem.order is None:
        raise SchemaError("problem file declares no order")
    return problem.order


def _kernel_of(args, problem: jsonio.ProblemFile) -> SubstitutionKernel:
    if args.kernel is not None:
        return SubstitutionKernel.from_string(args.kernel)
    return problem.kernel


def _bound_of(args, problem: jsonio.ProblemFile) -> int:
    return problem.prolong_bound if args.bound is None else args.bound


# -- subcommands -------------------------------------------------------------


def cmd_trop(args) -> int:
    if args.expr is not None:
        source = args.expr
    elif args.input is not None:
        source = _read_source(args.input).strip()
    else:
        raise SchemaError("no expression given: pass one or use --input")

    stripped = source.strip()
    if stripped.startswith("{") or stripped.startswith('"'):
        decoded = json.loads(stripped)
        if isinstance(decoded, str):
            value = parse_rational(decoded, args.m)
        else:
            value = jsonio.rational_from(decoded, args.m)
    else:
        value = parse_rational(stripped, args.m)

    vf = trop_frac(value)
    return _emit(args, jsonio.vertexfraction_json(vf), [str(vf)])


def cmd_tropw(args) -> int:
    problem = _load_problem(args)
    weights = _weights_of(problem)
    payload = []
    lines = []
    for name, poly in _selected(problem, args.names):
        value = tropw(poly, weights)
        payload.append({"name": name, "value": jsonio.vertexfraction_json(value)})
        lines.append(f"{name}: {value}")
    return _emit(args, payload, lines)


def _emit_derivatives(args, problem: jsonio.ProblemFile, step) -> int:
    """Emit step(d^J P) for each selected P and each |J| <= bound."""
    bound = _bound_of(args, problem)
    indices = multi_indices(problem.m, bound)
    payload = []
    lines = []
    for name, poly in _selected(problem, args.names):
        for J, derived in zip(indices, prolong(poly, bound)):
            image = step(derived)
            payload.append(
                {"name": name, "J": list(J), "poly": jsonio.diffpoly_json(image)}
            )
            lines.append(f"{name} J={list(J)}: {image}")
    return _emit(args, payload, lines)


def cmd_translate(args) -> int:
    problem = _load_problem(args)
    weights = _weights_of(problem)
    kernel = _kernel_of(args, problem)
    return _emit_derivatives(args, problem, lambda q: translate(q, weights, kernel))


def cmd_initial(args) -> int:
    problem = _load_problem(args)
    weights = _weights_of(problem)
    order = _order_of(problem)
    kernel = _kernel_of(args, problem)
    bound = _bound_of(args, problem)
    generators = [poly for _, poly in _selected(problem, args.names)]
    forms = initial_generators(generators, weights, order, bound, kernel)
    payload = [jsonio.diffpoly_json(form) for form in forms]
    lines = [str(form) for form in forms]
    return _emit(args, payload, lines)


def cmd_prolong(args) -> int:
    return _emit_derivatives(args, _load_problem(args), lambda q: q)


def cmd_order_recover(args) -> int:
    problem = _load_problem(args)
    order = _order_of(problem)
    pairs = list(problem.pairs)
    if args.pairs is not None:
        pairs += jsonio.pairs_from(json.loads(args.pairs), problem.m)

    def oracle(q):
        return max_ideal_member(q, order)

    payload = []
    lines = []
    for I, J in pairs:
        recovered = order_from_membership(oracle, I, J)
        direct = order.compare(I, J)
        if recovered != direct:
            raise InternalInconsistency(
                f"membership oracle recovered {_REL_NAME[recovered]} for {I}, {J} "
                f"but direct comparison says {_REL_NAME[direct]}"
            )
        payload.append({"I": list(I), "J": list(J), "relation": _REL_NAME[recovered]})
        lines.append(f"{list(I)} {_REL_SIGN[recovered]} {list(J)}")
    return _emit(args, payload, lines)


def cmd_bezout(args) -> int:
    first = parse_rational(args.phi, args.m)
    second = parse_rational(args.psi, args.m)
    if args.m is None and first.m != second.m:
        width = max(first.m, second.m)
        first = parse_rational(args.phi, width)
        second = parse_rational(args.psi, width)
    witness = bezout_witness(first, second)
    return _emit(args, {"M": witness}, [f"M = {witness}"])


def cmd_omega_chain(args) -> int:
    if args.count < 1:
        raise SchemaError("count must be at least 1")
    chain = omega_chain(args.count)
    for earlier, later in zip(chain, chain[1:]):
        if not (earlier <= later and earlier != later):
            raise InternalInconsistency("chain failed to increase")
    payload = [jsonio.vertexfraction_json(value) for value in chain]
    lines = [f"omega_{k + 1} = {value}" for k, value in enumerate(chain)]
    return _emit(args, payload, lines)


# -- selftest ----------------------------------------------------------------


def _selftest_checks():
    t_lex = order_standard("lex", 2)
    u_lex = order_validate([[1, 0], [0, 1]])

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
    failures = 0
    total = 0
    for label, check in _selftest_checks():
        total += 1
        try:
            ok = bool(check())
        except TropdiffError:
            ok = False
        print(f"{'ok' if ok else 'FAIL'}: {label}")
        if not ok:
            failures += 1
    print(f"selftest: {total - failures}/{total} checks passed")
    return 0 if failures == 0 else 4


# -- argument parsing --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format",
        choices=("json", "pretty"),
        default="json",
        help="output as canonical JSON (default) or human-readable text",
    )

    parser = argparse.ArgumentParser(
        prog="tropdiff",
        description="Exact tropical computations for differential polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trop", parents=[shared], help="tropical value of a rational function")
    p.add_argument("expr", nargs="?", help="expression text such as 't1/(t1+t2)'")
    p.add_argument("--input", help="read the expression or its JSON from a file, - for stdin")
    p.add_argument("--m", type=int, help="number of variables (default: inferred, at least 2)")
    p.set_defaults(func=cmd_trop)

    def problem_command(name, help_text, func, bound=False, kernel=False):
        q = sub.add_parser(name, parents=[shared], help=help_text)
        q.add_argument("names", nargs="*", help="polynomial names to use (default: all)")
        q.add_argument("--input", required=True, help="problem file, - for stdin")
        if bound:
            q.add_argument("--bound", type=int, help="derivative bound override")
        if kernel:
            q.add_argument(
                "--kernel",
                choices=("indicator", "factorial"),
                help="substitution kernel override",
            )
        q.set_defaults(func=func)

    problem_command("tropw", "weighted tropical value of each polynomial", cmd_tropw)
    problem_command(
        "translate", "translated derivatives up to the bound", cmd_translate,
        bound=True, kernel=True,
    )
    problem_command(
        "initial", "initial form generator set", cmd_initial, bound=True, kernel=True
    )
    problem_command("prolong", "derivatives up to the bound", cmd_prolong, bound=True)

    p = sub.add_parser(
        "order-recover",
        parents=[shared],
        help="recover exponent comparisons from ideal membership",
    )
    p.add_argument("--input", required=True, help="problem file with an order, - for stdin")
    p.add_argument("--pairs", help="extra pairs as JSON, e.g. '[[[1,0],[0,1]]]'")
    p.set_defaults(func=cmd_order_recover)

    p = sub.add_parser("bezout", parents=[shared], help="smallest witness M for a pair")
    p.add_argument("phi", help="first rational function")
    p.add_argument("psi", help="second rational function (put -- before a leading minus)")
    p.add_argument("--m", type=int, help="number of variables")
    p.set_defaults(func=cmd_bezout)

    p = sub.add_parser(
        "omega-chain",
        parents=[shared],
        help="strictly growing unit-ball values omega_1 .. omega_count",
    )
    p.add_argument("--count", type=int, default=5, help="chain length (default 5)")
    p.set_defaults(func=cmd_omega_chain)

    p = sub.add_parser("selftest", help="run the built-in golden checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
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
