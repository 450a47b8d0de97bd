"""The package needs nothing outside the standard library, uses no floating
point, and has no check that python -O would strip.

Checked on the syntax tree of every module in src/tropdiff: an import must
name a standard-library module or the package itself, no float (or complex)
literal and no float(...) call may appear, and there is no assert statement,
wherever it sits (a line-based search misses `if c: assert x`).
Nor may a module import dataclasses, typing or inspect: each is paid by every
CLI call, and dataclasses alone pulls in inspect, ast, dis and tokenize.
tests/test_startup.py also catches a heavy module that comes in through
another import.

QPoly's integer representation, and the hash and square it keeps, are
private to series: no other module names one of its fields, as an attribute
or as a string (getattr).  The field names are read from QPoly itself, so
renaming them keeps the rule in force.
Likewise a class that keeps values derived from an object on it declares
private slots only (underscore names in __slots__), so what they were
derived from is read through read-only properties and cannot be rebound
under a kept value.  Each such slot is private to the module of the class,
and one memo rule covers every one: only weights names a private slot of
BooleanWeight (its set, its shifts, its vertex set and its substitution
polynomials), only series one of RationalFunction (num, den, the unit-ball
verdict and the partial derivatives), and only diffpoly
one of DiffMonomial (its factors, its kept hash and its bumps).  So no
module can plant a kept value that its owner would trust.  The slot names
are read from the classes, so a new slot is covered as soon as it is
declared.

Exponents are added by one function: vertexpoly._adder(m), the exponent sum
at width m, which the products of series (_product, the one product of int
polynomials that QPoly and the parser use, and QPoly.sum_of_products) and of
vertexpoly (VertexPoly's * and sum_of_products) call.  So no module names
operator.add, as an attribute or by importing it from operator; only
vertexpoly defines _adder, and only series and vertexpoly name it; and eval,
by which _adder builds its function, is named nowhere in the package but
inside vertexpoly._adder.  A second spelling of the exponent sum cannot come
back, and no other text is run as code.

The math layer knows no schema and no process: only the modules that read
and write the CLI's formats (cli and jsonio) name SchemaError, besides errors,
which defines it, and the package, which exports it; and only cli imports
sys.  So an output integer too long to write is refused at the CLI's one
output boundary, cli._emit, not inside a module that computes.

The exact simplex has one caller: only vertexpoly imports feasibility.covered
or calls it, and inside vertexpoly only the function _vertices names covered
or the Pareto filter _pareto_minimal, so every vertex extraction, with its
small-input exit and its quick accepts, goes through vertexpoly._vertices.

Two widths that differ are refused in one place: only errors raises a
DimensionMismatch under a test that compares one m with another (==, !=, is
or is not, in either branch of the if), and every other module asks
errors.same_width.  A count or index refusal (an unknown index above n, a
variable index above m, a count of weights or arguments) compares an index
or a length, not two widths, and stays where it is.

A refusal writes the value it refuses through errors.shown alone, so its
message stays short however large the value, and writing it cannot raise the
interpreter's own digit-limit ValueError in place of the refusal.  Every value
that a raise, or a print to stderr (cli.main's error lines), writes into its
text (each {...} of an f-string, each str(), repr(), format(), .format() or
.join() call, and the operand of a % or a + on text) is shown(...), len(...),
a type's name, a module constant or an entry of one, a constant, the caller's
`what` label, the message of a caught refusal (not an OSError's, whose str
writes its file name raw), or one of the few values each module lists in
CHECKED: a width, a count or a position it has checked, one character the
lexer read, or a text built of shown values.  Every CHECKED entry is written
by its module, so the list cannot grow stale.
"""

import ast
import sys
from pathlib import Path

import pytest

import tropdiff
from tropdiff import BooleanWeight, DiffMonomial, QPoly, RationalFunction

PACKAGE = Path(tropdiff.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
HEAVY = frozenset({"dataclasses", "typing", "inspect"})
ALLOWED = (frozenset(sys.stdlib_module_names) - HEAVY) | {"tropdiff"}
QPOLY_FIELDS = frozenset(QPoly.__slots__) - {"m"}
# each class that keeps derived values, by the module that may name its private slots
MEMO_CLASSES = {"weights.py": BooleanWeight, "series.py": RationalFunction, "diffpoly.py": DiffMonomial}
MEMO_SLOTS = {
    module: frozenset(name for name in cls.__slots__ if name.startswith("_"))
    for module, cls in MEMO_CLASSES.items()
}


def offences(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        found += [
            f"line {node.lineno}: imports {name}"
            for name in names
            if name.split(".")[0] not in ALLOWED
        ]
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append(f"line {node.lineno}: calls float()")
        if isinstance(node, ast.Assert):
            found.append(f"line {node.lineno}: assert")
    return found


def test_every_module_is_checked():
    assert PACKAGE.joinpath("__init__.py") in MODULES and len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_stdlib_only_and_exact(path):
    assert offences(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_each_offence():
    source = (
        "import numpy\n"
        "import os.path, sympy.core\n"
        "from scipy import optimize\n"
        "from dataclasses import dataclass\n"
        "import json, typing\n"
        "import inspect as i\n"
        "from collections.abc import Sequence\n"
        "from .typing import Any\n"
        "from . import series\n"
        "from tropdiff.series import QPoly\n"
        "half = 0.5\n"
        "turn = 1j\n"
        "x = float('1')\n"
        "ok = isinstance(x, float)\n"
        "if x: assert x > 0\n"
    )
    assert offences(source) == [
        "line 1: imports numpy",
        "line 2: imports sympy.core",
        "line 3: imports scipy",
        "line 4: imports dataclasses",
        "line 5: imports typing",
        "line 6: imports inspect",
        "line 11: literal 0.5",
        "line 12: literal 1j",
        "line 13: calls float()",
        "line 15: assert",
    ]


def field_reads(source: str, fields=QPOLY_FIELDS, what: str = "QPoly field") -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in fields:
            found.append((node.lineno, name))
    return [f"line {line}: names {what} {name}" for line, name in sorted(found)]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "series.py"], ids=lambda p: p.name
)
def test_only_series_reads_the_qpoly_fields(path):
    assert field_reads(path.read_text(encoding="utf-8")) == []


def test_the_field_rule_sees_each_read():
    assert QPOLY_FIELDS and field_reads(PACKAGE.joinpath("series.py").read_text(encoding="utf-8"))
    first, second = sorted(QPOLY_FIELDS)[:2]
    source = (
        f"def f(q):\n"
        f"    a = q.{first}\n"
        f"    b = getattr(q, {second!r})\n"
        f"    q.{second} = 1\n"
        f"    return q.terms, q.m, q.coeff((0, 0))\n"
    )
    assert field_reads(source) == [
        f"line 2: names QPoly field {first}",
        f"line 3: names QPoly field {second}",
        f"line 4: names QPoly field {second}",
    ]


@pytest.mark.parametrize("owner", sorted(MEMO_CLASSES))
def test_a_class_that_keeps_derived_values_declares_no_public_slot(owner):
    assert [name for name in MEMO_CLASSES[owner].__slots__ if not name.startswith("_")] == []


def memo_reads(source: str, owner: str) -> list[str]:
    """Names of a private slot of owner's class in source."""
    return field_reads(source, MEMO_SLOTS[owner], "memo slot")


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "weights.py"], ids=lambda p: p.name
)
def test_only_weights_names_the_memo_slots(path):
    assert memo_reads(path.read_text(encoding="utf-8"), "weights.py") == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "series.py"], ids=lambda p: p.name
)
def test_only_series_names_the_verdict_slot(path):
    # named for the first of RationalFunction's memo slots; it covers all of them
    assert memo_reads(path.read_text(encoding="utf-8"), "series.py") == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "diffpoly.py"], ids=lambda p: p.name
)
def test_only_diffpoly_names_the_monomial_slots(path):
    assert memo_reads(path.read_text(encoding="utf-8"), "diffpoly.py") == []


def assert_memo_rule_sees_each_offence(owner: str) -> None:
    """The memo rule finds every private slot of owner's class: in owner's own
    source, and in each way another module could name one."""
    slots = MEMO_SLOTS[owner]
    own = PACKAGE.joinpath(owner).read_text(encoding="utf-8")
    assert slots and {read.split()[-1] for read in memo_reads(own, owner)} == slots
    source = "def f(x):\n" + "".join(
        f"    a = x.{slot}\n    b = getattr(x, {slot!r}, None)\n    x.{slot} = None\n"
        for slot in sorted(slots)
    ) + "    return x.num, x.den, x.data, x.shift((0, 0)), x.partial(0), x.factors, x.bump(0, 0)\n"
    assert memo_reads(source, owner) == [
        f"line {line}: names memo slot {slot}"
        for i, slot in enumerate(sorted(slots))
        for line in range(2 + 3 * i, 5 + 3 * i)
    ]


def test_the_memo_rule_sees_each_offence():
    assert_memo_rule_sees_each_offence("weights.py")


def test_the_verdict_rule_sees_each_offence():
    # RationalFunction's private slots: num, den, the verdict and the partials
    assert_memo_rule_sees_each_offence("series.py")


def test_the_monomial_rule_sees_each_offence():
    # DiffMonomial's private slots: its factors, the kept hash and the bumps
    assert_memo_rule_sees_each_offence("diffpoly.py")


# the one module that defines the exponent adder, and the modules that may name it
ADDER_MODULE = "vertexpoly.py"
ADDER_USERS = ("series.py", "vertexpoly.py")


def exponent_sums(source: str, module: str = "") -> list[str]:
    """What the exponent-sum rule forbids in module's source: any name of
    operator.add (the attribute, and the name imported from operator); a
    definition of _adder outside ADDER_MODULE, and any name of it outside
    ADDER_USERS; and any name of eval (a call, an alias, a getattr) but inside
    ADDER_MODULE's _adder."""
    found = []
    for statement in ast.parse(source).body:
        in_adder = module == ADDER_MODULE and isinstance(statement, ast.FunctionDef) and statement.name == "_adder"
        for node in ast.walk(statement):
            if isinstance(node, ast.ImportFrom) and node.module == "operator":
                found += [(node.lineno, f"imports {alias.name}") for alias in node.names if alias.name in ("add", "*")]
            elif isinstance(node, ast.Attribute) and node.attr == "add":
                if getattr(node.value, "id", None) == "operator":
                    found.append((node.lineno, "uses operator.add"))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names, bound = [node.name], [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [n for alias in node.names for n in (alias.name, alias.asname)]
                bound = [alias.asname for alias in node.names]
            elif isinstance(node, ast.Name):
                names, bound = [node.id], [node.id] if isinstance(node.ctx, ast.Store) else []
            else:
                names = [getattr(node, "attr", None), getattr(node, "value", None)]
                bound = []
            if "_adder" in bound and module != ADDER_MODULE:
                found.append((node.lineno, "defines _adder"))
            elif "_adder" in names and module not in ADDER_USERS:
                found.append((node.lineno, "names _adder"))
            if "eval" in names and not in_adder:
                found.append((node.lineno, "names eval"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_series_and_vertexpoly_add_exponents(path):
    assert exponent_sums(path.read_text(encoding="utf-8"), path.name) == []


def test_the_exponent_sum_rule_sees_each_use():
    # read as any other module's, both modules name the adder, and vertexpoly defines and builds it
    for name in ADDER_USERS:
        uses = exponent_sums(PACKAGE.joinpath(name).read_text(encoding="utf-8"))
        assert {use.split(": ")[1] for use in uses} >= {"names _adder"}
    uses = exponent_sums(PACKAGE.joinpath(ADDER_MODULE).read_text(encoding="utf-8"))
    assert {use.split(": ")[1] for use in uses} == {"defines _adder", "names _adder", "names eval"}
    source = (
        "import operator\n"
        "from operator import add\n"
        "from operator import mul, add as plus\n"
        "from operator import *\n"
        "x = operator.add(1, 2)\n"
        "e = tuple(map(operator.add, a, b))\n"
        "y = operator.sub(1, 2)\n"
        "z = seen.add(1)\n"
        "from .series import add\n"
        "from .vertexpoly import _adder\n"
        "s = vertexpoly._adder(2)(a, b)\n"
        "f = getattr(vertexpoly, '_adder')\n"
        "def _adder(m):\n"
        "    return eval('lambda a, b: ()')\n"
        "_adder = None\n"
        "from .parsing import plus as _adder\n"
        "w = eval('1')\n"
        "v = builtins.eval('1')\n"
        "u = evaluate('1')\n"
        "adder = _adders\n"
        "run = eval\n"
        "g = getattr(builtins, 'eval')\n"
        "from builtins import eval as e\n"
    )
    sums = [
        "line 2: imports add",
        "line 3: imports add",
        "line 4: imports *",
        "line 5: uses operator.add",
        "line 6: uses operator.add",
    ]
    evals = [f"line {line}: names eval" for line in (17, 18, 21, 22, 23)]
    definitions = ["line 13: defines _adder", "line 15: defines _adder", "line 16: defines _adder"]
    names = ["line 10: names _adder", "line 11: names _adder", "line 12: names _adder"]
    assert exponent_sums(source, "weights.py") == sorted(
        [*sums, *definitions, *names, "line 14: names eval", *evals], key=lambda line: int(line.split()[1][:-1])
    )
    assert exponent_sums(source, "series.py") == [*sums, definitions[0], "line 14: names eval", *definitions[1:], *evals]
    # in vertexpoly the top-level def _adder may define the adder and call eval, and nothing else may name eval
    assert exponent_sums(source, ADDER_MODULE) == [*sums, *evals]


def lp_uses(source: str) -> list[str]:
    """Imports of feasibility or of covered, and calls of anything named covered."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            from_feasibility = (node.module or "").split(".")[-1] == "feasibility"
            found += [
                f"line {node.lineno}: imports {alias.name}"
                for alias in node.names
                if alias.name == "feasibility" or (from_feasibility and alias.name in ("covered", "*"))
            ]
        elif isinstance(node, ast.Import):
            found += [
                f"line {node.lineno}: imports {alias.name}"
                for alias in node.names
                if alias.name.split(".")[-1] == "feasibility"
            ]
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "covered":
                found.append(f"line {node.lineno}: calls covered")
    return found


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "vertexpoly.py"], ids=lambda p: p.name
)
def test_only_vertexpoly_runs_the_simplex(path):
    assert lp_uses(path.read_text(encoding="utf-8")) == []


def test_the_lp_rule_sees_each_use():
    assert lp_uses(PACKAGE.joinpath("vertexpoly.py").read_text(encoding="utf-8"))
    source = (
        "from .feasibility import covered as c\n"
        "from . import feasibility\n"
        "import tropdiff.feasibility\n"
        "from tropdiff.feasibility import *\n"
        "from .feasibility import Point\n"
        "from .vertexpoly import VertexPoly\n"
        "x = feasibility.covered([(1, 0)], (1, 1))\n"
        "y = covered([], (0, 0))\n"
        "z = recovered([], (0, 0))\n"
    )
    assert lp_uses(source) == [
        "line 1: imports covered",
        "line 2: imports feasibility",
        "line 3: imports tropdiff.feasibility",
        "line 4: imports *",
        "line 7: calls covered",
        "line 8: calls covered",
    ]


EXTRACTION_STEPS = ("covered", "_pareto_minimal")


def extraction_steps(source: str, allowed: str | None = "_vertices") -> list[str]:
    """Names of covered or _pareto_minimal outside the module function allowed."""
    found = []
    for statement in ast.parse(source).body:
        if isinstance(statement, ast.FunctionDef) and statement.name == allowed:
            continue
        for node in ast.walk(statement):
            name = getattr(node, "id", getattr(node, "attr", None))
            if isinstance(node, (ast.Name, ast.Attribute)) and name in EXTRACTION_STEPS:
                found.append((node.lineno, name))
    return [f"line {line}: uses {name}" for line, name in sorted(found)]


def test_only_vertices_runs_the_filter_and_the_lp():
    assert extraction_steps(PACKAGE.joinpath("vertexpoly.py").read_text(encoding="utf-8")) == []


def test_the_extraction_rule_sees_each_use():
    vertexpoly_source = PACKAGE.joinpath("vertexpoly.py").read_text(encoding="utf-8")
    assert {use.split()[-1] for use in extraction_steps(vertexpoly_source, None)} == set(EXTRACTION_STEPS)
    source = (
        "from .feasibility import covered\n"
        "def _pareto_minimal(points):\n"
        "    return sorted(points)\n"
        "def _vertices(points):\n"
        "    mins = _pareto_minimal(points)\n"
        "    return [p for p in mins if not covered(mins, p)]\n"
        "class VertexPoly:\n"
        "    def __mul__(self, other):\n"
        "        return _pareto_minimal(self.points)\n"
        "    def _vertices(self, points):\n"
        "        return feasibility.covered([], points[0])\n"
        "step = covered\n"
        "def helper(points):\n"
        "    def _vertices(points):\n"
        "        return _pareto_minimal(points)\n"
        "    return list(map(covered, points))\n"
    )
    assert extraction_steps(source) == [
        "line 9: uses _pareto_minimal",
        "line 11: uses covered",
        "line 12: uses covered",
        "line 15: uses _pareto_minimal",
        "line 16: uses covered",
    ]


# the modules that may name SchemaError, and the one that may import sys
SCHEMA_MODULES = ("__init__.py", "errors.py", "jsonio.py", "cli.py")
SYS_MODULES = ("cli.py",)


def boundary_names(source: str, schema: bool = True, sys_module: bool = True) -> list[str]:
    """Each use of the name SchemaError, and each import of sys, where not allowed."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and sys_module:
            found += [f"line {node.lineno}: imports sys" for a in node.names if a.name == "sys"]
        elif isinstance(node, ast.ImportFrom) and node.module == "sys" and sys_module:
            found.append(f"line {node.lineno}: imports sys")
        if schema and "SchemaError" in (
            getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)
        ):
            found.append(f"line {node.lineno}: names SchemaError")
    return sorted(found, key=lambda line: int(line.split()[1].rstrip(":")))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_format_modules_name_the_schema_error(path):
    source = path.read_text(encoding="utf-8")
    schema, sys_module = path.name not in SCHEMA_MODULES, path.name not in SYS_MODULES
    assert boundary_names(source, schema, sys_module) == []


def test_the_boundary_rule_sees_each_use():
    assert boundary_names(PACKAGE.joinpath("cli.py").read_text(encoding="utf-8"))
    source = (
        "import sys\n"
        "import os, sys as system\n"
        "from sys import maxsize\n"
        "from .errors import SchemaError\n"
        "from . import errors\n"
        "raise errors.SchemaError('x')\n"
        "class SchemaError(Exception): pass\n"
        "message = 'SchemaError'\n"
    )
    assert boundary_names(source) == [
        "line 1: imports sys",
        "line 2: imports sys",
        "line 3: imports sys",
        "line 4: names SchemaError",
        "line 6: names SchemaError",
        "line 7: names SchemaError",
    ]


# the one module that may refuse two widths that differ
WIDTH_MODULE = "errors.py"
# the comparisons that can say whether two widths agree
AGREEMENT = (ast.Eq, ast.NotEq, ast.Is, ast.IsNot)


def reads_a_width(node: ast.AST) -> bool:
    """Does node read an m, as a name or as an attribute?"""
    return any(
        getattr(inner, "id", None) == "m" or getattr(inner, "attr", None) == "m"
        for inner in ast.walk(node)
    )


def compares_widths(test: ast.AST) -> bool:
    """Does test hold an ==, !=, is or is not with an m on each side?"""
    return any(
        isinstance(node, ast.Compare)
        and any(isinstance(op, AGREEMENT) for op in node.ops)
        and reads_a_width(node.left)
        and any(reads_a_width(c) for c in node.comparators)
        for node in ast.walk(test)
    )


def width_refusals(source: str) -> list[str]:
    """Each raise of DimensionMismatch in an if (either branch) whose test
    compares one m with another; a count or index refusal, which compares
    an index or a length with m or n, is not one."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.If) and compares_widths(node.test)):
            continue
        for statement in (*node.body, *node.orelse):
            for inner in ast.walk(statement):
                if isinstance(inner, ast.Raise) and inner.exc is not None and any(
                    "DimensionMismatch" in (getattr(n, "id", None), getattr(n, "attr", None))
                    for n in ast.walk(inner.exc)
                ):
                    found.add(inner.lineno)
    return [f"line {line}: refuses two widths" for line in sorted(found)]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != WIDTH_MODULE], ids=lambda p: p.name)
def test_only_errors_refuses_two_widths(path):
    assert width_refusals(path.read_text(encoding="utf-8")) == []


def test_the_width_rule_sees_each_refusal():
    assert width_refusals(PACKAGE.joinpath(WIDTH_MODULE).read_text(encoding="utf-8"))
    source = (
        "def f(self, other, order, weights, args, i, n, m):\n"
        "    if other.m != self.m:\n"
        "        raise DimensionMismatch(f'mixing m={self.m} with m={other.m}')\n"
        "    if a.m != m or b.m != m:\n"
        "        raise errors.DimensionMismatch('mixing')\n"
        "    if (self.m, self.n) != (other.m, other.n):\n"
        "        raise DimensionMismatch('mixing (m,n)')\n"
        "    if order.m is not q.m:\n"
        "        raise DimensionMismatch('order')\n"
        "    if not order.m == m:\n"
        "        raise DimensionMismatch('order')\n"
        "    if w.m == m:\n"
        "        pass\n"
        "    else:\n"
        "        raise DimensionMismatch('weight')\n"
        "    if len(args) != self.n:\n"
        "        raise DimensionMismatch('expected n arguments')\n"
        "    if len(weights) != m:\n"
        "        raise DimensionMismatch('expected m weights')\n"
        "    if n is not None and i > n:\n"
        "        raise DimensionMismatch('unknown index')\n"
        "    if not 1 <= i <= width(m):\n"
        "        raise DimensionMismatch('variable index')\n"
        "    if self.m != other.m:\n"
        "        return False\n"
        "    if self.m != other.m:\n"
        "        raise ValueError('mixing')\n"
        "    return same_width(self.m, other)\n"
    )
    assert width_refusals(source) == [f"line {line}: refuses two widths" for line in (3, 5, 7, 9, 11, 15)]


# What a refusal may write as it is, by module, besides shown(...), len(...), a
# type's name, a module constant, the caller's `what` label and the message of a
# caught refusal: each is an int the code has checked (a width, a count or a
# position), one character the lexer read, or a text built of shown values.
CHECKED = {
    "cli.py": {"sys.get_int_max_str_digits()", "exc.reason", "exc.start", "exc.errno", "exc.strerror", "where"},
    "diffpoly.py": {"n", "self.n", "other.n"},
    "errors.py": {"m", "m - 1", "value.m"},
    "jsonio.py": {"m", "n", "order.m", "named"},
    "orders.py": {"k + 1"},
    "parsing.py": {"ch", "pos", "self.m"},
    "translation.py": {"P.n"},
}
# the calls that turn a value into text
TEXT_CALLS = ("str", "repr", "format", "join")


def module_constants(tree: ast.Module) -> set[str]:
    """The upper-case names a module assigns or imports at its top level."""
    names = set()
    for statement in tree.body:
        if isinstance(statement, ast.Assign):
            names.update(t.id for t in statement.targets if isinstance(t, ast.Name))
        elif isinstance(statement, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name for alias in statement.names)
    return {name for name in names if name.lstrip("_").isupper()}


def interpolations(node: ast.AST):
    """The values node writes into text: each {...} of an f-string, each str(),
    repr(), format(), .format() or .join() call, and the other operand of a %
    or a + on text.  What such a value holds is not searched further."""
    if isinstance(node, ast.FormattedValue):
        yield node.value
        return
    if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in TEXT_CALLS:
        yield node
        return
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mod, ast.Add)):
        text = [isinstance(side, ast.JoinedStr) or (isinstance(side, ast.Constant) and isinstance(side.value, str))
                for side in (node.left, node.right)]
        if any(text):
            for side, is_text in zip((node.left, node.right), text):
                yield from interpolations(side) if is_text else (side,)
            return
    for child in ast.iter_child_nodes(node):
        yield from interpolations(child)


def written_safely(value: ast.AST, checked: set[str], constants: set[str], caught: str | None) -> bool:
    """May a refusal write value as it is?"""
    if isinstance(value, ast.Constant):
        return True
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) in ("shown", "len"):
        return True
    if isinstance(value, ast.Attribute) and value.attr == "__name__":
        return True
    if isinstance(value, ast.IfExp):
        return all(written_safely(v, checked, constants, caught) for v in (value.body, value.orelse))
    # a module constant, or an entry of a table that is one
    if getattr(value.value if isinstance(value, ast.Subscript) else value, "id", None) in constants | {"what"}:
        return True
    text = ast.unparse(value)
    return text in checked or (caught is not None and text in (caught, f"str({caught})"))


def refusal_writes(source: str, module: str) -> list[str]:
    """Each value that a raise, or a print to stderr, writes into its message
    other than through shown(...) or as one of the values allowed above.  The
    message of a caught exception is a refusal the package built, except an
    OSError's, whose str writes its file name raw."""
    tree = ast.parse(source)
    checked, constants = CHECKED.get(module, set()), module_constants(tree)
    found = []

    def visit(node: ast.AST, caught: str | None) -> None:
        if isinstance(node, ast.ExceptHandler):
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            os_error = any(getattr(t, "id", getattr(t, "attr", None)) == "OSError" for t in types)
            caught = None if os_error else node.name
        message = None
        if isinstance(node, ast.Raise) and node.exc is not None:
            message = node.exc
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print" and any(
            k.arg == "file" and ast.unparse(k.value) == "sys.stderr" for k in node.keywords
        ):
            message = node
        if message is not None:
            found.extend(
                (node.lineno, ast.unparse(value))
                for value in interpolations(message)
                if not written_safely(value, checked, constants, caught)
            )
        for child in ast.iter_child_nodes(node):
            visit(child, caught)

    visit(tree, None)
    return [f"line {line}: writes {text}" for line, text in sorted(set(found))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_shown_writes_a_refused_value(path):
    assert refusal_writes(path.read_text(encoding="utf-8"), path.name) == []


def test_the_refusal_rule_sees_each_raw_value():
    source = (
        "from .errors import MAX_WIDTH, shown\n"
        "_NAMES = {1: 'one'}\n"
        "def f(x, i, m, n, what, exc):\n"
        "    raise ValueError(f'got {x}')\n"
        "    raise ValueError(f'got {x!r} and {shown(x)}')\n"
        "    raise ValueError('got ' + str(x))\n"
        "    raise ValueError('got %s' % (x,))\n"
        "    raise ValueError('got {}'.format(x))\n"
        "    raise ValueError(f\"names: {', '.join(x)}\")\n"
        "    raise ValueError(f'{what} is {i} over {m} in {len(x)}, {type(x).__name__}, {MAX_WIDTH}')\n"
        "    raise ValueError(f\"{_NAMES[i]} {'a' if x else 'b'} {n}\")\n"
        "    raise ValueError(repr(x))\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError as exc:\n"
        "        raise TypeError(str(exc)) from None\n"
        "    except OSError as exc:\n"
        "        print(f'error: {exc}', file=sys.stderr)\n"
        "        raise TypeError(str(exc))\n"
        "    print(f'ok: {x}')\n"
        "    print(f'error: {exc}', file=sys.stderr)\n"
    )
    assert refusal_writes(source, "sample.py") == [
        "line 4: writes x",
        "line 5: writes x",
        "line 6: writes str(x)",
        "line 7: writes (x,)",
        "line 8: writes 'got {}'.format(x)",
        "line 9: writes ', '.join(x)",
        "line 10: writes i",
        "line 10: writes m",
        "line 11: writes n",
        "line 12: writes repr(x)",
        "line 18: writes exc",
        "line 19: writes str(exc)",
        "line 21: writes exc",
    ]
    # the values a module has checked are its own: errors may write m, and still not i
    in_errors = refusal_writes(source, "errors.py")
    assert "line 10: writes m" not in in_errors and "line 10: writes i" in in_errors


@pytest.mark.parametrize("module", sorted(CHECKED))
def test_each_checked_value_is_written_by_its_module(module, monkeypatch):
    # an entry that no refusal writes would only widen the rule
    source = PACKAGE.joinpath(module).read_text(encoding="utf-8")
    for text in CHECKED[module]:
        monkeypatch.setitem(CHECKED, module, CHECKED[module] - {text})
        assert any(found.endswith(f": writes {text}") for found in refusal_writes(source, module)), text
        monkeypatch.undo()
