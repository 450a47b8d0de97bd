import collections
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers import full_parser, json_by_scan, json_tree
from tropdiff import (
    BooleanWeight,
    DiffMonomial,
    DiffPoly,
    SchemaError,
    VertexFraction,
    VertexPoly,
    initial_generators,
    multi_indices,
    order_standard,
    parse_poly,
    prolong,
    translate,
    tropw,
)
from tropdiff.cli import MAX_DERIVATIVES, main
from tropdiff.jsonio import diffpoly_json, problem_from, vertexfraction_json

PROBLEM = "tests/data/exp_problem.json"
PROBLEM_UFIRST = "tests/data/exp_problem_ufirst.json"
RATIONAL_PROBLEM = "tests/data/rational_problem.json"  # 1/(t+u) * x_(0,0) at m = 2
REPEATED_NAME = "tests/data/repeated_name_problem.json"  # two polynomials named P

TROP_GOLDEN = {"den": [[1, 0], [0, 1]], "num": [[1, 0]]}
NEGATIVE_EXP = {"num": {"terms": [{"exp": [0, -1], "coeff": "1"}]}}
NEGATIVE_J = [{"var": [1, [0, -1]], "pow": 1}]
# where the running example's first factor and second coefficient sit in PROBLEM
FACTOR = ["polynomials", 0, "poly", 0, "monomial", 0]
COEFF = ["polynomials", 0, "poly", 1, "coeff"]


def terms(*pairs):
    """A coefficient object with the given (exponent, coeff) terms."""
    return {"num": {"terms": [{"exp": e, "coeff": c} for e, c in pairs]}}


# the running example at m = 1, so that a width read as true = 1 would fit it
PROBLEM_M1 = {
    "m": 1,
    "polynomials": [
        {"name": "P", "poly": [{"coeff": "t", "monomial": [{"var": [1, [1]], "pow": 1}]}]}
    ],
    "weight": [{"type": "full"}],
}

# x_(1)^(2^40) at m = 1 over the weight {2}: the factorial kernel's substitution
# polynomial for x_(1) is 2*t, the shifted vertex 1 with the coefficient 2!/1!
FACTOR_OF_2 = {
    "m": 1,
    "polynomials": [
        {"name": "P", "poly": [{"coeff": "1", "monomial": [{"var": [1, [1]], "pow": 2**40}]}]}
    ],
    "weight": [{"type": "finite", "points": [[2]]}],
    "order": {"type": "lex"},
    "kernel": "factorial",
}

TRANSLATE_PRETTY = """\
P J=[0, 0]: ((t + u)/(t + u))*x_(1,1) + (-t/(t + u))*x_(0,0)
P J=[1, 0]: x_(2,1) + (-t)*x_(1,0) - x_(0,0)
P J=[0, 1]: x_(1,2) + (-t)*x_(0,1)
P J=[2, 0]: x_(3,1) + (-t)*x_(2,0) - 2*x_(1,0)
P J=[1, 1]: x_(2,2) + (-t^2 - t*u)*x_(1,1) - x_(0,1)
P J=[0, 2]: x_(1,3) + (-t)*x_(0,2)
"""
PROLONG_PRETTY = """\
P J=[0, 0]: x_(1,1) + (-t)*x_(0,0)
P J=[1, 0]: x_(2,1) + (-t)*x_(1,0) - x_(0,0)
P J=[0, 1]: x_(1,2) + (-t)*x_(0,1)
P J=[2, 0]: x_(3,1) + (-t)*x_(2,0) - 2*x_(1,0)
P J=[1, 1]: x_(2,2) + (-t)*x_(1,1) - x_(0,1)
P J=[0, 2]: x_(1,3) + (-t)*x_(0,2)
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdin_of(data: bytes):
    """A stand-in for sys.stdin whose bytes, read through .buffer, are data."""
    return io.TextIOWrapper(io.BytesIO(data))


def running_example() -> DiffPoly:
    X = lambda J: DiffMonomial.var(1, J)
    return DiffPoly(2, 1, {X((1, 1)): 1, X((0, 0)): -parse_poly("t", 2)})


class TestTrop:
    def test_golden_json(self, capsys):
        code, out, _ = run(capsys, "trop", "t1/(t1+t2)")
        assert code == 0
        assert json.loads(out) == TROP_GOLDEN

    def test_deterministic_bytes(self, capsys):
        _, first, _ = run(capsys, "trop", "t1/(t1+t2)")
        _, second, _ = run(capsys, "trop", "t1/(t1+t2)")
        assert first == second

    def test_pretty(self, capsys):
        code, out, _ = run(capsys, "trop", "--format", "pretty", "t/(t+u)")
        assert code == 0
        assert out.strip() == "{(1,0)} / {(1,0), (0,1)}"

    def test_explicit_m(self, capsys):
        code, out, _ = run(capsys, "trop", "t1", "--m", "3")
        assert code == 0
        assert json.loads(out)["num"] == [[1, 0, 0]]

    def test_json_object_input(self, capsys):
        code, out, _ = run(capsys, "trop", '{"num": "t", "den": "t+u"}')
        assert code == 0
        assert json.loads(out) == TROP_GOLDEN

    def test_json_string_input(self, capsys):
        code, out, _ = run(capsys, "trop", '"t1/(t1+t2)"')
        assert code == 0
        assert json.loads(out) == TROP_GOLDEN

    def test_input_file(self, capsys, tmp_path):
        source = tmp_path / "expr.txt"
        source.write_text("t/(t+u)\n")
        code, out, _ = run(capsys, "trop", "--input", str(source))
        assert code == 0
        assert json.loads(out) == TROP_GOLDEN

    def test_stdin(self, capsys, monkeypatch):
        # stdin is read as bytes, through sys.stdin.buffer, as a file is
        monkeypatch.setattr("sys.stdin", stdin_of(b"t/(t+u)"))
        code, out, _ = run(capsys, "trop", "--input", "-")
        assert code == 0
        assert json.loads(out) == TROP_GOLDEN

    def test_stdin_that_is_not_utf8_is_a_schema_error(self, capsys, monkeypatch):
        # the byte is refused at its offset, not read as the character '\udcff'
        monkeypatch.setattr("sys.stdin", stdin_of(b"\xff"))
        assert run(capsys, "trop", "--input", "-") == (
            2, "", "error: SchemaError: input is not UTF-8 text: invalid start byte at byte 0\n"
        )

    @pytest.mark.parametrize("command", ["trop", "tropw"])
    def test_a_closed_stdin_is_an_error_like_a_missing_file(
        self, capsys, monkeypatch, tmp_path, command
    ):
        # the interpreter sets sys.stdin to None when it starts with fd 0 closed
        missing = str(tmp_path / "missing.json")
        assert run(capsys, command, "--input", missing) == (
            2, "", f"error: [Errno 2] No such file or directory: {missing!r}\n"
        )
        monkeypatch.setattr(sys, "stdin", None)
        assert run(capsys, command, "--input", "-") == (
            2, "", "error: [Errno 9] Bad file descriptor: '-'\n"
        )

    def test_stdin_is_decoded_as_utf8_whatever_the_io_encoding(self):
        # the decode is UTF-8 whatever PYTHONIOENCODING says; latin-1 would read 'aaaa\xff'
        import tropdiff

        src = str(Path(tropdiff.__file__).resolve().parent.parent)
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path, PYTHONIOENCODING="latin-1")
        done = subprocess.run(
            [sys.executable, "-m", "tropdiff", "trop", "--input", "-"],
            input=b"aaaa\xff", env=env, capture_output=True,
        )
        assert (done.returncode, done.stdout, done.stderr) == (
            2, b"", b"error: SchemaError: input is not UTF-8 text: invalid start byte at byte 4\n"
        )

    def test_missing_expression(self, capsys):
        code, _, err = run(capsys, "trop")
        assert code == 2
        assert "SchemaError" in err


class TestProblemCommands:
    def test_tropw(self, capsys):
        code, out, _ = run(capsys, "tropw", "--input", PROBLEM)
        assert code == 0
        w = [BooleanWeight.cofinite(2, [(1, 1)])]
        want = vertexfraction_json(tropw(running_example(), w))
        assert json.loads(out) == [{"name": "P", "value": want}]
        assert want["num"] == [[1, 0], [0, 1]]

    def test_tropw_pretty(self, capsys):
        code, out, _ = run(capsys, "tropw", "--input", PROBLEM, "--format", "pretty")
        assert code == 0
        assert out == "P: {(1,0), (0,1)}\n"

    def test_translate_pretty(self, capsys):
        code, out, _ = run(capsys, "translate", "--input", PROBLEM, "--format", "pretty")
        assert code == 0
        assert out == TRANSLATE_PRETTY

    def test_prolong_pretty(self, capsys):
        code, out, _ = run(capsys, "prolong", "--input", PROBLEM, "--format", "pretty")
        assert code == 0
        assert out == PROLONG_PRETTY

    def test_translate_follows_prolongation(self, capsys):
        code, out, _ = run(capsys, "translate", "--input", PROBLEM)
        assert code == 0
        payload = json.loads(out)
        w = [BooleanWeight.cofinite(2, [(1, 1)])]
        P = running_example()
        indices = multi_indices(2, 2)
        assert [entry["J"] for entry in payload] == [list(J) for J in indices]
        for entry, derived in zip(payload, prolong(P, 2)):
            assert entry["name"] == "P"
            assert entry["poly"] == json_tree(diffpoly_json(translate(derived, w)))

    def test_translate_bound_override(self, capsys):
        code, out, _ = run(capsys, "translate", "--input", PROBLEM, "--bound", "0")
        assert code == 0
        assert len(json.loads(out)) == 1

    def test_initial_golden_literal(self, capsys):
        code, out, _ = run(capsys, "initial", "--input", PROBLEM_UFIRST)
        assert code == 0
        one = {"terms": [{"coeff": "1", "exp": [0, 0]}]}
        assert json.loads(out) == [
            [
                {
                    "coeff": {"den": one, "num": one},
                    "monomial": [{"var": [1, [1, 1]], "pow": 1}],
                }
            ]
        ]

    def test_initial_pretty(self, capsys):
        code, out, _ = run(
            capsys, "initial", "--input", PROBLEM, "--format", "pretty", "--bound", "0"
        )
        assert code == 0
        assert out.strip() == "x_(1,1) - x_(0,0)"

    def test_initial_kernel_override(self, capsys):
        code, out, _ = run(
            capsys,
            "initial",
            "--input",
            PROBLEM,
            "--bound",
            "0",
            "--kernel",
            "factorial",
            "--format",
            "pretty",
        )
        assert code == 0
        assert out.strip() == "2*x_(1,1) - x_(0,0)"

    def test_initial_matches_library(self, capsys):
        code, out, _ = run(capsys, "initial", "--input", PROBLEM)
        assert code == 0
        w = [BooleanWeight.cofinite(2, [(1, 1)])]
        forms = initial_generators(
            [running_example()], w, order_standard("lex", 2), 2
        )
        assert json.loads(out) == [json_tree(diffpoly_json(f)) for f in forms]

    @pytest.mark.parametrize(
        "kind, rows",
        [("lex", [[0, 1], [1, 0]]), ("grlex", [[1, 1], [0, 1]]), ("grevlex", [[1, 1], [-1, 0]])],
        ids=["lex", "grlex", "grevlex"],
    )
    @pytest.mark.parametrize("command", ["initial", "order-recover"])
    def test_named_order_and_its_matrix_print_the_same_bytes(
        self, capsys, tmp_path, command, kind, rows
    ):
        problem = json.loads(Path(PROBLEM).read_text())
        outputs = []
        for order in ({"type": kind}, {"type": "matrix", "rows": rows}):
            problem["order"] = order
            source = tmp_path / f"{order['type']}.json"
            source.write_text(json.dumps(problem))
            code, out, _ = run(capsys, command, "--input", str(source))
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_prolong(self, capsys):
        code, out, _ = run(capsys, "prolong", "--input", PROBLEM, "--bound", "1")
        assert code == 0
        payload = json.loads(out)
        assert [entry["J"] for entry in payload] == [[0, 0], [1, 0], [0, 1]]

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "tropw", "--input", PROBLEM, "Q")
        assert code == 2
        assert "unknown polynomial" in err

    def test_missing_weight(self, capsys, tmp_path):
        source = tmp_path / "noweight.json"
        source.write_text(json.dumps({"m": 2, "polynomials": []}))
        code, _, err = run(capsys, "tropw", "--input", str(source))
        assert code == 2
        assert "no weight" in err

    def test_bad_json(self, capsys, tmp_path):
        source = tmp_path / "broken.json"
        source.write_text("{")
        code, _, err = run(capsys, "tropw", "--input", str(source))
        assert code == 2
        assert "JSONDecodeError" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "tropw", "--input", "tests/data/nope.json")
        assert code == 2
        assert "error" in err


def with_power(tmp_path, term: int, power: int) -> str:
    """The example problem with the factor of its term-th term raised to power."""
    problem = json.loads(Path(PROBLEM).read_text())
    problem["polynomials"][0]["poly"][term]["monomial"][0]["pow"] = power
    source = tmp_path / f"power{term}.json"
    source.write_text(json.dumps(problem))
    return str(source)


class TestFactorPowers:
    """translate raises each factor's substitution polynomial to its power once.

    In the example problem the second term's factor x_(0,0) has the
    substitution polynomial 1, and the first term's x_(1,1) has t + u.
    """

    @pytest.mark.parametrize("power", [2**70, 2**62, 10**6], ids=["2^70", "2^62", "10^6"])
    @pytest.mark.parametrize("command", ["translate", "initial"])
    def test_a_huge_power_of_a_factor_of_1_costs_what_a_small_one_costs(
        self, capsys, monkeypatch, tmp_path, command, power
    ):
        from tropdiff import series

        # the term products of every polynomial product, the parser's included
        products = []
        product = series._product

        def counted(f, g):
            products.append(len(f) * len(g))
            return product(f, g)

        monkeypatch.setattr(series, "_product", counted)
        work = []
        for p in (3, power):
            products.clear()
            code, _, err = run(capsys, command, "--input", with_power(tmp_path, 1, p))
            assert (code, err) == (0, "")
            work.append(sum(products))
        assert work[0] == work[1] > 0

    @pytest.mark.parametrize("command", ["translate", "initial"])
    def test_a_power_above_the_largest_index_of_a_factor_not_1_fails_at_once(self, capsys, tmp_path, command):
        # refused like any oversized input: a named error, exit 2, nothing printed
        code, out, err = run(capsys, command, "--input", with_power(tmp_path, 0, 2**63))
        assert (code, out) == (2, "")
        assert err == f"error: OverflowError: cannot expand a polynomial of 2 terms to the power {2**63}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["trop", "--m", "1", f"(2*t)^{2**40}"],
            ["trop", "--m", "1", f"(t/2)^{2**40}"],
            ["bezout", "--m", "1", "--", f"(2*t)^{2**40}", "t"],
            ["translate", "--input"],
            ["initial", "--input"],
        ],
        ids=["trop-num", "trop-den", "bezout", "translate", "initial"],
    )
    def test_a_power_of_a_one_term_polynomial_too_large_to_build_fails_at_once(self, capsys, tmp_path, argv):
        from tropdiff import series

        # the expected text names the cap before anything runs
        want = f"error: OverflowError: cannot raise 2 to the power {2**40}: over {series.MAX_POWER_BITS} bits\n"
        if argv[-1] == "--input":
            source = tmp_path / "factor_of_2.json"
            source.write_text(json.dumps(FACTOR_OF_2))
            argv = [*argv, str(source)]
        assert run(capsys, *argv) == (2, "", want)

    def test_a_power_of_a_one_term_polynomial_within_the_cap_is_computed(self, capsys):
        from tropdiff import series

        for base, k in ((2, 2000000), (3, 1398101)):
            # 2 and 3 each have 2 bits, and the bound 2K that the cap is held against is under it
            assert 2 * k <= series.MAX_POWER_BITS
            code, out, err = run(capsys, "trop", "--m", "1", f"({base}*t)^{k}")
            assert (code, err) == (0, "")
            assert json.loads(out) == {"num": [[k]], "den": [[0]]}
        assert run(capsys, "trop", "--m", "1", f"t^{2**40}")[0] == 0  # 1 takes any power

    @pytest.mark.parametrize("base", [2, 3])
    def test_a_power_whose_int_would_take_long_to_build_fails_at_once(self, capsys, base):
        from tropdiff import series

        # 3 ** 10**8 alone takes minutes to build; the cap refuses it before it starts
        want = f"error: OverflowError: cannot raise {base} to the power 100000000: over {series.MAX_POWER_BITS} bits\n"
        assert run(capsys, "trop", "--m", "1", f"({base}*t)^100000000") == (2, "", want)

    @pytest.mark.parametrize("command", ["tropw", "prolong"])
    def test_the_commands_without_substitution_read_the_same_files(self, capsys, tmp_path, command):
        for term in (0, 1):
            assert run(capsys, command, "--input", with_power(tmp_path, term, 2**70))[0] == 0


class TestGeneratorRepeats:
    def test_a_form_is_compared_only_with_the_kept_forms_on_its_monomials(self, capsys, monkeypatch):
        # initial --bound 61 of the example problem makes 1,953 forms; compared with
        # every kept form, they took 1,906,128 comparisons
        from tropdiff import translation

        compared, kept = [], []
        equal, distinct = DiffPoly.__eq__, translation._distinct_nonzero

        def counted_equal(a, b):
            compared.append(1)
            return equal(a, b)

        def kept_forms(images):
            kept.extend(distinct(images))
            return kept

        monkeypatch.setattr(DiffPoly, "__eq__", counted_equal)
        monkeypatch.setattr(translation, "_distinct_nonzero", kept_forms)
        code, out, err = run(capsys, "initial", "--input", PROBLEM, "--bound", "61")
        assert (code, err, len(out.encode())) == (0, "", 2_326_966)
        on_one_set = collections.Counter(frozenset(form.terms) for form in kept)
        assert len(kept) == 1953 and len(compared) <= 1953 * max(on_one_set.values())


class TestSelectedNames:
    """Named polynomials are printed alone, in the order the names are given."""

    @pytest.fixture
    def two(self, tmp_path):
        problem = json.loads(Path(PROBLEM).read_text())
        factor = lambda J, p: [{"var": [1, J], "pow": p}]
        Q = [{"coeff": "u", "monomial": factor([0, 1], 1)}, {"coeff": "1", "monomial": factor([0, 0], 2)}]
        problem["polynomials"].append({"name": "Q", "poly": Q})
        source = tmp_path / "two.json"
        source.write_text(json.dumps(problem))
        return str(source)

    @pytest.mark.parametrize("command", ["tropw", "translate", "prolong"])
    def test_named_rows_in_the_order_given(self, capsys, two, command):
        alone = {}
        for name in ("P", "Q"):
            code, alone[name], _ = run(capsys, command, "--input", two, "--format", "pretty", name)
            assert code == 0
            assert {line.split()[0].rstrip(":") for line in alone[name].splitlines()} == {name}
        for names in (["Q", "P"], ["P", "Q"], ["Q"], []):
            code, out, _ = run(capsys, command, "--input", two, "--format", "pretty", *names)
            assert code == 0
            assert out == "".join(alone[name] for name in names or ["P", "Q"])

    def test_initial_takes_the_named_generators_in_the_order_given(self, capsys, two):
        problem = problem_from(json.loads(Path(two).read_text()))
        table = dict(problem.polynomials)
        for names in (["Q", "P"], ["P", "Q"], ["Q"], []):
            code, out, _ = run(capsys, "initial", "--input", two, "--bound", "1", *names)
            assert code == 0
            forms = initial_generators(
                [table[name] for name in names or ["P", "Q"]],
                problem.weights,
                problem.order,
                1,
                problem.kernel,
            )
            assert json.loads(out) == [json_tree(diffpoly_json(f)) for f in forms]


# one run of every subcommand that prints JSON
JSON_RUNS = [
    ["tropw", "--input", PROBLEM],
    ["translate", "--input", PROBLEM],
    ["initial", "--input", PROBLEM],
    ["prolong", "--input", PROBLEM],
    ["order-recover", "--input", PROBLEM],
    ["trop", "t/(t+u)"],
    ["omega-chain", "--count", "3"],
    ["bezout", "--", "t", "-t+u"],
]


class TestRendering:
    @pytest.mark.parametrize("argv", JSON_RUNS, ids=lambda argv: argv[0])
    def test_json_runs_build_no_pretty_text(self, capsys, monkeypatch, argv):
        def refuse(self):
            raise AssertionError("pretty text built for a JSON run")

        monkeypatch.setattr(DiffPoly, "__str__", refuse)
        monkeypatch.setattr(VertexFraction, "__str__", refuse)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        json.loads(out)

    @pytest.mark.parametrize("argv", JSON_RUNS, ids=lambda argv: argv[0])
    def test_stdout_is_the_bytes_of_json_dumps(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"

    def test_repeated_coefficients_are_the_bytes_of_json_dumps(self, capsys):
        # every derivative's denominator is a power of t + u, written many times over
        code, out, _ = run(capsys, "prolong", "--input", RATIONAL_PROBLEM, "--bound", "4")
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


class TestOrderRecover:
    def test_problem_pairs(self, capsys):
        code, out, _ = run(capsys, "order-recover", "--input", PROBLEM)
        assert code == 0
        assert json.loads(out) == [
            {"I": [1, 0], "J": [0, 1], "relation": "LT"},
            {"I": [2, 3], "J": [2, 3], "relation": "EQ"},
            {"I": [1, 1], "J": [0, 2], "relation": "LT"},
        ]

    def test_extra_pairs_pretty(self, capsys):
        code, out, _ = run(
            capsys,
            "order-recover",
            "--input",
            PROBLEM_UFIRST,
            "--pairs",
            "[[[1,0],[0,1]]]",
            "--format",
            "pretty",
        )
        assert code == 0
        # matrix order [[1,0],[0,1]] makes u the smallest variable
        assert out.strip() == "[1, 0] > [0, 1]"

    def test_missing_order(self, capsys, tmp_path):
        source = tmp_path / "noorder.json"
        source.write_text(json.dumps({"m": 2}))
        code, _, err = run(capsys, "order-recover", "--input", str(source))
        assert code == 2
        assert "no order" in err

    def test_recovery_mismatch_is_exit_4(self, capsys, monkeypatch):
        from tropdiff import cli as cli_module
        from tropdiff.orders import GT

        monkeypatch.setattr(cli_module, "order_from_membership", lambda *a: GT)
        code, _, err = run(capsys, "order-recover", "--input", PROBLEM)
        assert code == 4
        assert "inconsistency" in err


class TestBezout:
    def test_pretty(self, capsys):
        code, out, _ = run(capsys, "bezout", "--format", "pretty", "--", "t", "-t+u")
        assert code == 0
        assert out.strip() == "M = 2"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "bezout", "t", "t")
        assert code == 0
        assert json.loads(out) == {"M": 1}

    @pytest.mark.parametrize("fmt, expected", [("json", '{\n  "M": 1\n}\n'), ("pretty", "M = 1\n")])
    def test_texts_of_different_widths_are_read_at_the_larger(self, capsys, fmt, expected):
        assert run(capsys, "bezout", "--format", fmt, "t", "t3") == (0, expected, "")

    def test_zero_input_is_domain_error(self, capsys):
        code, _, err = run(capsys, "bezout", "0", "t")
        assert code == 3
        assert "ZeroTropicalValue" in err


class TestParseOnce:
    """A call reads each expression text with one parser, at the width of all its texts."""

    @pytest.mark.parametrize(
        "argv, texts",
        [
            (["trop", '{"num": "t", "den": "t3"}'], ["t", "t3"]),
            (["bezout", "t", "t3"], ["t", "t3"]),
            (["trop", "t3/(t+u)"], ["t3/(t+u)"]),
        ],
        ids=["trop-num-den", "bezout", "trop-text"],
    )
    def test_each_text_is_parsed_once(self, capsys, monkeypatch, argv, texts):
        from tropdiff import parsing

        widths = []

        class Counted(parsing._Parser):
            def __init__(self, tokens, m, poly_mode):
                widths.append(m)
                super().__init__(tokens, m, poly_mode)

        monkeypatch.setattr(parsing, "_Parser", Counted)
        assert run(capsys, *argv)[0] == 0
        assert widths == [3] * len(texts)


class TestOmegaChain:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "omega-chain", "--count", "3")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 3
        assert payload[0] == {
            "num": [[3, 0], [0, 3]],
            "den": [[3, 0], [1, 1], [0, 3]],
        }

    def test_pretty(self, capsys):
        code, out, _ = run(capsys, "omega-chain", "--count", "2", "--format", "pretty")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("omega_1 = ")
        assert len(lines) == 2

    def test_bad_count_is_usage_error(self, capsys):
        code, _, err = run(capsys, "omega-chain", "--count", "0")
        assert code == 2

    def test_count_above_the_cap_is_refused_before_any_work(self, capsys, monkeypatch):
        from tropdiff import cli

        monkeypatch.setattr(cli, "omega_chain", lambda count: pytest.fail("chain was built"))
        code, _, err = run(capsys, "omega-chain", "--count", str(cli.MAX_OMEGA_COUNT + 1))
        assert code == 2
        assert "SchemaError" in err and str(cli.MAX_OMEGA_COUNT) in err


class TestExitCodes:
    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "trop", "t$")
        assert code == 2
        assert "PolyParseError" in err

    def test_zero_denominator(self, capsys):
        code, _, err = run(capsys, "trop", "t1/0")
        assert code == 3
        assert "ZeroDenominator" in err

    def test_zero_denominator_in_a_json_coefficient(self, capsys):
        term = {"exp": [1, 0], "coeff": "1/0"}
        code, _, err = run(capsys, "trop", json.dumps({"num": {"terms": [term]}}))
        assert code == 2
        assert "SchemaError" in err and "1/0" in err

    def test_zero_denominator_in_a_problem_file_coefficient(self, capsys, tmp_path):
        problem = json.loads(Path(PROBLEM).read_text())
        coeff = {"num": {"terms": [{"exp": [0, 1], "coeff": "-3/0"}]}}
        problem["polynomials"][0]["poly"][1]["coeff"] = coeff
        source = tmp_path / "zero.json"
        source.write_text(json.dumps(problem))
        code, _, err = run(capsys, "prolong", "--input", str(source))
        assert code == 2
        assert "SchemaError" in err and "-3/0" in err

    @pytest.mark.parametrize(
        "argv",
        [["trop", "--m", "2", f"(t+u)^{2**63}"], ["bezout", "--", f"(t+u)^{2**63}", "t"]],
        ids=["trop", "bezout"],
    )
    def test_a_power_of_a_binomial_too_large_to_expand(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: OverflowError: cannot expand a polynomial of 2 terms to the power {2**63}\n"

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_input(self, capsys):
        assert main(["tropw"]) == 2

    def test_help_is_success(self, capsys):
        assert main(["--help"]) == 0

    def test_selftest(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("ok: ") for line in lines[:-1])
        assert lines[-1] == "selftest: 10/10 checks passed"

    def test_selftest_reports_a_failing_check(self, capsys, monkeypatch):
        from tropdiff import VertexFraction

        monkeypatch.setattr(VertexFraction, "in_unit_ball", lambda self: False)
        code, out, _ = run(capsys, "selftest")
        assert code == 4
        assert "FAIL: unit-ball chain grows strictly" in out.splitlines()

    def test_a_translated_coefficient_outside_the_ball_is_exit_4(self, capsys, monkeypatch):
        from tropdiff import translation

        # the running example's value without its vertex (0,1) gives x_(1,1) the coefficient (t+u)/t
        missing = VertexFraction(VertexPoly(2, [(1, 0)]), VertexPoly.one(2))
        monkeypatch.setattr(translation, "tropw", lambda P, weights: missing)
        code, out, err = run(capsys, "translate", "--input", PROBLEM)
        assert code == 4 and out == ""
        assert err.startswith("inconsistency: ") and "left the unit ball" in err

    @pytest.mark.parametrize("names", [[], ["P"]], ids=["all", "selected"])
    def test_a_repeated_name_is_a_schema_error(self, capsys, names):
        # with the second P read over the first, P would select one of the two
        code, out, err = run(capsys, "tropw", "--input", REPEATED_NAME, *names)
        assert code == 2 and out == ""
        assert err == "error: SchemaError: polynomial names must be distinct strings, got 'P'\n"

    @pytest.mark.parametrize(
        "name, shown", [(1, "1"), (None, "None"), (True, "True"), (["P"], "['P']")]
    )
    def test_a_name_that_is_not_a_string_is_a_schema_error(self, capsys, tmp_path, name, shown):
        problem = json.loads(Path(PROBLEM).read_text())
        problem["polynomials"][0]["name"] = name
        source = tmp_path / "name.json"
        source.write_text(json.dumps(problem))
        code, out, err = run(capsys, "tropw", "--input", str(source))
        assert code == 2 and out == ""
        assert err == f"error: SchemaError: polynomial names must be distinct strings, got {shown}\n"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("weight", [{"type": "cofinite", "excluded": [[1, -1]]}]),
            ("weight", [{"type": "finite", "points": [[-1, 0]]}]),
            ("polynomials", [{"name": "P", "poly": [{"coeff": NEGATIVE_EXP}]}]),
            ("polynomials", [{"name": "P", "poly": [{"coeff": "1", "monomial": NEGATIVE_J}]}]),
            ("pairs", [[[1, 0], [0, -1]]]),
        ],
        ids=["excluded-point", "weight-point", "exponent", "multi-index", "pair-exponent"],
    )
    def test_negative_entries_are_schema_errors(self, capsys, tmp_path, field, value):
        problem = json.loads(Path(PROBLEM).read_text())
        problem[field] = value
        source = tmp_path / "negative.json"
        source.write_text(json.dumps(problem))
        command = "order-recover" if field == "pairs" else "tropw"
        code, _, err = run(capsys, command, "--input", str(source))
        assert code == 2
        assert "SchemaError" in err and "nonnegative" in err

    @pytest.mark.parametrize(
        "command, path, value",
        [
            ("tropw", ["m"], True),
            ("tropw", ["n"], True),
            ("prolong", ["prolong_bound"], True),
            ("tropw", FACTOR + ["pow"], True),
            ("tropw", FACTOR + ["var", 0], True),
            ("tropw", FACTOR + ["var", 1, 0], True),
            ("tropw", COEFF, terms(([True, 0], "-1"))),
            ("tropw", COEFF, terms(([1, 0], "-1"), ([True, 0], "1"))),
            ("tropw", COEFF, terms(([1, 0], True))),
            ("tropw", COEFF, terms(([1, 0], -0.5))),
            ("tropw", ["weight"], [{"type": "finite", "points": [[True, 0]]}]),
            ("tropw", ["weight"], [{"type": "cofinite", "excluded": [[True, True]]}]),
            ("initial", ["order"], {"type": "matrix", "rows": [[True, 0], [0, True]]}),
            ("order-recover", ["pairs"], [[[True, 0], [0, 1]]]),
        ],
        ids=[
            "m", "n", "prolong-bound", "pow", "variable-index", "multi-index", "exponent",
            "exponent-on-a-used-key", "coeff-bool", "coeff-float", "weight-point",
            "excluded-point", "matrix-row", "pair-exponent",
        ],
    )
    def test_booleans_and_floats_are_schema_errors(self, capsys, tmp_path, command, path, value):
        # json.loads reads true as a bool (an int subclass) and 0.5 as a float;
        # neither is an exact integer or an exact coefficient
        problem = dict(PROBLEM_M1) if path == ["m"] else json.loads(Path(PROBLEM).read_text())
        target = problem
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        source = tmp_path / "inexact.json"
        source.write_text(json.dumps(problem))
        code, _, err = run(capsys, command, "--input", str(source))
        assert code == 2
        assert "SchemaError" in err

    @pytest.mark.parametrize(
        "key, value", [("m", 2.0), ("m", True), ("n", 0)], ids=["m-float", "m-bool", "n-0"]
    )
    def test_widths_that_are_not_positive_ints_are_schema_errors(
        self, capsys, tmp_path, key, value
    ):
        problem = json.loads(Path(PROBLEM).read_text())
        problem[key] = value
        source = tmp_path / "width.json"
        source.write_text(json.dumps(problem))
        code, _, err = run(capsys, "tropw", "--input", str(source))
        assert code == 2
        assert "SchemaError" in err
        assert f"{key} must be a positive integer, got {value!r}" in err

    @pytest.mark.parametrize(
        "rows", [[[1, 0], [0]], [[-1, 0], [0, 1]]], ids=["ragged", "inadmissible"]
    )
    def test_an_order_matrix_that_is_no_monomial_order_is_a_schema_error(
        self, capsys, tmp_path, rows
    ):
        # both exited 3 (NotAMonomialOrder), while a matrix of the wrong width exits 2
        problem = json.loads(Path(PROBLEM).read_text())
        problem["order"] = {"type": "matrix", "rows": rows}
        source = tmp_path / "order.json"
        source.write_text(json.dumps(problem))
        code, _, err = run(capsys, "order-recover", "--input", str(source))
        assert code == 2
        assert "SchemaError" in err and "NotAMonomialOrder" not in err

    def test_float_coefficient_argument_is_a_schema_error(self, capsys):
        term = {"exp": [1, 0], "coeff": 0.1}
        code, _, err = run(capsys, "trop", json.dumps({"num": {"terms": [term]}}))
        assert code == 2
        assert "SchemaError" in err and "0.1" in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("polynomials", 5),
            ("weight", [{"type": "finite", "points": 5}]),
            ("weight", [{"type": "cofinite", "excluded": 5}]),
            ("polynomials", [{"name": "P", "poly": [{"coeff": "1", "monomial": 5}]}]),
            ("polynomials", [{"name": "P", "poly": [{"coeff": {"num": {"terms": 5}}}]}]),
            ("polynomials", [{"name": "P", "poly": [{"coeff": {"num": {"terms": [5]}}}]}]),
            ("order", {"type": "alphabetical"}),
            ("order", "lex"),
            ("polynomials", [{"name": "P", "poly": [{"coeff": "1", "monomial": [{"pow": 1}]}]}]),
            ("polynomials", [{"name": "P", "poly": [{"coeff": "1", "monomial": [{"var": [1]}]}]}]),
            # a key of another type was read as absent: N^2, the empty weight, lex
            ("weight", [{"type": "cofinite", "points": [[0, 0]]}]),
            ("weight", [{"type": "finite", "excluded": [[1, 1]]}]),
            ("order", {"type": "lex", "rows": [[0, 1], [1, 0]]}),
            # an unknown key was read as absent: bound 0, the indicator kernel, pow 1, den 1
            ("prolong-bound", 2),
            ("kernal", "factorial"),
            ("polynomials", [{"name": "P", "poly": [], "note": "x"}]),
            ("polynomials", [{"name": "P", "poly": [{"coeff": "1", "coef": "2"}]}]),
            (
                "polynomials",
                [{"name": "P", "poly": [{"coeff": "1", "monomial": [{"var": [1, [1, 1]], "power": 3}]}]}],
            ),
            ("polynomials", [{"name": "P", "poly": [{"coeff": {"num": "t", "denom": "u"}}]}]),
            ("polynomials", [{"name": "P", "poly": [{"coeff": {"num": {"terms": [], "m": 2}}}]}]),
            (
                "polynomials",
                [{"name": "P", "poly": [{"coeff": {"num": {"terms": [{"exp": [1, 0], "coeff": "1", "pow": 2}]}}}]}],
            ),
        ],
        ids=[
            "polynomials", "points", "excluded", "monomial", "terms", "term", "order-type",
            "order-not-an-object", "factor-without-var", "var-not-a-pair", "cofinite-points",
            "finite-excluded", "named-order-rows", "problem-file-key", "kernel-key", "entry-key",
            "diffpoly-term-key", "factor-key", "num-den-key", "terms-key", "term-key",
        ],
    )
    def test_malformed_shapes_are_schema_errors(self, capsys, tmp_path, field, value):
        problem = json.loads(Path(PROBLEM).read_text())
        problem[field] = value
        source = tmp_path / "malformed.json"
        source.write_text(json.dumps(problem))
        code, _, err = run(capsys, "tropw", "--input", str(source))
        assert code == 2
        assert "SchemaError" in err

    @pytest.mark.parametrize("command", ["prolong", "translate", "initial"])
    def test_negative_bound_is_a_usage_error(self, capsys, command):
        code, _, err = run(capsys, command, "--input", PROBLEM, "--bound", "-1")
        assert code == 2
        assert "SchemaError" in err and "nonnegative" in err

    @pytest.mark.parametrize("command", ["prolong", "translate", "initial"])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_oversized_prolongation_is_refused_before_any_work(
        self, capsys, monkeypatch, tmp_path, command, source
    ):
        from tropdiff import cli, translation

        refuse = lambda *a: pytest.fail("prolong was called")
        monkeypatch.setattr(cli, "prolong", refuse)
        monkeypatch.setattr(translation, "prolong", refuse)
        # m = 2 and one generator: bound 62 gives C(64, 2) = 2016 derivatives
        if source == "flag":
            argv = [command, "--input", PROBLEM, "--bound", "62"]
        else:
            problem = json.loads(Path(PROBLEM).read_text())
            problem["prolong_bound"] = 62
            big = tmp_path / "big.json"
            big.write_text(json.dumps(problem))
            argv = [command, "--input", str(big)]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "SchemaError" in err and "2016 derivatives" in err
        assert str(cli.MAX_DERIVATIVES) in err

    def test_prolongation_under_the_cap_is_allowed(self, capsys, monkeypatch):
        from tropdiff import cli

        # bound 61 gives C(63, 2) = 1953 derivatives, under the cap
        monkeypatch.setattr(cli, "prolong", lambda poly, bound: [poly])
        code, out, _ = run(capsys, "prolong", "--input", PROBLEM, "--bound", "61")
        assert code == 0
        assert len(json.loads(out)) == 1

    @pytest.mark.parametrize(
        "argv",
        [["trop", "--m", "0", "1"], ["trop", "--m", "-1", "1"], ["bezout", "--m", "0", "1", "2"]],
        ids=["trop-0", "trop-negative", "bezout-0"],
    )
    def test_width_below_one_is_a_usage_error(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "SchemaError" in err and "--m must be a positive integer" in err

    @pytest.mark.parametrize(
        "terms",
        [
            [{"exp": [], "coeff": "1"}],
            [{"exp": [1, 0], "coeff": "1"}, {"exp": [1], "coeff": "1"}],
        ],
        ids=["empty-exponent", "mixed-widths"],
    )
    def test_exponent_widths_are_schema_errors(self, capsys, terms):
        code, _, err = run(capsys, "trop", json.dumps({"num": {"terms": terms}}))
        assert code == 2
        assert "SchemaError" in err and "coordinate" in err

    def test_inconsistency_survives_optimized_mode(self, tmp_path):
        # Under python -O a bare assert would vanish and the run would exit 0.
        import tropdiff

        src = str(Path(tropdiff.__file__).resolve().parent.parent)
        script = (
            "import sys\n"
            "from tropdiff import cli\n"
            "assert False, 'asserts must be stripped'\n"
            "cli.order_from_membership = lambda oracle, I, J: 1\n"
            f"sys.exit(cli.main(['order-recover', '--input', {PROBLEM!r}]))\n"
        )
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
        )
        assert done.returncode == 4, done.stderr
        assert "inconsistency" in done.stderr


def problem_with(tmp_path, text):
    source = tmp_path / "problem.json"
    source.write_text(text)
    return str(source)


def problem_with_coeff(tmp_path, coeff):
    """PROBLEM with the running example's second coefficient replaced by coeff."""
    problem = json.loads(Path(PROBLEM).read_text())
    problem["polynomials"][0]["poly"][1]["coeff"] = coeff
    return problem_with(tmp_path, json.dumps(problem))


def nested(depth):
    return "[" * depth + "]" * depth


# one more digit than the interpreter's default limit on int() of a string
LONG_INT = "1" * (sys.int_info.default_max_str_digits + 1)


class TestInputLimits:
    """Input that the decoders refuse exits 2 with a named error, never a traceback."""

    @pytest.mark.parametrize("above", [1, 10_000], ids=["one-above", "far-above"])
    @pytest.mark.parametrize(
        "argv, outer",
        [
            (["tropw", "--input", "{file}"], 0),
            (["trop", '{"x": {deep}}'], 1),
            (["trop", '{"num": {"terms": {deep}}}'], 2),
            (["order-recover", "--input", PROBLEM, "--pairs", "{deep}"], 0),
        ],
        ids=["problem-file", "trop", "trop-terms", "order-recover-pairs"],
    )
    def test_json_nested_above_the_cap_is_a_schema_error(self, capsys, tmp_path, argv, outer, above):
        """The cap is tropdiff's own, so the outcome is the same on every interpreter,
        whatever depth its decoder and its recursion limit would reach."""
        from tropdiff.cli import MAX_JSON_NESTING

        deep = nested(MAX_JSON_NESTING + above - outer)
        source = problem_with(tmp_path, deep)
        argv = [arg.replace("{file}", source).replace("{deep}", deep) for arg in argv]
        assert run(capsys, *argv) == (
            2, "", "error: SchemaError: JSON input nests deeper than 100\n"
        )

    @pytest.mark.parametrize(
        "argv, outer, message",
        [
            (["tropw", "--input", "{file}"], 0, "problem file must be a JSON object"),
            # rational_from's search for an exponent width walks every level
            (["trop", '{"num": {"terms": {deep}}}'], 2,
             "cannot infer the exponent width; pass m"),
        ],
        ids=["problem-file", "trop-terms"],
    )
    def test_json_nested_at_the_cap_reaches_the_schema(self, capsys, tmp_path, argv, outer, message):
        from tropdiff.cli import MAX_JSON_NESTING

        deep = nested(MAX_JSON_NESTING - outer)
        source = problem_with(tmp_path, deep)
        argv = [arg.replace("{file}", source).replace("{deep}", deep) for arg in argv]
        assert run(capsys, *argv) == (2, "", f"error: SchemaError: {message}\n")

    def test_brackets_inside_json_strings_do_not_nest(self, capsys):
        text = '"[{' + "[" * 300 + '\\"{"'
        assert run(capsys, "trop", '{"num": %s, "den": "1"}' % text)[2].startswith(
            "error: PolyParseError: "
        )

    def test_the_nesting_scan_matches_the_loop_it_replaced(self):
        from tropdiff.cli import MAX_JSON_NESTING, _json

        cap = MAX_JSON_NESTING
        texts = [
            nested(cap),
            nested(cap + 1),
            "[" * cap + '"]]]["' + "]" * cap,  # brackets inside a string
            "[" * (cap + 1) + '"]"' + "]" * (cap + 1),
            "[" * cap + '"\\"[[["' + "]" * cap,  # an escaped quote inside a string
            "[" * cap + '"\\\\"' + "[" + "]" * (cap + 1),  # an escaped backslash ends it
            "[" * 60 + '"' + "[" * 60,  # an unterminated string: its brackets count
            "[" * 60 + '"\\\n' + "[" * 60 + '"' + "]" * 60,  # no escape of a newline
            "[]" * 60 + "]",  # malformed, never deep
            "[" * 50 + "{" * 51 + "}" * 51 + "]" * 50,  # 101 deep over both kinds
            '{"a": ' * (cap - 1) + '"{[é]}"' + "}" * (cap - 1),
            '{"a": ' * cap + '"x"' + "}" * cap,
        ]
        pieces = ["[", "[", "{", "]", "}", '"', '\\"', "\\", ",", "1", " ", "\n", "é", '"[{"', '"]}"']
        rng = random.Random(409)
        for _ in range(400):
            middle = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 40)))
            texts.append("[" * rng.randint(cap - 6, cap + 6) + middle + "]" * rng.randint(0, cap + 6))

        def outcome(decode, text):
            try:
                return "value", decode(text)
            except (SchemaError, json.JSONDecodeError) as exc:
                return type(exc), str(exc)

        outcomes = [outcome(_json, text) for text in texts]
        assert outcomes == [outcome(json_by_scan, text) for text in texts]
        kinds = {kind for kind, _ in outcomes}
        assert kinds == {"value", SchemaError, json.JSONDecodeError}

    def test_a_json_integer_with_too_many_digits_is_a_schema_error(self, capsys, tmp_path):
        source = problem_with(tmp_path, '{"m": %s}' % LONG_INT)
        code, out, err = run(capsys, "tropw", "--input", source)
        assert (code, out) == (2, "")
        assert err == "error: SchemaError: JSON input holds an integer with too many digits\n"

    @pytest.mark.parametrize("format", ["json", "pretty"])
    @pytest.mark.parametrize("command", ["prolong", "translate", "initial"])
    def test_an_output_integer_with_too_many_digits_is_a_schema_error(
        self, capsys, tmp_path, command, format
    ):
        # 2^20000 has 6,021 digits: it is read, and writing it is refused as reading
        # it as a JSON int is; nothing is printed of the polynomial before it
        problem = {
            "m": 2,
            "polynomials": [
                {"name": "P", "poly": [{"coeff": "3", "monomial": []}]},
                {"name": "Q", "poly": [{"coeff": "2^20000", "monomial": []}]},
            ],
            "weight": [{"type": "full"}],
            "order": {"type": "lex"},
        }
        source = problem_with(tmp_path, json.dumps(problem))
        assert run(capsys, command, "--input", source, "--format", format) == (2, "", (
            "error: SchemaError: output holds an integer with more than "
            f"{sys.get_int_max_str_digits()} digits\n"
        ))

    def test_a_coefficient_in_exponent_notation_is_refused_at_once(self, capsys):
        # Fraction("1e30000000") builds an int of thirty million digits
        term = {"exp": [1, 0], "coeff": "1e30000000"}
        start = time.perf_counter()
        code, out, err = run(capsys, "trop", json.dumps({"num": {"terms": [term]}}))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (
            'error: SchemaError: coefficient must be an integer or "[-]p[/q]", got \'1e30000000\'\n'
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["tropw", "--input", "{file}"],
            ["trop", "{"],
            ["order-recover", "--input", PROBLEM, "--pairs", "{"],
        ],
        ids=["problem-file", "trop", "order-recover-pairs"],
    )
    def test_a_json_syntax_error_prints_the_decoder_message(self, capsys, tmp_path, argv):
        argv = [arg.replace("{file}", problem_with(tmp_path, "{")) for arg in argv]
        assert run(capsys, *argv) == (2, "", (
            "error: JSONDecodeError: Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1)\n"
        ))

    def test_nesting_at_the_cap_parses(self, capsys):
        from tropdiff.parsing import MAX_NESTING

        text = "(" * MAX_NESTING + "t" + ")" * MAX_NESTING
        assert run(capsys, "trop", text) == run(capsys, "trop", "t")

    @pytest.mark.parametrize("depth", [101, 200])
    def test_expression_nested_above_the_cap_is_a_parse_error(self, capsys, tmp_path, depth):
        text = "(" * depth + "t" + ")" * depth
        for argv in (
            ["trop", text],
            ["bezout", "--", text, "t"],
            ["tropw", "--input", problem_with_coeff(tmp_path, text)],
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv[0]
            assert err == (
                "error: PolyParseError: parentheses nest deeper than 100 (at position 100)\n"
            )

    def test_an_integer_literal_with_too_many_digits_is_a_parse_error(self, capsys, tmp_path):
        for argv, position in (
            (["trop", "t + " + LONG_INT], 4),
            (["bezout", "--", LONG_INT, "t"], 0),
            (["trop", "t" + LONG_INT], 1),
            (["prolong", "--input", problem_with_coeff(tmp_path, LONG_INT + "*t")], 0),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv[0]
            assert err == (
                f"error: PolyParseError: integer of {len(LONG_INT)} digits is too long "
                f"(at position {position})\n"
            )


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["trop", "t100000000"],
             "PolyParseError: variable index above MAX_WIDTH = 1000 (at position 0)"),
            (["trop", "--m", "1001", "t"], "SchemaError: --m must be at most 1000, got 1001"),
            (["bezout", "--m", "1001", "t", "u"], "SchemaError: --m must be at most 1000, got 1001"),
            (["tropw", "--input", "{file}"], "SchemaError: m must be at most 1000, got 20000"),
        ],
        ids=["trop-inferred", "trop-m", "bezout-m", "problem-file"],
    )
    def test_a_width_above_the_cap_is_refused_before_any_work(
        self, capsys, monkeypatch, tmp_path, argv, message
    ):
        from tropdiff import orders, series

        monkeypatch.setattr(orders, "_standard_rows", lambda *a: pytest.fail("an order was built"))
        monkeypatch.setattr(
            series.QPoly, "variable", classmethod(lambda *a: pytest.fail("a variable was built"))
        )
        wide = problem_with(tmp_path, '{"m": 20000, "polynomials": [], "order": {"type": "lex"}}')
        argv = [arg.replace("{file}", wide) for arg in argv]
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_a_width_at_the_cap_is_accepted(self, capsys):
        code, out, _ = run(capsys, "trop", "t1000")
        assert code == 0
        assert json.loads(out) == {"num": [[0] * 999 + [1]], "den": [[0] * 1000]}
        assert run(capsys, "trop", "--m", "1000", "t") == run(capsys, "trop", "--m", "1000", "t1")

    def test_a_wide_prolongation_lists_only_its_derivatives(self, capsys, tmp_path):
        # the m^(bound + 1) box of candidate multi-indices took minutes at m = 40
        x = [{"coeff": "1", "monomial": [{"var": [1, [0] * 40]}]}]
        problem = {"m": 40, "polynomials": [{"name": "P", "poly": x}], "prolong_bound": 1}
        code, out, _ = run(capsys, "prolong", "--input", problem_with(tmp_path, json.dumps(problem)))
        assert code == 0
        rows = json.loads(out)
        assert [row["J"] for row in rows] == [[0] * 40] + [
            [0] * k + [1] + [0] * (39 - k) for k in range(40)
        ]

    def test_a_refusal_of_a_huge_value_stays_short(self, capsys, tmp_path):
        huge = "x" * 100_000
        cases = [
            (
                {"polynomials": [list(range(100_000))]},
                "SchemaError: polynomial entry needs name and poly, got [0, 1, 2, 3,",
                "... (list of length 100000)\n",
            ),
            (
                {"polynomials": [], "kernel": huge},
                "SchemaError: 'xxx",
                "... (str of length 100000) is not a valid SubstitutionKernel\n",
            ),
            (
                {"polynomials": [], "order": {"type": huge}},
                "SchemaError: unknown order kind 'xxx",
                "... (str of length 100000)\n",
            ),
        ]
        for problem, start, end in cases:
            source = problem_with(tmp_path, json.dumps({"m": 2, **problem}))
            assert Path(source).stat().st_size > 100_000
            code, out, err = run(capsys, "tropw", "--input", source)
            assert (code, out) == (2, "")
            assert err.startswith("error: " + start)
            assert err.endswith(end)
            assert len(err.encode()) < 1024

    @pytest.mark.parametrize(
        "command", ["trop", "tropw", "translate", "initial", "prolong", "order-recover"]
    )
    def test_an_input_file_that_is_not_utf8_is_refused(self, capsys, tmp_path, command):
        source = tmp_path / "problem.json"
        source.write_bytes(b"\xff\xfe{")
        code, out, err = run(capsys, command, "--input", str(source))
        assert (code, out) == (2, "")
        assert err == "error: SchemaError: input is not UTF-8 text: invalid start byte at byte 0\n"

    @pytest.mark.parametrize(
        "keys", [["x" * 100_000], [f"k{i}" for i in range(10_000)]], ids=["huge-key", "many-keys"]
    )
    def test_a_refusal_of_unknown_keys_stays_short(self, capsys, tmp_path, keys):
        source = problem_with(tmp_path, json.dumps({"m": 2, **dict.fromkeys(keys, 1)}))
        code, out, err = run(capsys, "tropw", "--input", source)
        assert (code, out) == (2, "")
        assert err.startswith("error: SchemaError: problem file takes no key '")
        assert len(err.encode()) < 1024

# the greatest int of as many digits as the interpreter writes; one more makes it too long
WIDEST = 10 ** sys.get_int_max_str_digits() - 1
TOO_LONG = (
    "error: SchemaError: output holds an integer with more than "
    f"{sys.get_int_max_str_digits()} digits\n"
)


class TestOutputBoundary:
    """cli._emit builds the whole text before it prints any: an integer too long to
    write, wherever it sits in the output, exits 2 with nothing printed."""

    @pytest.mark.parametrize("format", ["json", "pretty"])
    @pytest.mark.parametrize("case", ["exponent", "weight-point", "multi-index"])
    def test_an_output_integer_that_is_no_coefficient_is_refused(
        self, capsys, tmp_path, case, format
    ):
        if case == "exponent":
            # t^WIDEST reads, and its square's exponent has one digit more
            argv = ["trop", "--m", "2", f"(t^{WIDEST})^2"]
        elif case == "weight-point":
            # the value of t*x_(0,0) at the one point of the weight is shifted by t
            problem = {
                "m": 2,
                "polynomials": [{"name": "P", "poly": [
                    {"coeff": "t", "monomial": [{"var": [1, [0, 0]], "pow": 1}]},
                ]}],
                "weight": [{"type": "finite", "points": [[WIDEST, 0]]}],
            }
            argv = ["tropw", "--input", problem_with(tmp_path, json.dumps(problem))]
        else:
            # the derivative d/dt of x_(WIDEST,0) is x_(WIDEST+1,0)
            problem = {
                "m": 2,
                "polynomials": [{"name": "P", "poly": [
                    {"coeff": "1", "monomial": [{"var": [1, [WIDEST, 0]], "pow": 1}]},
                ]}],
            }
            source = problem_with(tmp_path, json.dumps(problem))
            argv = ["prolong", "--bound", "1", "--input", source]
        assert run(capsys, *argv, "--format", format) == (2, "", TOO_LONG)

    @pytest.mark.parametrize("format", ["json", "pretty"])
    def test_the_widest_integer_is_written(self, capsys, tmp_path, format):
        code, out, err = run(capsys, "trop", "--m", "2", f"t^{WIDEST}", "--format", format)
        assert (code, err) == (0, "") and str(WIDEST) in out

    def test_another_value_error_is_not_the_refusal(self, capsys, monkeypatch):
        from tropdiff import cli
        from tropdiff.vertexpoly import VertexFraction

        def refuse(*args):
            raise ValueError("not about digits")

        monkeypatch.setattr(cli.jsonio, "dumps", refuse)
        with pytest.raises(ValueError, match="^not about digits$"):
            main(["trop", "t/(t+u)"])
        monkeypatch.setattr(VertexFraction, "__str__", refuse)
        with pytest.raises(ValueError, match="^not about digits$"):
            main(["trop", "t/(t+u)", "--format", "pretty"])
        assert capsys.readouterr() == ("", "")

    def test_a_pretty_rendering_without_lines_prints_nothing(self, capsys, tmp_path):
        empty = {"m": 2, "polynomials": [], "weight": [{"type": "full"}]}
        source = problem_with(tmp_path, json.dumps(empty))
        assert run(capsys, "tropw", "--input", source, "--format", "pretty") == (0, "", "")
        assert run(capsys, "tropw", "--input", source) == (0, "[]\n", "")

    def test_a_bound_too_large_to_write_its_derivative_count_is_refused(self, capsys):
        # C(10^4000 + 2, 2) has about 8,000 digits; the message shows it by its bit length
        bound = 10**4000
        code, out, err = run(capsys, "prolong", "--input", PROBLEM, "--bound", str(bound))
        assert (code, out) == (2, "")
        assert err.startswith("error: SchemaError: bound 1000")
        size = (bound + 2) * (bound + 1) // 2
        assert err.endswith(
            f"(int of length 4001) asks for (int of {size.bit_length()} bits) derivatives, "
            f"more than {MAX_DERIVATIVES}\n"
        )


class TestReadSource:
    """A file and stdin are read as bytes: the same text, errors and offsets as text mode."""

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("command", ["tropw", "translate", "initial", "prolong"])
    def test_any_newline_prints_the_bytes_of_the_lf_file(self, capsys, tmp_path, command, newline):
        lf = Path(PROBLEM).read_bytes()
        assert b"\r" not in lf and lf.count(b"\n") > 10
        source = tmp_path / "problem.json"
        source.write_bytes(lf.replace(b"\n", newline))
        want = run(capsys, command, "--input", PROBLEM)
        assert want[0] == 0 and want[1]
        assert run(capsys, command, "--input", str(source)) == want

    def test_a_bad_byte_deep_in_the_file_is_reported_at_its_offset(self, capsys, tmp_path):
        source = tmp_path / "problem.json"
        source.write_bytes(b'{"m": 2, "x": "' + b"a" * 20_000 + b"\xff")
        assert run(capsys, "tropw", "--input", str(source)) == (2, "", (
            "error: SchemaError: input is not UTF-8 text: invalid start byte at byte 20015\n"
        ))

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_a_json_syntax_error_after_a_newline_keeps_its_position(
        self, capsys, tmp_path, newline
    ):
        source = tmp_path / "problem.json"
        source.write_bytes(b'{\n  "m": 2,\n  x}\n'.replace(b"\n", newline))
        assert run(capsys, "tropw", "--input", str(source)) == (2, "", (
            "error: JSONDecodeError: Expecting property name enclosed in double quotes: "
            "line 3 column 3 (char 14)\n"
        ))

    @pytest.mark.parametrize("command", ["tropw", "translate", "initial", "prolong"])
    def test_a_leading_byte_order_mark_is_dropped(self, capsys, monkeypatch, tmp_path, command):
        # RFC 8259 lets a parser ignore it; json.loads alone refuses it
        bom = b"\xef\xbb\xbf" + Path(PROBLEM).read_bytes()
        source = tmp_path / "bom.json"
        source.write_bytes(bom)
        want = run(capsys, command, "--input", PROBLEM)
        assert want[0] == 0 and want[1]
        assert run(capsys, command, "--input", str(source)) == want
        monkeypatch.setattr("sys.stdin", stdin_of(bom))
        assert run(capsys, command, "--input", "-") == want

    def test_only_one_byte_order_mark_is_dropped(self, capsys, tmp_path):
        source = tmp_path / "bom.json"
        source.write_bytes(b"\xef\xbb\xbf" * 2 + Path(PROBLEM).read_bytes())
        code, out, err = run(capsys, "tropw", "--input", str(source))
        assert (code, out) == (2, "")
        assert err.startswith("error: JSONDecodeError: Unexpected UTF-8 BOM")

    def test_stdin_reads_as_the_file_does(self, capsys, monkeypatch, tmp_path):
        """Seeded byte strings through --input - and --input <file> give the same
        exit code, stdout and stderr: newlines, text outside ASCII, bytes that do
        not decode at several offsets, and a leading byte-order mark."""
        rng = random.Random(1061)
        bases = [
            ("tropw", Path(PROBLEM).read_bytes()),
            ("trop", b"t/(t+u)\n"),
            ("trop", b'{\n  "num": "t",\n  "den": "t+u"\n}\n'),
        ]
        wide = ["é", "€", "𝕥"]  # two, three and four bytes in UTF-8
        bad = [b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xf0\x9d\x95"]
        seen = set()
        for k in range(90):
            command, data = rng.choice(bases)
            data = data.replace(b"\n", rng.choice([b"\n", b"\r\n", b"\r"]))
            if rng.random() < 0.4:
                # inside a name or a text side, or before a newline
                marker = rng.choice([b'"P"', b'"t"', b"\n"])
                char = rng.choice(wide).encode()
                data = data.replace(marker, marker[:-1] + char + marker[-1:], 1)
            if rng.random() < 0.4:
                at = rng.randrange(len(data) + 1)
                data = data[:at] + rng.choice(bad) + data[at:]
            if rng.random() < 0.3:
                data = b"\xef\xbb\xbf" + data
            source = tmp_path / f"case{k}"
            source.write_bytes(data)
            from_file = run(capsys, command, "--input", str(source))
            monkeypatch.setattr("sys.stdin", stdin_of(data))
            assert run(capsys, command, "--input", "-") == from_file, data
            seen.add(from_file[0] if from_file[0] == 0 else from_file[2].split(":")[1].strip())
        assert seen == {0, "SchemaError", "PolyParseError", "JSONDecodeError", "UnknownVariable"}


COMMANDS = [
    "trop", "tropw", "translate", "initial", "prolong",
    "order-recover", "bezout", "omega-chain", "selftest",
]
# each case runs against every command; where the option does not exist it is
# an unknown option, which argparse reports through the top-level parser
USAGE_CASES = {
    "help": ["--help"],
    "missing-required": [],
    "bad-format": ["--format", "xml"],
    "bad-kernel": ["--kernel", "nope"],
    "non-int-bound": ["--bound", "x"],
    "non-int-m": ["--m", "x"],
    "non-int-count": ["--count", "x"],
    "unknown-option": ["--input", PROBLEM, "--no-such-option"],
    "extra-positionals": ["a", "b", "c"],
    "abbreviation": ["--inp", PROBLEM],
    "format-equals": ["--format=pretty"],
    "float-m": ["--m", "2.5"],
    "double-dash": ["--", "-t", "u"],
    "unknown-option-first": ["--no-such-option", "--input", PROBLEM],
}
# every command with its required arguments and nothing else left over
CALLS = [
    ["trop", "t"],
    ["tropw", "--input", PROBLEM],
    ["translate", "--input", PROBLEM],
    ["initial", "--input", PROBLEM],
    ["prolong", "--input", PROBLEM],
    ["order-recover", "--input", PROBLEM],
    ["bezout", "t", "u"],
    ["omega-chain"],
    ["selftest"],
]
# captured from the full parser at COLUMNS=80 before the single-command parser
# existed; they keep the full parser (now helpers.full_parser) and the
# top-level parser from drifting
TOP_USAGE = """\
usage: tropdiff [-h]
                {trop,tropw,translate,initial,prolong,order-recover,bezout,omega-chain,selftest}
                ...
"""
TOP_HELP = TOP_USAGE + """
Exact tropical computations for differential polynomials.

positional arguments:
  {trop,tropw,translate,initial,prolong,order-recover,bezout,omega-chain,selftest}
    trop                tropical value of a rational function
    tropw               weighted tropical value of each polynomial
    translate           translated derivatives up to the bound
    initial             initial form generator set
    prolong             derivatives up to the bound
    order-recover       recover exponent comparisons from ideal membership
    bezout              smallest witness M for a pair
    omega-chain         strictly growing unit-ball values omega_1 ..
                        omega_count
    selftest            run the built-in golden checks

options:
  -h, --help            show this help message and exit
"""
UNKNOWN_COMMAND = TOP_USAGE + (
    "tropdiff: error: argument command: invalid choice: 'nosuch' (choose from 'trop', "
    "'tropw', 'translate', 'initial', 'prolong', 'order-recover', 'bezout', "
    "'omega-chain', 'selftest')\n"
)


def parse(capsys, parser, argv):
    """(exit code or parsed values, stdout, stderr) of one parse_args call."""
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit as exc:
        outcome = exc.code
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


@pytest.fixture
def received(monkeypatch):
    """The parsed values each command is called with; no command runs."""
    from tropdiff import cli

    calls = []
    record = lambda args: calls.append(vars(args)) or 0
    table = tuple((name, text, record, arguments) for name, text, _, arguments in cli._COMMANDS)
    monkeypatch.setattr(cli, "_COMMANDS", table)
    return calls


def count_top_level_parsers(monkeypatch):
    """A list that gets one entry each time main builds the top-level parser."""
    from tropdiff import cli

    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or build())
    return built


class TestParser:
    def test_the_table_names_every_command(self):
        from tropdiff import cli

        assert [name for name, *_ in cli._COMMANDS] == COMMANDS

    @pytest.mark.parametrize("case", USAGE_CASES)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_single_command_parser_matches_the_full_one(
        self, capsys, monkeypatch, received, command, case
    ):
        """main's exit code, output and parsed values are those of the full parser."""
        monkeypatch.setenv("COLUMNS", "80")
        argv = [command, *USAGE_CASES[case]]
        values, out, err = parse(capsys, full_parser(), argv)
        if isinstance(values, dict):  # parsed: the command gets the same values
            del values["command"]
            expected = (0, out, err, [values])
        else:  # argparse exited: help is 0, every usage error 2
            expected = (0 if values == 0 else 2, out, err, [])
        assert (*run(capsys, *argv), received) == expected

    @pytest.mark.parametrize(
        "argv, only",
        [(["tropw", "--help"], "tropw"), (["omega-chain"], "omega-chain"), (["--help"], None),
         ([], None), (["nosuch"], None), (["--format", "json"], None), (["Tropw"], None)]
        + [(argv, argv[0]) for argv in CALLS],
    )
    def test_main_builds_only_the_named_command(self, capsys, monkeypatch, argv, only):
        """A call of a command parses with that command's parser alone; top-level
        help, no arguments and anything but a command name build the top-level
        parser once."""
        from tropdiff import cli

        if only is None:
            built = count_top_level_parsers(monkeypatch)
            main(argv)
            assert built == [1]
        else:
            def refuse():
                raise AssertionError("the top-level parser was built")

            monkeypatch.setattr(cli, "_build_parser", refuse)
            assert main(argv) == 0

    @pytest.mark.parametrize("argv", CALLS, ids=lambda argv: argv[0])
    def test_leftover_arguments_print_the_top_level_usage(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        built = count_top_level_parsers(monkeypatch)
        assert run(capsys, *argv, "--no-such-option") == (
            2, "", TOP_USAGE + "tropdiff: error: unrecognized arguments: --no-such-option\n"
        )
        assert built == [1]

    def test_top_level_help(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, "--help") == (0, TOP_HELP, "")

    def test_the_top_level_declares_no_command_argument(self):
        from tropdiff import cli

        (commands,) = cli._build_parser()._subparsers._group_actions
        assert list(commands.choices) == COMMANDS
        for parser in commands.choices.values():
            assert [action.dest for action in parser._actions] == ["help"]

    @pytest.mark.parametrize("argv", [["--help"], [], ["nosuch"], ["--format", "json"]])
    def test_the_top_level_speaks_as_the_full_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = parse(capsys, full_parser(), argv)
        assert run(capsys, *argv) == (0 if code == 0 else 2, out, err)

    def test_unknown_command(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, "nosuch") == (2, "", UNKNOWN_COMMAND)

    def test_a_kept_parser_carries_nothing_from_one_call_to_the_next(
        self, capsys, monkeypatch, received
    ):
        """Calls of every command, interleaved in one process, each exit, print
        and parse as a freshly built full parser; each command's parser is
        built once across them all."""
        from tropdiff import cli

        monkeypatch.setenv("COLUMNS", "80")
        # each change runs on every command, and then every plain call: names
        # given, a bound, a format, usage errors and help, each then left out
        changes = [
            lambda call: [*call, "P"],
            lambda call: [*call, "--bound", "3"],
            lambda call: [*call, "--format", "pretty"],
            lambda call: [*call, "--bound", "x"],
            lambda call: call[:1],  # no arguments: a missing --input
            lambda call: [*call, "--bogus"],
            lambda call: [*call, "--help"],
        ]
        cli._command_parser.cache_clear()
        for change in changes:
            for argv in [*map(change, CALLS), *CALLS]:
                values, out, err = parse(capsys, full_parser(), argv)
                if isinstance(values, dict):
                    del values["command"]
                    expected = (0, out, err, [values])
                else:
                    expected = (0 if values == 0 else 2, out, err, [])
                received.clear()
                assert (*run(capsys, *argv), received) == expected, argv
        assert cli._command_parser.cache_info().misses == len(COMMANDS)


class TestEntryPoint:
    """python -m tropdiff reads its arguments from sys.argv."""

    @staticmethod
    def module(*argv):
        import tropdiff

        src = str(Path(tropdiff.__file__).resolve().parent.parent)
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path, COLUMNS="80")
        return subprocess.run(
            [sys.executable, "-m", "tropdiff", *argv], env=env, capture_output=True
        )

    @pytest.mark.parametrize("command", ["tropw", "initial"])
    def test_same_bytes_as_main(self, capsys, command):
        done = self.module(command, "--input", PROBLEM)
        code, out, err = run(capsys, command, "--input", PROBLEM)
        assert (done.returncode, done.stdout, done.stderr) == (0, out.encode(), b"")
        assert code == 0 and err == ""

    def test_no_arguments_is_a_usage_error(self):
        done = self.module()
        assert done.returncode == 2
        assert done.stderr.decode() == (
            TOP_USAGE + "tropdiff: error: the following arguments are required: command\n"
        )

    def test_help_is_success(self):
        done = self.module("--help")
        assert (done.returncode, done.stdout.decode()) == (0, TOP_HELP)
