import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import json_tree
from tropdiff import (
    BooleanWeight,
    DiffMonomial,
    DiffPoly,
    VertexFraction,
    initial_generators,
    multi_indices,
    order_standard,
    parse_poly,
    prolong,
    translate,
    tropw,
)
from tropdiff.cli import main
from tropdiff.jsonio import diffpoly_json, vertexfraction_json

PROBLEM = "tests/data/exp_problem.json"
PROBLEM_UFIRST = "tests/data/exp_problem_ufirst.json"

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
        monkeypatch.setattr("sys.stdin", io.StringIO("t/(t+u)"))
        code, out, _ = run(capsys, "trop", "--input", "-")
        assert code == 0
        assert json.loads(out) == TROP_GOLDEN

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

    def test_zero_input_is_domain_error(self, capsys):
        code, _, err = run(capsys, "bezout", "0", "t")
        assert code == 3
        assert "ZeroTropicalValue" in err


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
        ],
        ids=["polynomials", "points", "excluded", "monomial", "terms", "term", "order-type"],
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
}
# captured from the full parser at COLUMNS=80 before the single-command parser
# existed; they keep the full parser itself from drifting
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


class TestParser:
    def test_the_table_names_every_command(self):
        from tropdiff import cli

        assert cli._COMMAND_NAMES == COMMANDS

    @pytest.mark.parametrize("case", USAGE_CASES)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_single_command_parser_matches_the_full_one(self, capsys, monkeypatch, command, case):
        from tropdiff import cli

        monkeypatch.setenv("COLUMNS", "80")
        argv = [command, *USAGE_CASES[case]]
        single = parse(capsys, cli._build_parser(command), argv)
        assert single == parse(capsys, cli._build_parser(), argv)

    @pytest.mark.parametrize(
        "argv, only",
        [(["tropw", "--help"], "tropw"), (["omega-chain"], "omega-chain"), (["--help"], None),
         ([], None), (["nosuch"], None), (["--format", "json"], None), (["Tropw"], None)],
    )
    def test_main_builds_only_the_named_command(self, capsys, monkeypatch, argv, only):
        from tropdiff import cli

        built = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda name: built.append(name) or build(name))
        main(argv)
        assert built == [only]

    def test_top_level_help(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, "--help") == (0, TOP_HELP, "")

    def test_unknown_command(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, "nosuch") == (2, "", UNKNOWN_COMMAND)


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
