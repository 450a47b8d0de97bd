import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tropdiff import (
    BooleanWeight,
    DiffMonomial,
    DiffPoly,
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
            assert entry["poly"] == diffpoly_json(translate(derived, w))

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
        assert json.loads(out) == [diffpoly_json(f) for f in forms]

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


class TestExitCodes:
    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "trop", "t$")
        assert code == 2
        assert "PolyParseError" in err

    def test_zero_denominator(self, capsys):
        code, _, err = run(capsys, "trop", "t1/0")
        assert code == 3
        assert "ZeroDenominator" in err

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
