"""Checks of the benchmark itself.

    python3 -m pytest bench/tests -q

The cross-checks hold what the benchmark records against routes other than
the one the CLI takes: the 2-D staircase walk, the candidate set of a
cofinite weight, and evaluation of derivatives on polynomial arguments.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layers  # noqa: E402
import problems  # noqa: E402
import run  # noqa: E402

cli = run.load_cli()

from tropdiff import jsonio  # noqa: E402
from tropdiff.diffpoly import multi_indices  # noqa: E402
from tropdiff.series import QPoly  # noqa: E402
from tropdiff.vertexpoly import VertexPoly, staircase_vertices_2d  # noqa: E402
from tropdiff.weights import BooleanWeight  # noqa: E402

SEED = 7
FEW = 12  # problems per traced check; the first FEW slots cover every shape mix


@pytest.fixture(scope="module")
def digests():
    return run.load_digests()


@pytest.fixture
def runner_for(digests, tmp_path):
    def make(workload):
        return run.Runner(cli, workload, digests, tmp_path)

    return make


def cases(seed, count=FEW, index=0):
    return run.pass_cases(problems.variant_order(seed), index)[:count]


def traced_metrics(runner, seed):
    tracer = layers.Tracer()
    run.traced_pass(runner, cases(seed), tracer)
    _, self_s = tracer.self_times()
    return tracer, layers.layer_metrics(tracer, self_s)


# -- the generator -----------------------------------------------------------


def test_generator_is_deterministic_and_valid():
    for name in problems.WORKLOADS:
        for slot in range(problems.SLOTS):
            for variant in (0, problems.VARIANTS - 1):
                obj = problems.problem(name, slot, variant)
                assert obj == problems.problem(name, slot, variant)
                jsonio.problem_from(json.loads(json.dumps(obj)))


def test_cancelling_coefficients_are_redrawn():
    class Cancelling(random.Random):
        """Values 1, -1 first (they cancel on a shared exponent), then 2, 1."""

        def __init__(self):
            super().__init__(0)
            self.script = [1, 1, -1, 1, 2, 1, 2, 1]

        def choice(self, seq):
            return self.script.pop(0)

    draw = problems.Draw("x", 0, 0)
    draw.shape = random.Random(0)
    draw.value = Cancelling()
    draw.shape.randint = lambda a, b: 0  # every exponent is the origin
    assert problems._poly(draw, 2, 2, 1) == {(0, 0): Fraction(4)}


def test_digests_cover_the_pool(digests):
    assert set(digests) == set(problems.WORKLOADS)
    for rows in digests.values():
        assert len(rows) == problems.SLOTS
        assert all(len(row) == problems.VARIANTS for row in rows)


# -- cross-checks against independent routes --------------------------------


class Recording(layers.Tracer):
    """Tracer that also keeps the input and output of every 2-D extraction."""

    def __init__(self):
        super().__init__()
        self.extractions = []

    def _vertexpoly(self, args, result):
        super()._vertexpoly(args, result)
        vp, m, points = args
        if m == 2:
            self.extractions.append((list(points), vp.points))


def test_initial_m2_extractions_match_the_staircase(runner_for):
    runner = runner_for("initial-m2")
    tracer = Recording()
    run.traced_pass(runner, cases(SEED), tracer)
    assert runner.failed == 0
    assert len(tracer.extractions) > 1000
    for points, vertices in tracer.extractions:
        assert staircase_vertices_2d(points) == vertices


def _candidates(weight: BooleanWeight) -> VertexPoly:
    """{0} and every q + e_k for excluded q, minus the excluded set."""
    m = weight.m
    out = {(0,) * m}
    for q in weight.data:
        for k in range(m):
            out.add(tuple(v + (j == k) for j, v in enumerate(q)))
    return VertexPoly(m, out - weight.data)


def test_far_weights_match_the_candidate_set():
    checked = 0
    for slot in range(problems.SLOTS):
        for variant in (0, 1):
            obj = problems.problem("tropw-far-m4", slot, variant)
            for raw in obj["weight"]:
                weight = jsonio.weight_from(raw, obj["m"])
                for J in multi_indices(obj["m"], 1):
                    shifted = weight.shift(J)
                    if shifted.kind == "cofinite":
                        assert _candidates(shifted) == shifted.vertices()
                        checked += 1
    assert checked > 500


def test_prolong_m2_derivatives_evaluate_consistently(runner_for):
    runner = runner_for("prolong-m2")
    rng = random.Random(SEED)
    for slot, variant in cases(SEED, count=4):
        obj = problems.problem("prolong-m2", slot, variant)
        _, code, stdout = runner.run(runner.write(slot, variant))
        assert code == 0
        problem = jsonio.problem_from(obj)
        base = dict(problem.polynomials)
        args = [
            QPoly(2, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(1, 3) for _ in range(2)})
            for _ in range(problem.n)
        ]
        for entry in json.loads(stdout):
            if sum(entry["J"]) > 2:
                continue  # third derivatives of the evaluated base are slow to form
            derived = jsonio.diffpoly_from(entry["poly"], problem.m, problem.n)
            expected = base[entry["name"]].evaluate(args).deriv(entry["J"])
            assert derived.evaluate(args) == expected


# -- tracing -----------------------------------------------------------------

# Per workload, the per-layer counts the workload must drive above zero.
EXPECTED_WORK = {
    "initial-m2": [
        "feasibility.covered.calls",
        "vertexpoly.VertexPoly.calls_m2",
        "weights.vertices.calls",
        "weights.substitution_poly.calls",
        "series.QPoly.calls",
        "series.QPoly.mul.calls",
        "series.trop_frac.calls",
        "series.residue.calls",
        "orders.min.calls",
        "diffpoly.derive.calls",
        "diffpoly.prolong.calls",
        "translation.tropw.calls",
        "translation.translate.calls",
        "translation.initial_form.calls",
        "translation.initial_generators.calls",
        "parsing.parse_rational.calls",
        "jsonio.problem_from.calls",
        "jsonio.encode.calls",
        "cli.main.calls",
    ],
    "translate-m3": [
        "feasibility.covered.calls",
        "vertexpoly.VertexPoly.calls_m3p",
        "weights.vertices.calls",
        "weights.substitution_poly.calls",
        "series.QPoly.mul.calls",
        "series.trop_frac.calls",
        "diffpoly.derive.calls",
        "translation.tropw.calls",
        "translation.translate.calls",
        "parsing.parse_rational.calls",
        "jsonio.encode.calls",
    ],
    "prolong-m2": [
        "series.QPoly.calls",
        "series.QPoly.mul.calls",
        "diffpoly.derive.calls",
        "diffpoly.prolong.calls",
        "parsing.parse_rational.calls",
        "jsonio.problem_from.calls",
        "jsonio.encode.calls",
    ],
    "tropw-far-m4": [
        "weights.vertices.calls",
        "weights.vertices.box_points",
        "vertexpoly.VertexPoly.calls_m3p",
        "series.trop_frac.calls",
        "translation.tropw.calls",
        "jsonio.encode.calls",
    ],
}


@pytest.mark.parametrize("workload", sorted(EXPECTED_WORK))
def test_wrappers_see_calls_through_imported_names(runner_for, workload):
    runner = runner_for(workload)
    _, metrics = traced_metrics(runner, SEED)
    assert runner.failed == 0
    zero = [name for name in EXPECTED_WORK[workload] if metrics[name][0] == 0]
    assert not zero, f"{workload} reads zero for {zero}"
    if workload == "prolong-m2":
        assert metrics["feasibility.covered.calls"][0] == 0


def test_wrappers_are_removed_after_a_traced_pass(runner_for):
    from tropdiff import cli as cli_module, vertexpoly

    before = (cli_module.main, cli_module.initial_generators, vertexpoly.covered)
    run.traced_pass(runner_for("initial-m2"), cases(SEED, count=2), layers.Tracer())
    assert (cli_module.main, cli_module.initial_generators, vertexpoly.covered) == before


def _counts(metrics):
    return {
        name: value
        for name, (value, unit) in metrics.items()
        if unit in ("count", "1") and name != "trace.overhead_ratio"
    }


@pytest.mark.parametrize("workload", ["initial-m2", "tropw-far-m4"])
def test_counts_repeat_exactly(runner_for, workload):
    first = _counts(traced_metrics(runner_for(workload), SEED)[1])
    second = _counts(traced_metrics(runner_for(workload), SEED)[1])
    assert first == second
    assert first["feasibility.covered.calls"] > 0


def test_a_second_seed_passes_every_output_check(runner_for):
    for workload in problems.WORKLOADS:
        runner = runner_for(workload)
        runner.run_pass(cases(SEED + 1, count=30, index=1))
        assert runner.attempted == 30
        assert runner.failed == 0, runner.failures


def test_a_changed_output_counts_as_a_failure(runner_for):
    runner = runner_for("tropw-far-m4")
    slot, variant = cases(SEED, count=1)[0]
    runner.check(slot, variant, 0, "not the reference output\n")
    runner.check(slot, variant, 3, "")
    assert (runner.attempted, runner.failed) == (2, 2)
