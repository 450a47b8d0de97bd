"""Seeded end-to-end and per-layer benchmark of the tropdiff CLI pipelines.

    python3 bench/run.py --workload initial-m2 --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the program is imported from its src/.
The benchmark is a closed loop in one process: it issues one problem at a time
through tropdiff.cli.main([...]) and starts no threads or worker processes
(apart from the fresh interpreters that time set-up).  Every problem's exit
code and stdout digest are checked against reference_digests.json.

--trace 0 measures the end-to-end metrics.  Passes of SLOTS problems run until
--seconds have elapsed, each pass on new variants.  A unit of reference work
(calibration.py) runs after every problem, and each problem's time is divided
by the speed factor measured around it, so times read as at the reference
speed of the machine; raw pass times and pass speed factors are in the meta
line.  problems_per_s is
the median over passes.

    problems_per_s   problems completed per second over one pass
    latency_p50_s    median wall time of one problem: the median over slots of
                     each slot's median over passes
    latency_tail_s   wall time at the highest percentile with ten problems
                     beyond it: p90 over the SLOTS slots, as for the median
    peak_rss_mib     peak resident memory of this process
    setup_s          median time for a fresh interpreter to import tropdiff.cli
                     and build its argument parser (cli.main(["--help"])),
                     each scaled by reference units run in that interpreter

fail_ratio, problems that exit nonzero or print other bytes than the reference,
over problems attempted, is the failed/attempted pair of the result line.

--trace 1 measures the per-layer metrics on the first pass's problems: an
untraced and a traced pass alternate until --seconds have elapsed.  Counts come
from the first traced pass and repeat exactly; self times are medians over
traced passes; trace.overhead_ratio compares traced with untraced pass time.
Self times are divided by the pass's speed factor.
The first traced pass's spans are written to .bench-out/spans-<workload>.tsv.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibration
import layers
import problems

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "reference_digests.json"
SETUP_SAMPLES = 15
SETUP_UNITS = 20

# In a fresh interpreter: the seconds to import tropdiff.cli and build its
# parser, then the seconds that SETUP_UNITS reference units take there.
_SETUP_CHILD = """\
import contextlib, io, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from tropdiff import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["--help"])
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import calibration
units = sum(calibration.timed_unit() for _ in range(int(sys.argv[3])))
print(repr(elapsed), repr(units)) if code == 0 else print("failed")
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_cli():
    """tropdiff.cli from this checkout's src/, never from anywhere else."""
    package = SRC / "tropdiff"
    if not (package / "cli.py").is_file():
        raise BenchError(f"no tropdiff sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from tropdiff import cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported tropdiff from {cli.__file__}, not {package}")
    return cli


def load_digests() -> dict[str, list[list[str]]]:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


class Runner:
    """Writes problem files and runs them through cli.main in this process."""

    def __init__(self, cli, workload: str, digests: dict, workdir: Path):
        self.cli = cli
        self.workload = problems.WORKLOADS[workload]
        self.expected = digests[workload]
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def write(self, slot: int, variant: int) -> Path:
        path = self.workdir / f"s{slot:03d}-v{variant:02d}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(problems.problem(self.workload.name, slot, variant), handle)
        return path

    def run(self, path: Path) -> tuple[float, int, str]:
        """Wall time, exit code and stdout of one CLI invocation."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = self.cli.main([self.workload.command, "--input", str(path)])
            elapsed = time.perf_counter() - start
        return elapsed, code, out.getvalue()

    def check(self, slot: int, variant: int, code: int, stdout: str) -> None:
        self.attempted += 1
        digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        if code != 0 or digest != self.expected[slot][variant]:
            self.failed += 1
            self.failures.append(f"slot {slot} variant {variant}: exit {code}, sha256 {digest}")

    def run_pass(self, cases: list[tuple[int, int]], tracer=None) -> tuple[list[float], list[float]]:
        """Raw latencies of one pass, and the time of the unit run after each.

        Files are written before the timed calls.
        """
        paths = [self.write(slot, variant) for slot, variant in cases]
        latencies, units = [], []
        for k, ((slot, variant), path) in enumerate(zip(cases, paths)):
            if tracer is not None:
                tracer.problem = k
            elapsed, code, stdout = self.run(path)
            self.check(slot, variant, code, stdout)
            latencies.append(elapsed)
            units.append(calibration.timed_unit())
        return latencies, units


def scaled(latencies: list[float], units: list[float]) -> list[float]:
    """Latencies at the reference speed, each by the speed measured around it."""
    return [x / f for x, f in zip(latencies, calibration.local_factors(units))]


def pass_factor(units: list[float]) -> float:
    return calibration.speed_factor(sum(units), len(units))


def pass_cases(order: list[list[int]], index: int) -> list[tuple[int, int]]:
    return [(slot, order[slot][index]) for slot in range(problems.SLOTS)]


def tail_index(count: int) -> int:
    """Index of the highest order statistic with ten samples beyond it."""
    return count - 11


def measure_setup(samples: int) -> list[tuple[float, float]]:
    """(raw seconds, speed factor) of fresh interpreters importing tropdiff.cli."""
    out = []
    for k in range(samples + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CHILD, str(SRC), str(BENCH), str(SETUP_UNITS)],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=ROOT,
            check=False,
        )
        text = done.stdout.strip()
        if done.returncode != 0 or text == "failed":
            raise BenchError(f"set-up child failed: {done.stderr.strip()[-500:]}")
        if k:  # the first interpreter may still compile bytecode
            elapsed, units = map(float, text.split())
            out.append((elapsed, calibration.speed_factor(units, SETUP_UNITS)))
    return out


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(runner: Runner, order, seconds: float) -> tuple[dict, dict]:
    setup = measure_setup(SETUP_SAMPLES)
    warm = runner.write(0, order[0][0])
    runner.run(warm)  # the first call pays for lazy imports inside the stdlib
    per_pass, raw_pass_s, factors = [], [], []
    begin = time.perf_counter()
    for index in range(problems.VARIANTS):
        latencies, units = runner.run_pass(pass_cases(order, index))
        per_pass.append(scaled(latencies, units))
        raw_pass_s.append(sum(latencies))
        factors.append(pass_factor(units))
        if time.perf_counter() - begin >= seconds:
            break
    elapsed = time.perf_counter() - begin
    # A slot's latency is its median over passes, which damps a burst of
    # interference that hits one problem; percentiles are taken over slots.
    per_slot = sorted(statistics.median(p[s] for p in per_pass) for s in range(problems.SLOTS))
    metrics = {
        "problems_per_s": (statistics.median(len(p) / sum(p) for p in per_pass), "1/s"),
        "latency_p50_s": (statistics.median(per_slot), "s"),
        "latency_tail_s": (per_slot[tail_index(len(per_slot))], "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
        "setup_s": (statistics.median(s / f for s, f in setup), "s"),
    }
    meta = {
        "passes": len(per_pass),
        "measured_s": elapsed,
        "raw_pass_s": raw_pass_s,
        "speed_factors": factors,
        "setup_samples": len(setup),
        "setup_raw_s_and_factor": setup,
    }
    return metrics, meta


def traced_pass(runner: Runner, cases: list[tuple[int, int]], tracer: layers.Tracer):
    """Raw latencies and unit times of a pass run with the tracer's wrappers."""
    restore = layers.install(tracer)
    try:
        return runner.run_pass(cases, tracer)
    finally:
        restore()


def per_layer(runner: Runner, order, seconds: float, workload: str) -> tuple[dict, dict]:
    cases = pass_cases(order, 0)
    runner.run(runner.write(0, order[0][0]))
    plain, traced, tracers = [], [], []
    begin = time.perf_counter()
    while not traced or time.perf_counter() - begin < seconds:
        plain.append(sum(scaled(*runner.run_pass(cases))))
        tracers.append(layers.Tracer())
        latencies, units = traced_pass(runner, cases, tracers[-1])
        traced.append((sum(scaled(latencies, units)), pass_factor(units)))
    self_times = [
        {name: s / factor for name, s in tracer.self_times()[1].items()}
        for tracer, (_, factor) in zip(tracers, traced)
    ]
    names = set().union(*self_times)
    median_self = {n: statistics.median(st.get(n, 0.0) for st in self_times) for n in names}
    metrics = layers.layer_metrics(tracers[0], median_self)
    overhead = statistics.median(t for t, _ in traced) / statistics.median(plain) - 1
    metrics["trace.overhead_ratio"] = (overhead, "1")
    metrics["trace.spans"] = (len(tracers[0].start), "count")
    out_dir = ROOT / ".bench-out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}.tsv"
    tracers[0].write_spans(spans_path)
    meta = {
        "passes": len(traced),
        "untraced_pass_s": plain,
        "traced_pass_s_and_factor": traced,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, meta


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(problems.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = load_cli()
        digests = load_digests()
    except (BenchError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    order = problems.variant_order(args.seed)
    workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        runner = Runner(cli, args.workload, digests, workdir)
        if args.trace:
            metrics, meta = per_layer(runner, order, args.seconds, args.workload)
        else:
            metrics, meta = end_to_end(runner, order, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    slots = problems.SLOTS
    meta.update(
        {
            "workload": args.workload,
            "shape": problems.WORKLOADS[args.workload].shape,
            "seed": args.seed,
            "trace": args.trace,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "problems_per_pass": slots,
            "tail_percentile": 100 * (tail_index(slots) + 1) / slots,
            "samples_per_percentile": slots,
            "samples_per_slot": meta["passes"],
            "attempted": runner.attempted,
            "failed": runner.failed,
            "fail_ratio": runner.failed / runner.attempted,
            "failures": runner.failures[:20],
        }
    )
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value!r} {unit}")
    print(f"{'fail_ratio':40s} {runner.failed / runner.attempted!r} 1")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
