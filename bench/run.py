"""Benchmark of treefacility: SP certification, adversarial ratio search and
large trees, end to end and per module.

    python3 bench/run.py --workload sp-certify --seed 1 --seconds 30 --trace 0

Runs one workload in this process on one thread.  It sets up (imports
treefacility from ``src/`` and generates the inputs from the seed), then
runs a fixed number of whole rounds of the workload's operations, checking
every output against the benchmark's own reference computations.  The
number of rounds follows from ``--seconds`` and the workload's nominal round
time, not from the clock, so every run of the same length attempts the same
operations.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines
before it report every failed operation.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-ups timed per run: one before the rounds, the rest spread between them,
# so that setup_s samples the machine over the whole run, as wall_s does.
SETUP_REPEATS = 9
# Seconds one round of each workload takes on the reference machine (see
# README.md); a run of --seconds S makes round(S / this) rounds, at least one.
ROUND_SECONDS = {"sp-certify": 3.8, "ratio-search": 3.4, "large-tree": 11.0}
# Modules a set-up imports; they are dropped before each repeat, so that
# every set-up imports them anew.
SETUP_MODULES = ("treefacility", "workloads", "reference")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def set_up(args):
    """Import treefacility anew and generate the inputs; returns (workload
    module, workload, seconds taken)."""
    for name in list(sys.modules):
        if name.split(".")[0] in SETUP_MODULES:
            del sys.modules[name]
    t0 = time.perf_counter()
    import workloads  # imports every treefacility module

    workload = workloads.make(args.workload, args.seed, str(OUT))
    return workloads, workload, time.perf_counter() - t0


def rounds_for(workload, seconds):
    return max(1, round(seconds / ROUND_SECONDS[workload]))


class Outcome:
    """Attempted and failed operations, and a line per failure."""

    def __init__(self, workload, known_fault):
        self.workload = workload
        self.known_fault = known_fault
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.lines = []

    def record(self, op, result, error):
        self.attempted += 1
        if error is None:
            return
        self.failed += 1
        known = isinstance(error, self.known_fault)
        self.correct = self.correct and known
        try:
            digest = self.workload.digest(op, result)
        except Exception as exc:  # the report must not hide the failure
            digest = f"unavailable ({type(exc).__name__})"
        self.lines.append(
            f"FAILED workload={self.workload.name} spec={op.spec} "
            f"objective={op.objective or '-'} seed={op.seed} digest={digest} "
            f"{'known-fault ' if known else ''}{error}")


def run_rounds(workload, rounds, outcome, tracer=None, between=None):
    """``rounds`` whole rounds, calling ``between`` after each.  Returns
    (round times, op times, units done)."""
    round_times, op_times, units = [], [], 0
    for r in range(rounds):
        round_time = 0.0
        for op in workload.round(r):
            result, error = None, None
            if tracer is not None:
                tracer.active = True
            try:
                elapsed, done, result = workload.run(op)
            except Exception as exc:  # a crash is a failed operation
                elapsed, done, error = 0.0, 0, exc
            finally:
                if tracer is not None:
                    tracer.active = False
            if error is None:
                try:
                    workload.check(op, result)
                except Exception as exc:
                    error = exc
            outcome.record(op, result, error)
            round_time += elapsed
            op_times.append(elapsed)
            units += done
        round_times.append(round_time)
        if between is not None:
            between()
    return round_times, op_times, units


def end_to_end(setup_time, round_times, op_times, units):
    times = sorted(op_times)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
    return {
        "setup_s": (setup_time, "s"),
        "wall_s": (statistics.median(round_times), "s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "profiles_per_s": (units / sum(times), "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(tracer, instances, traced_rounds, untraced_rounds):
    found = tracer.self_times()
    metrics = {}
    for name in tracing.span_names():
        calls, self_s = found.get(name, (0, 0.0))
        if name == "generators.generate":
            calls = tracer.counters["generators.generate.calls"]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    metrics["generators.generate.instances"] = (
        tracer.counters["generators.generate.instances"], "count")
    ratios = found.get("verify.approx_ratio", (0, 0.0))[0]
    metrics["verify.approx_ratio.defined_share"] = (
        tracer.counters["verify.approx_ratio.defined"] / ratios if ratios else 0.0, "ratio")
    builds = found.get("network.TreeNetwork", (0, 0.0))[0]
    metrics["network.builds_per_instance"] = (builds / instances if instances else 0.0, "ratio")
    metrics["trace.overhead_s"] = (
        statistics.median(traced_rounds) - statistics.median(untraced_rounds), "s")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "treefacility" / "__init__.py").is_file():
        print(f"error: no treefacility sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    mod, workload, setup_time = set_up(args)

    outcome = Outcome(workload, mod.KnownFault)
    if args.trace == 0:
        rounds = rounds_for(args.workload, args.seconds)
        per_round = -(-(SETUP_REPEATS - 1) // rounds)
        setup_samples = [setup_time]

        def set_up_again():
            for _ in range(per_round):
                setup_samples.append(set_up(args)[2])

        round_times, op_times, units = run_rounds(
            workload, rounds, outcome, between=set_up_again)
        metrics = end_to_end(statistics.median(setup_samples), round_times, op_times, units)
    else:
        # Untraced rounds for half the time, then the same rounds traced.
        untraced, _, _ = run_rounds(
            workload, rounds_for(args.workload, args.seconds / 2), outcome)
        tracer = tracing.Tracer()
        tracer.install(mod)
        try:
            tracer.active = True
            workload = mod.make(args.workload, args.seed, str(OUT))  # traced set-up
            tracer.active = False
            setup_instances = tracer.counters["generators.generate.instances"]
            outcome.workload = workload
            traced, op_times, _ = run_rounds(workload, len(untraced), outcome, tracer=tracer)
        finally:
            tracer.uninstall()
        # Instances the traced rounds evaluate: those the searches generate,
        # or else one per operation built from the pregenerated pool.
        generated = tracer.counters["generators.generate.instances"] - setup_instances
        metrics = per_layer(tracer, generated or len(op_times), traced, untraced)
        tracer.write(OUT / f"trace-{args.workload}.csv.gz")

    print(f"report: workload={args.workload} seed={args.seed} "
          f"attempted={outcome.attempted} failed={outcome.failed}")
    for line in outcome.lines:
        print(line)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
