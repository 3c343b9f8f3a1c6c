"""Command-line interface.

Exit codes: 0 success, 1 check failure (e.g. regret above tolerance or a
ratio above its bound), 2 usage or file-format error.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys

from .generators import BadConfigError, GeneratorConfig, generate
from .mechanisms import MechanismError, parse_mechanism
from .network import (
    BOUND_TOL,
    NetworkError,
    Point,
    PointInvalidError,
    instance_digest,
    instance_to_json,
    profile_from_json,
)
from .objectives import (
    DistributionInvalidError,
    Objective,
    WeightInvalidError,
    optimal_location,
)
from . import verify as V

# Paper-level worst-case bounds used by search and report.
KNOWN_BOUNDS = {
    ("median", "minisos"): 2.0,
    ("lrm", "minimax"): 1.5,
    ("rdgm", "minisos"): 1.83,
}
# Bounds that hold on lines only: one agent on each leaf of a unit star with k
# leaves gives rd a miniSOS ratio of 4(k - 1)/k and half-avg-rd (5k - 4)/(2k).
LINE_BOUNDS = {
    ("rd", "minisos"): 2.0,
    ("half-avg-rd", "minisos"): 1.5,
}

USAGE_ERRORS = (
    NetworkError, PointInvalidError, MechanismError, BadConfigError,
    WeightInvalidError, DistributionInvalidError, V.BadParamsError,
    V.NotDeterministicError, json.JSONDecodeError, UnicodeDecodeError, OSError,
)

# Misreport checks: command -> (check, what its report maximizes, help, the
# names of the last two entries of its worst case).
MISREPORT_CHECKS = {
    "sp-check": (V.sp_check, "regret", "strategyproofness check", ("true_cost", "deviated_cost")),
    "boomerang-check": (V.boomerang_check, "violation", "boomerang identity check",
                        ("output", "deviated_output")),
}


def _load_instance(path):
    with open(path) as fh:
        doc = json.load(fh)
    import os

    return profile_from_json(doc, base_dir=os.path.dirname(path) or ".")


def _bound_for(mechanism_name, objective, topology):
    """The known bound for the mechanism, or None.  Line-only bounds apply
    only when the topology is known to be "line".  Bounds are keyed by the
    mechanism's family, the spec up to its first colon."""
    bounds = {**KNOWN_BOUNDS, **LINE_BOUNDS} if topology == "line" else KNOWN_BOUNDS
    return bounds.get((mechanism_name.split(":")[0], objective))


def _generator_config(args):
    return GeneratorConfig(
        topology=args.topology,
        min_nodes=args.min_nodes, max_nodes=args.max_nodes,
        min_agents=args.min_agents, max_agents=args.max_agents,
        placement=args.placement, seed=args.seed,
    )


def _add_generator_args(p):
    p.add_argument("--topology", default="random_tree",
                   choices=["line", "star", "caterpillar", "random_tree"])
    p.add_argument("--min-nodes", type=int, default=2)
    p.add_argument("--max-nodes", type=int, default=12)
    p.add_argument("--min-agents", type=int, default=2)
    p.add_argument("--max-agents", type=int, default=6)
    p.add_argument("--placement", default="anywhere",
                   choices=["anywhere", "nodes_only"])


def _write_csv(path, rows, header=V.CSV_HEADER):
    out = sys.stdout if path in (None, "-") else open(path, "w", newline="")
    try:
        w = csv.writer(out)
        w.writerow(header)
        w.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()


def build_parser():
    ap = argparse.ArgumentParser(
        prog="treefacility",
        description="Strategyproof facility location on tree networks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="run a mechanism on an instance file")
    p.add_argument("--mech", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--objective", default="minisos")

    p = sub.add_parser("opt", help="optimal location and cost for an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--objective", default="minisos")

    for command, (_, _, help_text, _) in MISREPORT_CHECKS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--mech", required=True)
        p.add_argument("--instance")
        p.add_argument("--budget", type=int, default=50)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tolerance", type=float, default=V.SP_TOL)
        p.add_argument("--out")
        _add_generator_args(p)

    p = sub.add_parser("ratio", help="approximation ratios over instances")
    p.add_argument("--mech", required=True)
    p.add_argument("--instance")
    p.add_argument("--objective", default="minisos")
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    _add_generator_args(p)

    p = sub.add_parser("search", help="adversarial worst-ratio search")
    p.add_argument("--mech", required=True)
    p.add_argument("--objective", default="minisos")
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    _add_generator_args(p)

    p = sub.add_parser("lemma-check", help="structural identity checks")
    p.add_argument("--kind", required=True,
                   choices=["cost_difference", "flattening", "wavg_movement"])
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("witness", help="emit tightness witness instances")
    p.add_argument("--kind", required=True,
                   choices=["deterministic_2", "randomized_15_family"])
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--j", type=int)
    p.add_argument("--out")

    p = sub.add_parser("generate", help="emit random instances as JSON lines")
    p.add_argument("--budget", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    _add_generator_args(p)

    p = sub.add_parser("report", help="aggregate ratio CSVs into a bounds table")
    p.add_argument("csvs", nargs="+")
    p.add_argument("--out", default="-")
    return ap


def cmd_eval(args):
    network, profile = _load_instance(args.instance)
    mech = parse_mechanism(args.mech)
    rep = V.approx_ratio(mech, network, profile, Objective.parse(args.objective))
    print("distribution:", json.dumps(rep.distribution.to_json()))
    print(f"cost: {rep.mechanism_cost:.12g}")
    print(f"opt: {rep.optimal_cost:.12g}")
    if rep.ratio is not None:
        print(f"ratio: {rep.ratio:.12g}")
    else:
        print("ratio: exact" if rep.exact_zero else "ratio: undefined (opt = 0)")
    return 0


def cmd_opt(args):
    network, profile = _load_instance(args.instance)
    objective = Objective.parse(args.objective)
    point, cost = optimal_location(network, profile, objective)
    print("location:", json.dumps(point.to_json()))
    print(f"cost: {cost:.12g}")
    return 0


def _write_instance(path, network, profile):
    with open(path, "w") as fh:
        json.dump(instance_to_json(network, profile), fh, indent=2)
    print(f"instance written to {path}")


def _instances(args):
    if args.instance:
        yield _load_instance(args.instance)
        return
    yield from generate(_generator_config(args), args.budget)


def cmd_misreport_check(args):
    # A NaN tolerance would fail every check and an infinite one pass it.
    if not 0.0 <= args.tolerance < float("inf"):
        raise V.BadParamsError(f"tolerance must be finite and >= 0, got {args.tolerance}")
    check, label, _, names = MISREPORT_CHECKS[args.command]
    field = f"max_{label}"
    mech = parse_mechanism(args.mech)
    worst, network, profile = max(
        ((check(mech, network, profile, args.tolerance), network, profile)
         for network, profile in _instances(args)), key=lambda r: getattr(r[0], field))
    print(f"{field}: {getattr(worst, field):.3e} (tested {worst.tested_count} deviations)")
    if worst.worst_case is not None:
        agent, misreport, *pair = worst.worst_case
        witness = {"instance": instance_digest(network, profile), "agent": agent + 1,
                   "misreport": misreport.to_json()}
        witness.update((k, v.to_json() if isinstance(v, Point) else v) for k, v in zip(names, pair))
        print("worst:", json.dumps(witness))
    if args.out:
        _write_instance(args.out, network, profile)
    if not worst.holds:
        print(f"FAIL: {label} above tolerance {args.tolerance}")
        return 1
    print("OK")
    return 0


def cmd_ratio(args):
    mech = parse_mechanism(args.mech)
    objective = Objective.parse(args.objective)
    rows = []
    for network, profile in _instances(args):
        rep = V.approx_ratio(mech, network, profile, objective)
        rows.append(V.csv_row(instance_digest(network, profile), rep, mech.name, objective,
                              args.seed))
    _write_csv(args.out, rows)
    return 0


def cmd_search(args):
    mech = parse_mechanism(args.mech)
    objective = Objective.parse(args.objective)
    result = V.ratio_search(mech, objective, _generator_config(args),
                            args.budget, args.seed)
    if result is None:
        print("no instance with a nonzero optimum found")
        return 1
    rep, network, profile = result
    print(f"worst ratio: {rep.ratio:.9f} (instance {instance_digest(network, profile)})")
    if args.out:
        _write_instance(args.out, network, profile)
    bound = _bound_for(mech.name, objective.value, args.topology)
    if bound is not None and rep.ratio > bound + BOUND_TOL:
        print(f"FAIL: ratio exceeds bound {bound}")
        return 1
    return 0


def cmd_lemma_check(args):
    rng = random.Random(args.seed)
    worst = 0.0
    for _ in range(args.budget):
        rep = V.lemma_identity_check(args.kind, rng)
        worst = max(worst, rep.gap)
        if not rep.holds:
            print(f"FAIL: {args.kind} lhs={rep.lhs:.12g} rhs={rep.rhs:.12g}")
            return 1
    print(f"OK: {args.kind} worst gap {worst:.3e} over {args.budget} instances")
    return 0


def cmd_witness(args):
    out = []
    for network, profile, meta in V.lower_bound_witness(args.kind, args.n, args.j):
        doc = instance_to_json(network, profile)
        doc["meta"] = meta
        out.append(doc)
        print(json.dumps(doc))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=2)
    return 0


def cmd_generate(args):
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for network, profile in generate(_generator_config(args), args.budget):
            doc = instance_to_json(network, profile)
            doc["digest"] = instance_digest(network, profile)
            out.write(json.dumps(doc) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_report(args):
    groups = {}
    for path in args.csvs:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "mechanism" not in reader.fieldnames:
                raise NetworkError(f"{path}: malformed CSV (missing header)")
            for lineno, row in enumerate(reader, start=2):
                try:
                    key = (row["mechanism"], row["objective"])
                    ratio = float(row["ratio"]) if row["ratio"] else None
                except (KeyError, ValueError) as exc:
                    raise NetworkError(f"{path}:{lineno}: malformed CSV row ({exc})")
                groups.setdefault(key, []).append(ratio)
    header = ["mechanism", "objective", "instances", "zero_opt", "max_ratio", "mean_ratio",
              "bound", "flag"]
    rows = []
    flagged = 0
    for (mech, obj), group in sorted(groups.items()):
        # A row without a ratio had a zero optimum.
        ratios = [r for r in group if r is not None]
        # The CSVs carry no topology, so line-only bounds do not apply.
        bound = _bound_for(mech, obj, None)
        max_ratio = max(ratios) if ratios else None
        flag = bound is not None and max_ratio is not None and max_ratio > bound + BOUND_TOL
        flagged += bool(flag)
        rows.append([
            mech, obj, str(len(group)), str(len(group) - len(ratios)),
            "" if max_ratio is None else f"{max_ratio:.9g}",
            "" if not ratios else f"{sum(ratios) / len(ratios):.9g}",
            "" if bound is None else f"{bound:g}",
            "OVER-BOUND" if flag else "",
        ])
    _write_csv(args.out, rows, header)
    if args.out != "-":
        for row in [header] + rows:
            print("  ".join(f"{c:<14}" for c in row))
    return 1 if flagged else 0


COMMANDS = {
    "eval": cmd_eval,
    "opt": cmd_opt,
    "sp-check": cmd_misreport_check,
    "boomerang-check": cmd_misreport_check,
    "ratio": cmd_ratio,
    "search": cmd_search,
    "lemma-check": cmd_lemma_check,
    "witness": cmd_witness,
    "generate": cmd_generate,
    "report": cmd_report,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "budget", 1) < 1:  # every command with --budget
            raise V.BadParamsError("budget must be >= 1")
        return COMMANDS[args.command](args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
