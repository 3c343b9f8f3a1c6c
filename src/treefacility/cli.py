"""Command-line interface.

Exit codes: 0 success, 1 check failure (e.g. regret above tolerance or a
ratio above its bound) or a reader that closed stdout early, 2 usage or
file-format error, printed as one `error:` line.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
from dataclasses import fields

from .generators import PLACEMENTS, TOPOLOGIES, BadConfigError, GeneratorConfig, generate
from .mechanisms import MechanismError, parse_mechanism
from .network import (
    BOUND_TOL,
    SP_TOL,
    NetworkError,
    Point,
    instance_digest,
    instance_to_json,
    open_file,
    profile_from_json,
    read_json,
)
from .objectives import DistributionInvalidError, Objective, optimal_location
from . import verify as V

# Paper-level worst-case bounds used by search and report.  rdgm's 1.83 is the
# abstract's rounded figure; the paper's text fixes its q and exact value.
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

USAGE_ERRORS = (NetworkError, MechanismError, BadConfigError, DistributionInvalidError,
                V.BadParamsError, OSError)

# Misreport checks: command -> (check, what its report maximizes, help, the
# names of the last two entries of its worst case).
MISREPORT_CHECKS = {
    "sp-check": (V.sp_check, "regret", "strategyproofness check", ("true_cost", "deviated_cost")),
    "boomerang-check": (V.boomerang_check, "violation", "boomerang identity check",
                        ("output", "deviated_output")),
}


def _load_instance(path):
    return profile_from_json(read_json(path), base_dir=os.path.dirname(path) or ".")


def _bound_for(mechanism_name, objective, topology):
    """The known bound for the mechanism, or None.  Line-only bounds apply
    only when the topology is known to be "line".  Bounds are keyed by the
    mechanism's family, the spec up to its first colon."""
    bounds = {**KNOWN_BOUNDS, **LINE_BOUNDS} if topology == "line" else KNOWN_BOUNDS
    return bounds.get((mechanism_name.split(":")[0], objective))


def _generator_config(args):
    return GeneratorConfig(**{f.name: getattr(args, f.name) for f in fields(GeneratorConfig)})


def _add_generator_args(p):
    """One flag for each GeneratorConfig field, with the field's default."""
    choices = {"topology": TOPOLOGIES, "placement": PLACEMENTS}
    for f in fields(GeneratorConfig):
        p.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default), default=f.default,
                       choices=choices.get(f.name))


def _write_lines(path, docs):
    """Write each doc as one JSON line, to the file at path or to stdout (None or "-")."""
    out = sys.stdout if path in (None, "-") else open_file(path, "w")
    try:
        for doc in docs:
            out.write(json.dumps(doc) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _usage_error(parser, message):
    """argparse's error hook: a usage error that main prints as one line."""
    raise V.BadParamsError(message)


class _Parser(argparse.ArgumentParser):
    error = _usage_error


def build_parser():
    objectives = {"type": str.lower, "choices": [o.value for o in Objective]}
    ap = _Parser(
        prog="treefacility",
        description="Strategyproof facility location on tree networks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="run a mechanism on an instance file")
    p.add_argument("--mech", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--objective", default="minisos", **objectives)

    p = sub.add_parser("opt", help="optimal location and cost for an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--objective", default="minisos", **objectives)

    for command, (_, _, help_text, _) in MISREPORT_CHECKS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--mech", required=True)
        p.add_argument("--instance")
        p.add_argument("--budget", type=int, default=50)
        p.add_argument("--tolerance", type=float, default=SP_TOL)
        p.add_argument("--out")
        _add_generator_args(p)

    p = sub.add_parser("ratio", help="approximation ratios over instances")
    p.add_argument("--mech", required=True)
    p.add_argument("--instance")
    p.add_argument("--objective", default="minisos", **objectives)
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--out", default="-")
    _add_generator_args(p)

    p = sub.add_parser("search", help="adversarial worst-ratio search")
    p.add_argument("--mech", required=True)
    p.add_argument("--objective", default="minisos", **objectives)
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--out")
    _add_generator_args(p)

    p = sub.add_parser("lemma-check", help="structural identity checks")
    p.add_argument("--kind", required=True, choices=list(V.IDENTITY_CHECKS))
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("witness", help="emit a tightness witness instance")
    p.add_argument("--kind", required=True, choices=list(V.WITNESS_EDGES))
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--out")

    p = sub.add_parser("generate", help="emit random instances as JSON lines")
    p.add_argument("--budget", type=int, default=10)
    p.add_argument("--out")
    _add_generator_args(p)

    p = sub.add_parser("report", help="aggregate ratio records into a bounds table")
    p.add_argument("files", nargs="+")
    p.add_argument("--out", default="-")
    return ap


def cmd_eval(args):
    network, profile = _load_instance(args.instance)
    mech = parse_mechanism(args.mech)
    rep = V.approx_ratio(mech, network, profile, Objective(args.objective))
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
    objective = Objective(args.objective)
    point, cost = optimal_location(network, profile, objective)
    print("location:", json.dumps(point.to_json()))
    print(f"cost: {cost:.12g}")
    return 0


def _instances(args):
    if args.instance:
        return [_load_instance(args.instance)]
    return generate(_generator_config(args), args.budget)


def cmd_misreport_check(args):
    # A NaN tolerance would fail every check and an infinite one pass it.
    if not 0.0 <= args.tolerance < float("inf"):
        raise V.BadParamsError(f"tolerance must be finite and >= 0, got {args.tolerance}")
    check, label, _, names = MISREPORT_CHECKS[args.command]
    field = f"max_{label}"
    mech = parse_mechanism(args.mech)
    worst, network, profile = max(
        ((check(mech, network, profile), network, profile)
         for network, profile in _instances(args)), key=lambda r: getattr(r[0], field))
    top = getattr(worst, field)
    print(f"{field}: {top:.3e} (tested {worst.tested_count} deviations)")
    if worst.worst_case is not None:
        agent, misreport, *pair = worst.worst_case
        witness = {"instance": instance_digest(network, profile), "agent": agent + 1,
                   "misreport": misreport.to_json()}
        witness.update((k, v.to_json() if isinstance(v, Point) else v) for k, v in zip(names, pair))
        print("worst:", json.dumps(witness))
    if args.out:
        _write_lines(args.out, [instance_to_json(network, profile)])
    if not top <= args.tolerance:
        print(f"FAIL: {label} above tolerance {args.tolerance}")
        return 1
    print("OK")
    return 0


def cmd_ratio(args):
    mech = parse_mechanism(args.mech)
    objective = Objective(args.objective)
    # An instance file names no topology or seed.  _instances runs before the
    # file opens, so a bad instance leaves no file.
    topology, seed = (None, None) if args.instance else (args.topology, args.seed)
    _write_lines(args.out, (
        {"digest": instance_digest(network, profile), "topology": topology,
         "mechanism": mech.name, "objective": objective.value,
         "mech_cost": rep.mechanism_cost, "opt_cost": rep.optimal_cost, "ratio": rep.ratio,
         "seed": seed}
        for network, profile in _instances(args)
        for rep in [V.approx_ratio(mech, network, profile, objective)]))
    return 0


def cmd_search(args):
    mech = parse_mechanism(args.mech)
    objective = Objective(args.objective)
    result = V.ratio_search(mech, objective, _generator_config(args), args.budget)
    if result is None:
        print("no instance with a nonzero optimum found")
        return 1
    rep, network, profile = result
    print(f"worst ratio: {rep.ratio:.9f} (instance {instance_digest(network, profile)})")
    if args.out:
        _write_lines(args.out, [instance_to_json(network, profile)])
    bound = _bound_for(mech.name, objective.value, args.topology)
    if bound is not None and rep.ratio > bound + BOUND_TOL:
        print(f"FAIL: ratio exceeds bound {bound}")
        return 1
    return 0


def cmd_lemma_check(args):
    check, make_instance = V.IDENTITY_CHECKS[args.kind]
    rng = random.Random(args.seed)
    worst = 0.0
    for _ in range(args.budget):
        rep = check(*make_instance(rng))
        worst = max(worst, rep.gap)
        if not rep.holds:
            print(f"FAIL: {args.kind} lhs={rep.lhs:.12g} rhs={rep.rhs:.12g}")
            return 1
    print(f"OK: {args.kind} worst gap {worst:.3e} over {args.budget} instances")
    return 0


def cmd_witness(args):
    _write_lines(args.out, [instance_to_json(*V.lower_bound_witness(args.kind, args.n))])
    return 0


def cmd_generate(args):
    _write_lines(args.out, (
        {**instance_to_json(network, profile), "digest": instance_digest(network, profile)}
        for network, profile in generate(_generator_config(args), args.budget)))
    return 0


def _read_records(path):
    """(mechanism, objective, topology, ratio or None) for each line of a `ratio` file."""
    keys, records = ("mechanism", "objective", "topology", "ratio"), []
    with open_file(path, "rb") as fh:
        for k, line in enumerate(fh, 1):
            try:
                doc = json.loads(line)
                if not (isinstance(doc, dict) and doc.keys() >= set(keys)):
                    raise ValueError(f"not an object with the keys {', '.join(keys)}")
                mech, obj, topology, ratio = (doc[key] for key in keys)
                if not (isinstance(mech, str) and isinstance(obj, str)):
                    raise ValueError("mechanism and objective must be strings")
                if topology not in (None, *TOPOLOGIES):
                    raise ValueError(f"topology must be null or one of {', '.join(TOPOLOGIES)}")
                if ratio is not None and not (type(ratio) in (int, float)
                                              and 0 <= float(ratio) < float("inf")):
                    raise ValueError("ratio must be null or a finite number >= 0")
            except (ValueError, OverflowError, RecursionError) as exc:
                raise NetworkError(f"{path}:{k}: malformed record ({exc})") from None
            records.append((mech, obj, topology, ratio))
    if not records:
        raise NetworkError(f"{path}: no records")
    return records


def cmd_report(args):
    groups = {}
    for path in args.files:
        for mech, obj, topology, ratio in _read_records(path):
            groups.setdefault((mech, obj, topology), []).append(ratio)
    docs = []
    # A null topology (ratios over an instance file) sorts first.
    for (mech, obj, topology), group in sorted(groups.items(),
                                               key=lambda g: (*g[0][:2], g[0][2] or "")):
        ratios = [r for r in group if r is not None]  # a null ratio had a zero optimum
        top, bound = max(ratios, default=None), _bound_for(mech, obj, topology)
        docs.append({"mechanism": mech, "objective": obj, "topology": topology,
                     "instances": len(group), "zero_opt": len(group) - len(ratios),
                     # an exact sum: the mean of finite ratios is finite
                     "max_ratio": top, "mean_ratio": statistics.mean(ratios) if ratios else None,
                     "bound": bound,
                     "over_bound": None not in (bound, top) and top > bound + BOUND_TOL})
    _write_lines(args.out, docs)
    return 1 if any(doc["over_bound"] for doc in docs) else 0


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
    """The program's one boundary: 0 or 1 from the command, or 2 with one
    `error:` line for every bad argument or input (`--help` exits 0)."""
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "budget", 1) < 1:  # every command with --budget
            raise V.BadParamsError("budget must be >= 1")
        return COMMANDS[args.command](args)
    except BrokenPipeError:
        # A reader that stops early (`| head`) is no usage error.  Point stdout
        # at os.devnull, so the flush at exit raises nothing (the "Note on
        # SIGPIPE" of Python's signal docs).
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError):  # stdout has no file descriptor
            pass
        return 1
    except USAGE_ERRORS as exc:
        print("error:", *str(exc).splitlines(), file=sys.stderr)  # joins a multi-line message
        return 2


if __name__ == "__main__":
    sys.exit(main())
