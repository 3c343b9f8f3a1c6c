"""The benchmark's three workloads.

Each workload makes its inputs from the benchmark seed, splits its work into
rounds of the same operations, times each operation on its own (a fresh
network is built inside every timed operation, because ``TreeNetwork`` fills
its distance matrix lazily and a reused network would time a warm cache no
user run sees), and checks every output against ``reference``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import time
import zlib

from treefacility import cli
from treefacility.generators import GeneratorConfig, generate
from treefacility.mechanisms import parse_mechanism
from treefacility.network import (
    LocationProfile,
    Point,
    TreeNetwork,
    instance_digest,
    profile_from_json,
)
from treefacility.objectives import Objective, expected_social_cost, optimal_location
from treefacility.verify import sp_check

import reference as ref


class KnownFault(ref.CheckError):
    """A check failure caused by the miniSOS value cancellation in
    ``objectives._minimize_piecewise_sos``; it fails on every run, on inputs
    that do not depend on the seed."""


# The searches the cancellation hits, as (spec, objective, topology, CLI
# seed); both report a ratio about 2.3e-7 too high.  Only there, and only
# by at most KNOWN_FAULT_REL, does a reported ratio that disagrees with the
# recomputed one count as the kept fault; any other disagreement is an error.
KNOWN_FAULT_SEARCHES = {
    ("median", "minisos", "random_tree", 3),
    ("rdgm:2/3", "minisos", "random_tree", 3),
}
KNOWN_FAULT_REL = 1e-6


def _derive(seed, *parts):
    return zlib.crc32("/".join(map(str, (seed, *parts))).encode())


def _pool(topology, nodes, agents, seed, count):
    """``count`` generated instances, as raw (nodes, edges, points)."""
    cfg = GeneratorConfig(topology=topology, min_nodes=nodes, max_nodes=nodes,
                          min_agents=agents, max_agents=agents, seed=seed)
    return [(net.node_count, net.edges, tuple(prof)) for net, prof in generate(cfg, count)]


def _build(raw):
    nodes, edges, points = raw
    network = TreeNetwork(nodes, edges)
    return network, LocationProfile(network, points)


def _docs(raw):
    nodes, edges, points = raw
    return nodes, [list(e) for e in edges], [p.to_json() for p in points]


def _digest(raw):
    return instance_digest(*_build(raw))


class Op:
    """One timed operation and what identifies it in the report."""

    __slots__ = ("kind", "spec", "objective", "seed", "data")

    def __init__(self, kind, spec, objective, seed, data):
        self.kind = kind
        self.spec = spec
        self.objective = objective
        self.seed = seed
        self.data = data


# -- sp-certify -------------------------------------------------------------

LINE_FAMILIES = ["kth:1", "lrm", "rd", "half-avg-rd", "midpoints",
                 "pb:[kth:1,kth:n]:[1/2,1/2]"]
TREE_FAMILIES = ["dictator:1", "median", "dgm:1:2/3", "rdgm:2/3",
                 "pb:[median,dgm:2:2/3]:[1/2,1/2]", "mix:[(median,1/2),(rd,1/2)]"]
# (nodes, agents) of the instances; every family runs on each size in every
# round, so a round's make-up does not depend on the seed.
SP_SIZES = [(6, 4), (10, 7)]
SP_POOL = 16
# The README's control: agents at 0 and 2 on the line [-2, 2].
CONTROL = (3, ((0, 1, 2.0), (1, 2, 2.0)), (Point.at_node(1), Point.at_node(2)))


class SpCertify:
    name = "sp-certify"

    def __init__(self, seed):
        self.pools = []
        for specs, topology in ((LINE_FAMILIES, "line"), (TREE_FAMILIES, "random_tree")):
            for spec in specs:
                for nodes, agents in SP_SIZES:
                    s = _derive(seed, spec, nodes, agents)
                    self.pools.append((spec, s, _pool(topology, nodes, agents, s, SP_POOL)))

    def round(self, r):
        ops = [Op("family", spec, "", f"{s}#{r % SP_POOL}", pool[r % SP_POOL])
               for spec, s, pool in self.pools]
        ops.append(Op("control", "avg-only", "", "none", CONTROL))
        return ops

    def run(self, op):
        t0 = time.perf_counter()
        network, profile = _build(op.data)
        report = sp_check(parse_mechanism(op.spec), network, profile)
        return time.perf_counter() - t0, report.tested_count, report

    def check(self, op, report):
        expected = ref.deviation_count(*_docs(op.data))
        if report.tested_count != expected:
            raise ref.CheckError(f"tested {report.tested_count} deviations, "
                                 f"the default set has {expected}")
        if op.kind == "control":
            ref.check_control_regret(report.max_regret)
        else:
            ref.check_regret(op.spec, report.max_regret)

    def digest(self, op, result=None):
        return _digest(op.data)


# -- ratio-search -----------------------------------------------------------

GEN_ARGS = ["--max-nodes", "20", "--max-agents", "12"]
# Searches whose inputs do not depend on the seed, all on the reproducer
# seed 3.  Wherever every instance has the same exact ratio (rd,
# half-avg-rd and lrm on lines; median on many small trees), the search keeps
# the instance with the largest rounding error, and the hill climb then
# drives agents together until that error passes the check's tolerance on
# some seeds and not on others.  Such searches cannot take their inputs from
# the seed, or the share of failed operations would change with it.
FIXED_SEARCHES = [
    ("median", "minisos", "random_tree", 100, 3),
    ("rdgm:2/3", "minisos", "random_tree", 100, 3),
    ("half-avg-rd", "minisos", "line", 500, 3),
    ("rd", "minisos", "line", 500, 3),
    ("lrm", "minimax", "line", 500, 3),
]
# Searches whose CLI seeds come from the benchmark seed.
SEEDED_SEARCHES = [
    ("median", "minimax", "random_tree", 100),
    ("median", "minisum", "random_tree", 100),
    ("rdgm:2/3", "minimax", "random_tree", 100),
    ("rdgm:2/3", "minisum", "random_tree", 100),
]
SEEDED_REPEATS = 3
SEARCH_POOL = 64
RATIO_RE = re.compile(r"worst ratio: (\S+) \(instance (\w+)\)")


class RatioSearch:
    name = "ratio-search"

    def __init__(self, seed, out_dir):
        rng = random.Random(seed)
        self.cli_seeds = [[rng.randrange(1 << 30) for _ in range(SEEDED_REPEATS * len(SEEDED_SEARCHES))]
                          for _ in range(SEARCH_POOL)]
        self.out_path = os.path.join(out_dir, f"search-{os.getpid()}.json")

    def round(self, r):
        ops = [Op("search", spec, obj, s, (topology, budget))
               for spec, obj, topology, budget, s in FIXED_SEARCHES]
        seeds = iter(self.cli_seeds[r % SEARCH_POOL])
        for _ in range(SEEDED_REPEATS):
            for spec, obj, topology, budget in SEEDED_SEARCHES:
                ops.append(Op("search", spec, obj, next(seeds), (topology, budget)))
        return ops

    def run(self, op):
        topology, budget = op.data
        argv = ["search", "--mech", op.spec, "--objective", op.objective,
                "--topology", topology, *GEN_ARGS, "--budget", str(budget),
                "--seed", str(op.seed), "--out", self.out_path]
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        elapsed = time.perf_counter() - t0
        doc = None
        if os.path.exists(self.out_path):
            with open(self.out_path) as fh:
                doc = json.load(fh)
            os.remove(self.out_path)
        return elapsed, budget, (code, out.getvalue(), doc)

    def check(self, op, result):
        code, text, doc = result
        if code != 0:
            raise ref.CheckError(f"exit code {code}: {text.strip()!r}")
        m = RATIO_RE.search(text)
        if m is None or doc is None:
            raise ref.CheckError(f"no ratio or instance in the output: {text.strip()!r}")
        reported = float(m.group(1))
        topology = op.data[0]
        net = doc["network"]
        if topology == "line":
            xs = ref.line_positions(net["nodes"], net["edges"], doc["locations"])
            ratio = ref.line_ratio(op.spec, op.objective, xs)
            if ratio is None:
                raise ref.CheckError("the reported instance has optimum 0")
        else:
            agents = ref.Agents(ref.Tree(net["nodes"], net["edges"]), doc["locations"])
            network, profile = profile_from_json(doc)
            dist = parse_mechanism(op.spec).run(network, profile)
            cost = ref.expected_costs(agents, dist.to_json())[op.objective]
            if op.objective == "minimax":
                opt = ref.minimax_optimum(agents)
            elif op.objective == "minisum":
                opt = ref.best_candidate(agents, "minisum")
            else:
                at, _ = optimal_location(network, profile, Objective.MINISOS)
                opt = ref.sos_optimum(agents, ref.point(at.to_json()))
            ref.check_at_least(f"{op.spec} {op.objective}", cost, opt)
            ratio = cost / opt
        ref.check_bound(op.spec, op.objective, ratio)
        if ratio < 1:
            raise ref.CheckError(f"ratio {float(ratio)!r} below 1")
        try:
            ref.check_close("reported ratio", reported, float(ratio))
        except ref.CheckError as exc:
            known = (op.spec, op.objective, topology, op.seed) in KNOWN_FAULT_SEARCHES
            if known and abs(reported - ratio) <= KNOWN_FAULT_REL * ratio:
                raise KnownFault(str(exc)) from None
            raise

    def digest(self, op, result=None):
        if result is not None:
            m = RATIO_RE.search(result[1])
            if m:
                return m.group(2)
        return "unknown"


# -- large-tree -------------------------------------------------------------

LARGE_NODES = 1000
LARGE_AGENTS = 200
LARGE_MECHS = ["median", "dgm:1:2/3", "rdgm:2/3", "rd"]
LARGE_ROUND = 2
LARGE_POOL = 8


class LargeTree:
    name = "large-tree"

    def __init__(self, seed):
        self.seed = _derive(seed, "large-tree")
        self.pool = _pool("random_tree", LARGE_NODES, LARGE_AGENTS, self.seed, LARGE_POOL)

    def round(self, r):
        idx = [(r * LARGE_ROUND + k) % LARGE_POOL for k in range(LARGE_ROUND)]
        return [Op("instance", ",".join(LARGE_MECHS), "all", f"{self.seed}#{i}", self.pool[i])
                for i in idx]

    def run(self, op):
        t0 = time.perf_counter()
        network, profile = _build(op.data)
        outputs = {}
        for spec in LARGE_MECHS:
            dist = parse_mechanism(spec).run(network, profile)
            outputs[spec] = (dist, {o.value: expected_social_cost(network, dist, profile, o)
                                    for o in Objective})
        optima = {o.value: optimal_location(network, profile, o) for o in Objective}
        elapsed = time.perf_counter() - t0
        outputs = {spec: (dist.to_json(), costs) for spec, (dist, costs) in outputs.items()}
        optima = {o: (at.to_json(), cost) for o, (at, cost) in optima.items()}
        return elapsed, 1, (outputs, optima)

    def check(self, op, result):
        outputs, optima = result
        nodes, edges, locations = _docs(op.data)
        agents = ref.Agents(ref.Tree(nodes, edges), locations)
        own = {
            "minimax": ref.minimax_optimum(agents),
            "minisum": ref.best_candidate(agents, "minisum"),
            "minisos": ref.sos_optimum(agents, ref.point(optima["minisos"][0])),
        }
        for objective, (at, cost) in optima.items():
            ref.check_close(f"{objective} optimum", cost, own[objective])
            at_cost = ref.aggregate(objective, agents.dists_to(ref.point(at)))
            ref.check_close(f"{objective} cost at the optimal point", at_cost, own[objective])
        mine = {}
        for spec, (support, reported) in outputs.items():
            mine[spec] = ref.expected_costs(agents, support)
            for objective, cost in reported.items():
                ref.check_close(f"{spec} {objective} cost", cost, mine[spec][objective])
                ref.check_at_least(f"{spec} {objective}", mine[spec][objective], own[objective])
        ref.check_close("median minisum cost against the minisum optimum",
                        mine["median"]["minisum"], own["minisum"])
        for spec in ("median", "rdgm:2/3"):
            ref.check_bound(spec, "minisos", mine[spec]["minisos"] / own["minisos"])

    def digest(self, op, result=None):
        return _digest(op.data)


def make(name, seed, out_dir):
    if name == "sp-certify":
        return SpCertify(seed)
    if name == "ratio-search":
        return RatioSearch(seed, out_dir)
    return LargeTree(seed)

