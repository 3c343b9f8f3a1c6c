"""Empirical certification: strategyproofness, the boomerang identity,
approximation ratios, adversarial instance search, and numeric checks of the
structural cost identities.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .generators import EDGE_LENGTHS, MAX_COUNT, GeneratorConfig, generate, random_point
from .mechanisms import Mechanism
from .network import (
    ENDPOINT_SNAP,
    ROUND_TOL,
    SP_TOL,
    LocationProfile,
    Point,
    TreeNetwork,
)
from .objectives import (
    LocationDistribution,
    Objective,
    expected_agent_cost,
    expected_social_cost,
    optimal_location,
    social_cost,
    weighted_average,
)

HILL_ITERATIONS = 200  # local-search moves after the random phase of ratio_search
DEVIATION_GRID = 16  # divisions per edge of the misreport grid


class BadParamsError(ValueError):
    """Bad check parameters: a budget, tolerance or witness kind out of
    range, a randomized mechanism where a deterministic one is needed, or an
    instance that breaks an identity's hypotheses."""


# -- deviation sets ---------------------------------------------------------


def deviation_points(network: TreeNetwork, profile: LocationProfile):
    """Candidate misreports: all nodes, all agent locations, and a uniform
    grid on each edge at resolution length/DEVIATION_GRID."""
    seen = {}
    for i in range(network.node_count):
        p = Point.at_node(i)
        seen[p] = p
    for x in profile:
        seen[x] = x
    for e, (_, _, w) in enumerate(network.edges):
        for j in range(1, DEVIATION_GRID):
            p = network.point_on_edge(e, w * j / DEVIATION_GRID)
            seen[p] = p
    return list(seen)


# -- misreport checks: strategyproofness and the boomerang identity ---------


def _misreports(mechanism: Mechanism, network: TreeNetwork, profile: LocationProfile):
    """(agent, true location, misreport, output) for every agent and every
    deviation point other than the agent's own location, from one sweep of
    ``mechanism.deviations`` per agent."""
    deviations = deviation_points(network, profile)
    for i, x in enumerate(profile):
        points = [p for p in deviations if p != x]
        for p, out in zip(points, mechanism.deviations(network, profile, i, points)):
            yield i, x, p, out


@dataclass
class SPReport:
    max_regret: float
    worst_case: tuple | None  # (agent, misreport, true cost, deviated cost)
    tested_count: int
    tolerance: float = SP_TOL

    @property
    def holds(self):
        return self.max_regret <= self.tolerance


def sp_check(mechanism: Mechanism, network: TreeNetwork,
             profile: LocationProfile, tolerance: float = SP_TOL) -> SPReport:
    """Max regret any agent can gain by any tested misreport (exact
    expectations, no sampling)."""
    base = mechanism.run(network, profile)
    true_costs = [expected_agent_cost(network, base, x) for x in profile]
    max_regret = float("-inf")
    worst = None
    tested = 0
    for i, x, p, out in _misreports(mechanism, network, profile):
        dev_cost = expected_agent_cost(network, out, x)
        tested += 1
        regret = true_costs[i] - dev_cost
        if regret > max_regret:
            max_regret = regret
            worst = (i, p, true_costs[i], dev_cost)
    return SPReport(max_regret=max(max_regret, 0.0), worst_case=worst,
                    tested_count=tested, tolerance=tolerance)


@dataclass
class BoomerangReport:
    max_violation: float
    worst_case: tuple | None  # (agent, misreport, output, deviated output)
    tested_count: int
    tolerance: float = SP_TOL

    @property
    def holds(self):
        return self.max_violation <= self.tolerance


def _the_point(mechanism, dist) -> Point:
    if len(dist) != 1:
        raise BadParamsError(f"{mechanism.name} output has support > 1")
    return dist.the_point()


def boomerang_check(mechanism: Mechanism, network: TreeNetwork,
                    profile: LocationProfile,
                    tolerance: float = SP_TOL) -> BoomerangReport:
    """Check that a deviator's cost increase equals the facility movement."""
    y = _the_point(mechanism, mechanism.run(network, profile))
    true_costs = network.distances_from(y, profile)
    max_violation = float("-inf")
    worst = None
    tested = 0
    for i, x, p, out in _misreports(mechanism, network, profile):
        y2 = _the_point(mechanism, out)
        tested += 1
        to_x, to_y = network.distances_from(y2, (x, y))
        violation = abs((to_x - true_costs[i]) - to_y)
        if violation > max_violation:
            max_violation = violation
            worst = (i, p, y, y2)
    return BoomerangReport(max_violation=max(max_violation, 0.0), worst_case=worst,
                           tested_count=tested, tolerance=tolerance)


# -- approximation ratios ---------------------------------------------------


@dataclass
class RatioReport:
    distribution: LocationDistribution  # the mechanism's output that was scored
    mechanism_cost: float
    optimal_cost: float
    ratio: float | None  # None when the optimum is zero
    exact_zero: bool = False  # zero optimum, and the mechanism within ROUND_TOL of it


def approx_ratio(mechanism: Mechanism, network: TreeNetwork,
                 profile: LocationProfile,
                 objective: Objective = Objective.MINISOS) -> RatioReport:
    dist = mechanism.run(network, profile)
    mech_cost = expected_social_cost(network, dist, profile, objective)
    _, opt_cost = optimal_location(network, profile, objective)
    if opt_cost <= 0.0:
        return RatioReport(dist, mech_cost, opt_cost, None, exact_zero=mech_cost <= ROUND_TOL)
    return RatioReport(dist, mech_cost, opt_cost, mech_cost / opt_cost)


def _perturb_point(rng, network, point, step) -> Point:
    """Move a point by +-step along an edge (from a node: onto a random
    incident edge)."""
    if point.is_node:
        nbrs = network.adjacency[point.node]
        _, e = nbrs[rng.randrange(len(nbrs))]
        u, v, w = network.edges[e]
        t = min(step, w)
        return network.point_on_edge(e, t if point.node == u else w - t)
    _, _, w = network.edges[point.edge]
    delta = step if rng.random() < 0.5 else -step
    t = min(max(point.offset + delta, 0.0), w)
    return network.point_on_edge(point.edge, t)


def ratio_search(mechanism: Mechanism, objective: Objective,
                 config: GeneratorConfig, budget: int):
    """Worst approximation ratio over random instances plus local search.

    Deterministic given config.seed.  Returns (RatioReport, network, profile)
    for the worst instance found; zero-optimum instances are skipped.
    """
    if budget < 1:
        raise BadParamsError("budget must be >= 1")
    worst = None
    for network, profile in generate(config, budget):
        rep = approx_ratio(mechanism, network, profile, objective)
        if rep.ratio is None:
            continue
        if worst is None or rep.ratio > worst[0].ratio:
            worst = (rep, network, profile)
    if worst is None:
        return None
    rep, network, profile = worst
    rng = random.Random(config.seed ^ 0x9E3779B9)
    step = max(w for _, _, w in network.edges) / 4 if network.edges else 0.0
    for _ in range(HILL_ITERATIONS):
        if step <= ENDPOINT_SNAP:
            break
        i = rng.randrange(len(profile))
        cand = profile.replace(network, i, _perturb_point(rng, network, profile[i], step))
        cand_rep = approx_ratio(mechanism, network, cand, objective)
        if cand_rep.ratio is not None and cand_rep.ratio > rep.ratio:
            rep, profile = cand_rep, cand
        else:
            step *= 0.5
    return rep, network, profile


# -- structural identity checks ---------------------------------------------


@dataclass
class IdentityReport:
    lhs: float
    rhs: float
    gap: float  # lhs - rhs for the movement bound, |lhs - rhs| for the identities

    @property
    def holds(self):
        return self.gap <= ROUND_TOL


def check_wavg_movement(network, locations, moved, weights) -> IdentityReport:
    """Movement of the squared-distance minimizer is bounded by the weighted
    movement of the inputs."""
    a = weighted_average(network, locations, weights)
    a2 = weighted_average(network, moved, weights)
    lhs = network.distance(a, a2)
    rhs = sum(w * network.distance(y, y2)
              for w, y, y2 in zip(weights, locations, moved))
    return IdentityReport(lhs, rhs, lhs - rhs)


def _branch_toward(network, p: Point, q: Point):
    """The branch of T(G, p) containing q."""
    b = network.branch_of(p, q)
    if b is None:
        raise BadParamsError("the two anchor locations coincide")
    return b


def check_cost_difference(network, profile, a: Point, b: Point) -> IdentityReport:
    """Exact difference of sum-of-squares costs between two locations when
    every agent lies behind a, behind b, or on the path between them."""
    t_b = _branch_toward(network, a, b)
    d = network.distance(a, b)
    n = len(profile)
    in_tb = 0.0
    out_tb = 0.0
    for x in profile:
        dxa = network.distance(x, a)
        if network.branch_of(a, x) == t_b:
            in_tb += dxa
        else:
            out_tb += dxa
    lhs = social_cost(network, a, profile) - social_cost(network, b, profile)
    rhs = -n * d * d - 2.0 * d * (out_tb - in_tb)
    return IdentityReport(lhs, rhs, abs(lhs - rhs))


def check_flattening(network, profile, a: Point, b: Point) -> IdentityReport:
    """Cost difference after straightening the far side onto a single ray:
    relocate every agent beyond b onto the path toward the farthest of them,
    preserving distance from b, then compare against the relocated optimum."""
    d = network.distance(a, b)
    n = len(profile)
    t_a = _branch_toward(network, b, a)
    beyond = [i for i, x in enumerate(profile)
              if network.branch_of(b, x) not in (None, t_a)]
    if not beyond:
        raise BadParamsError("no agents beyond the far anchor")
    far = max(beyond, key=lambda i: network.distance(b, profile[i]))
    xj = profile[far]
    new_locs = list(profile)
    for i in beyond:
        new_locs[i] = network.point_along_path(b, xj, network.distance(b, profile[i]))
    relocated = LocationProfile(network, new_locs)
    opt_pt, _ = optimal_location(network, relocated, Objective.MINISOS)
    lhs = social_cost(network, a, profile) - social_cost(network, b, profile)
    rhs = -n * d * d + 2.0 * n * d * network.distance(a, opt_pt)
    return IdentityReport(lhs, rhs, abs(lhs - rhs))


def make_movement_instance(rng):
    """Random tree (up to 12 nodes), 1 to 6 locations, weights, and a
    perturbed copy of the locations, for the movement-bound check."""
    cfg = GeneratorConfig(max_nodes=12, min_agents=1, max_agents=6,
                          seed=rng.randrange(2 ** 60))
    network, profile = next(generate(cfg, 1))
    m = len(profile)
    raw = [rng.random() + 0.05 for _ in range(m)]
    total = sum(raw)
    weights = [w / total for w in raw]
    moved = [
        x if rng.random() < 0.5 else random_point(rng, network)
        for x in profile
    ]
    return network, list(profile), moved, weights


def make_two_anchor_instance(rng):
    """Spine-and-bushes instance satisfying the cost-difference hypotheses:
    two anchor nodes a, b on a path; agents behind a, beyond b, or on
    path(a, b); the optimum beyond b.  Gives up after 60 tries."""
    for _ in range(60):
        spine = rng.randint(3, 6)
        lengths = [rng.uniform(*EDGE_LENGTHS) for _ in range(spine - 1)]
        edges = [(i, i + 1, lengths[i]) for i in range(spine - 1)]
        ia = rng.randint(0, spine - 3)
        ib = rng.randint(ia + 1, spine - 2)
        nxt = spine
        # Leaf bushes only behind a or at/beyond b keep the hypothesis intact.
        attach_sites = [rng.randrange(0, ia + 1) for _ in range(rng.randint(0, 2))]
        attach_sites += [rng.randrange(ib, spine) for _ in range(rng.randint(1, 2))]
        for site in attach_sites:
            edges.append((site, nxt, rng.uniform(0.3, 1.5)))
            nxt += 1
        network = TreeNetwork(nxt, edges)
        a = Point.at_node(ia)
        b = Point.at_node(ib)
        # Every node is behind a, beyond b, or on path(a, b).
        n_agents = rng.randint(3, 7)
        locs = [Point.at_node(rng.randrange(nxt)) for _ in range(n_agents)]
        # Weight the far end so the optimum falls beyond b.
        locs += [Point.at_node(spine - 1)] * (n_agents // 2 + 2)
        profile = LocationProfile(network, locs)
        opt_pt, _ = optimal_location(network, profile, Objective.MINISOS)
        t_a = network.branch_of(b, a)
        if opt_pt != b and network.branch_of(b, opt_pt) != t_a:
            return network, profile, a, b
    raise BadParamsError("could not construct a compliant instance")


# Identity kind -> (check, maker of an instance that meets its hypotheses).
IDENTITY_CHECKS = {
    "cost_difference": (check_cost_difference, make_two_anchor_instance),
    "flattening": (check_flattening, make_two_anchor_instance),
    "wavg_movement": (check_wavg_movement, make_movement_instance),
}


def lemma_identity_check(kind: str, rng: random.Random) -> IdentityReport:
    """Generate a compliant instance and check the named identity on it."""
    if kind not in IDENTITY_CHECKS:
        raise BadParamsError(f"unknown identity kind {kind!r}")
    check, make_instance = IDENTITY_CHECKS[kind]
    return check(*make_instance(rng))


# -- lower-bound witness profiles -------------------------------------------

# Witness kind -> unit edges on its line.
WITNESS_EDGES = {"deterministic_2": 2, "randomized_15_family": 4}


def lower_bound_witness(kind: str, n: int = 4):
    """The (network, profile) from a tightness argument: n/2 agents at each end
    of a line of ``WITNESS_EDGES[kind]`` unit edges.  No proof reasoning
    happens here."""
    if n < 2 or n % 2:
        raise BadParamsError(f"{kind} needs an even n >= 2")
    if n > MAX_COUNT:
        raise BadParamsError(f"{kind} needs n <= {MAX_COUNT}, got {n}")
    k = WITNESS_EDGES.get(kind)
    if k is None:
        raise BadParamsError(f"unknown witness kind {kind!r}")
    network = TreeNetwork(k + 1, [(i, i + 1, 1.0) for i in range(k)])
    return network, LocationProfile(
        network, [Point.at_node(0)] * (n // 2) + [Point.at_node(k)] * (n // 2))

