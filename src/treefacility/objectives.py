"""Social cost functions, exact expectations, and optimal-location solvers.

On a tree each optimum has a short characterization:

- miniSOS: the weighted average.  Every location off an edge lies behind one
  of its endpoints, so along the edge the objective is a single parabola;
  its clamped vertex on the best edge is the minimizer.
- minisum: the median, found by descending from node 0 into any branch that
  holds more than half of the agents.
- minimax: the midpoint of the farthest pair of agents.

Every optimal cost is the social cost evaluated at the optimal point.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .network import (
    LocationProfile,
    NetworkError,
    Point,
    TreeNetwork,
    point_sort_key,
    subdivide,
)

PROB_TOL = 1e-9
COST_TOL = 1e-9


class DistributionInvalidError(ValueError):
    pass


class WeightInvalidError(ValueError):
    pass


class EmptyInputError(ValueError):
    pass


class CostOverflowError(NetworkError):
    """A social cost is too large to represent as a float."""


class Objective(enum.Enum):
    MINISOS = "minisos"
    MINISUM = "minisum"
    MINIMAX = "minimax"

    @staticmethod
    def parse(text: str) -> "Objective":
        try:
            return Objective(text.lower())
        except ValueError:
            raise NetworkError(f"unknown objective {text!r}") from None


@dataclass(frozen=True)
class LocationDistribution:
    """Finite-support probability distribution over points of one network."""

    support: tuple  # ((Point, prob), ...) with duplicates merged

    def __iter__(self):
        return iter(self.support)

    @property
    def points(self):
        return [p for p, _ in self.support]

    def is_point_mass(self) -> bool:
        return len(self.support) == 1

    def the_point(self) -> Point:
        if not self.is_point_mass():
            raise DistributionInvalidError("distribution is not a point mass")
        return self.support[0][0]

    def to_json(self):
        return [[p.to_json(), prob] for p, prob in self.support]


def make_distribution(pairs) -> LocationDistribution:
    """Merge duplicate points, validate probabilities, fix support order."""
    merged: dict[Point, float] = {}
    for p, prob in pairs:
        if prob < -PROB_TOL:
            raise DistributionInvalidError(f"negative probability {prob} at {p}")
        merged[p] = merged.get(p, 0.0) + prob
    merged = {p: q for p, q in merged.items() if q > 0.0}
    if not merged:
        raise DistributionInvalidError("empty support")
    total = sum(merged.values())
    if abs(total - 1.0) > PROB_TOL:
        raise DistributionInvalidError(f"probabilities sum to {total}, expected 1")
    support = tuple(sorted(merged.items(), key=lambda kv: point_sort_key(kv[0])))
    return LocationDistribution(support=support)


def point_mass(p: Point) -> LocationDistribution:
    return LocationDistribution(support=((p, 1.0),))


def _finite(cost: float) -> float:
    if not math.isfinite(cost):
        raise CostOverflowError(f"social cost {cost} is not finite: the distances are too large")
    return cost


def social_cost(network: TreeNetwork, y: Point, profile: LocationProfile,
                objective: Objective = Objective.MINISOS) -> float:
    dists = network.distances_from(y, profile)
    if objective is Objective.MINISOS:
        return _finite(sum(d * d for d in dists))
    if objective is Objective.MINISUM:
        return _finite(sum(dists))
    return max(dists)


def expected_social_cost(network: TreeNetwork, dist: LocationDistribution,
                         profile: LocationProfile,
                         objective: Objective = Objective.MINISOS) -> float:
    return _finite(sum(
        prob * social_cost(network, y, profile, objective) for y, prob in dist
    ))


def expected_agent_cost(network: TreeNetwork, dist: LocationDistribution,
                        x: Point) -> float:
    return sum(prob * network.distance(y, x) for y, prob in dist)


# -- weighted average (sum-of-squares minimizer) ---------------------------


def _check_weights(weights, m):
    if len(weights) != m:
        raise WeightInvalidError(f"{len(weights)} weights for {m} locations")
    if any(w < -PROB_TOL for w in weights):
        raise WeightInvalidError("weights must be nonnegative")
    total = sum(weights)
    if abs(total - 1.0) > PROB_TOL:
        raise WeightInvalidError(f"weights sum to {total}, expected 1")


def _minisos_point(network, locations, weights):
    """Global minimizer of sum_i w_i d(t, y_i)^2 over the whole network.

    Along edge (u, v, L) every location sits at a fixed position c_i on the
    edge's own line: -d(u, y) behind u, L + d(v, y) behind v, or its offset
    on the edge.  The objective there is one parabola, minimized by the
    weighted mean of the c_i clamped to [0, L]; the best edge wins.
    """
    if not network.edges:
        return Point.at_node(0)
    # One row per distinct location: rDGM's composition repeats its points.
    rows = {y: network.point_node_distances(y) for y in dict.fromkeys(locations)}
    loc_nd = [rows[y] for y in locations]
    total = sum(weights)
    best = None
    for e, (u, v, L) in enumerate(network.edges):
        cs = [
            y.offset if y.edge == e else (-d[u] if d[u] <= d[v] else L + d[v])
            for y, d in zip(locations, loc_nd)
        ]
        # Centred on c_0, so coincident locations give back their own offset.
        c0 = cs[0]
        t = c0 + sum(w * (c - c0) for w, c in zip(weights, cs)) / total
        t = min(max(t, 0.0), L)
        val = sum(w * (t - c) ** 2 for w, c in zip(weights, cs))
        if best is None or val < best[0]:
            best = (val, e, t)
    _, e, t = best
    return network.point_on_edge(e, t)


def weighted_average(network: TreeNetwork, locations, weights) -> Point:
    """The unique point minimizing the weighted sum of squared distances."""
    locations = [network.check_point(p) for p in locations]
    if not locations:
        raise EmptyInputError("weighted_average needs at least one location")
    _check_weights(weights, len(locations))
    if len(locations) == 1:
        return locations[0]
    return _minisos_point(network, locations, list(weights))


def verify_wavg_condition(network: TreeNetwork, candidate: Point, locations,
                          weights, tol: float = COST_TOL):
    """Check the per-branch optimality condition at the candidate point.

    For each branch at the candidate, the weighted distance mass inside the
    branch must not exceed the mass outside it.  Returns (holds, report)
    where report lists (branch, inside_sum, outside_sum).
    """
    locations = [network.check_point(y) for y in locations]
    _check_weights(weights, len(locations))
    dists = network.distances_from(candidate, locations)
    total = sum(w * d for w, d in zip(weights, dists))
    report = []
    holds = True
    for branch in network.branches_at(candidate):
        inside = 0.0
        for i, y in enumerate(locations):
            b = network.branch_of(candidate, y)
            if b == branch:
                inside += weights[i] * dists[i]
        outside = total - inside
        report.append((branch, inside, outside))
        if inside > outside + tol:
            holds = False
    return holds, report


# -- optimal locations per objective ---------------------------------------


def _agent_context(network, profile):
    """Subdivide at agent locations so every agent sits at a node, and count
    the agents at or below every node of the subdivided tree rooted at 0.
    Returns (aug, origin, agent_nodes, below); origin[v] is the original
    point of node v of aug."""
    aug, agent_nodes, origin = subdivide(network, list(profile))
    below = [0] * aug.node_count
    for a in agent_nodes:
        below[a] += 1
    for v in reversed(aug.order[1:]):
        below[aug.parent[v]] += below[v]
    return aug, origin, agent_nodes, below


def _descend(aug, below, root, qualifies):
    """Walk from the root into any branch whose agent count qualifies.

    ``below`` holds the agents at or below each node (see _agent_context):
    a child branch w of node a holds below[w] agents, and the branch toward
    a's parent holds the other n - below[a].  With thresholds above n/2 at
    most one branch can qualify, so the walk is deterministic; it stops at
    the first node where no branch qualifies.
    """
    n = below[0]
    parent = aug.parent
    a = root
    while True:
        for w, _ in aug.adjacency[a]:
            if qualifies(below[w] if parent[w] == a else n - below[a]):
                a = w
                break
        else:
            return a


def median_point(network: TreeNetwork, profile) -> Point:
    """Descend from node 0 into any branch holding strictly more than half
    the agents.  The stop minimizes the sum of distances; among ties it is
    the minimizer closest to node 0."""
    aug, origin, _, below = _agent_context(network, profile)
    n = len(profile)
    return origin[_descend(aug, below, 0, lambda count: 2 * count > n)]


def _minimax_point(network, locations):
    """Midpoint of the farthest pair, found by two farthest-point sweeps."""
    from_first = network.distances_from(locations[0], locations)
    a = locations[from_first.index(max(from_first))]
    from_a = network.distances_from(a, locations)
    d_ab = max(from_a)
    b = locations[from_a.index(d_ab)]
    return network.point_along_path(a, b, 0.5 * d_ab)


def optimal_location(network: TreeNetwork, profile: LocationProfile,
                     objective: Objective = Objective.MINISOS):
    """(optimal point, optimal social cost) for the given objective."""
    if len(profile) == 0:
        raise EmptyInputError("profile is empty")
    locs = list(profile)
    if objective is Objective.MINISOS:
        point = _minisos_point(network, locs, [1.0] * len(locs))
    elif objective is Objective.MINISUM:
        point = median_point(network, locs)
    else:
        point = _minimax_point(network, locs)
    return point, social_cost(network, point, profile, objective)
