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

import bisect
import enum
import math

from .network import (
    ROUND_TOL,
    LocationProfile,
    NetworkError,
    Point,
    TreeNetwork,
    point_sort_key,
)


class DistributionInvalidError(ValueError):
    """Bad probabilities or weights: negative or NaN, not summing to 1, the
    wrong count, or none at all."""


class CostOverflowError(NetworkError):
    """A social cost is too large to represent as a float."""


class Objective(enum.Enum):
    MINISOS = "minisos"
    MINISUM = "minisum"
    MINIMAX = "minimax"


class LocationDistribution(tuple):
    """Finite-support probability distribution over points of one network:
    a tuple of (Point, prob) pairs, duplicates merged, in point_sort_key
    order."""

    __slots__ = ()

    @property
    def points(self):
        return [p for p, _ in self]

    def the_point(self) -> Point:
        if len(self) != 1:
            raise DistributionInvalidError("distribution is not a point mass")
        return self[0][0]

    def to_json(self):
        return [[p.to_json(), prob] for p, prob in self]


def make_distribution(pairs) -> LocationDistribution:
    """Merge duplicate points, validate probabilities, fix support order."""
    merged: dict[Point, float] = {}
    for p, prob in pairs:
        if not prob >= 0.0:  # NaN fails every comparison
            raise DistributionInvalidError(f"probability {prob} at {p} is not a number >= 0")
        merged[p] = merged.get(p, 0.0) + prob
    merged = {p: q for p, q in merged.items() if q > 0.0}
    if not merged:
        raise DistributionInvalidError("empty support")
    total = sum(merged.values())
    if abs(total - 1.0) > ROUND_TOL:
        raise DistributionInvalidError(f"probabilities sum to {total}, expected 1")
    return LocationDistribution(sorted(merged.items(), key=lambda kv: point_sort_key(kv[0])))


def point_mass(p: Point) -> LocationDistribution:
    return LocationDistribution(((p, 1.0),))


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
    """Expected distance from x to a mechanism's output on this network."""
    dists = network.distances_from(x, dist.points)
    return sum(prob * d for (_, prob), d in zip(dist, dists))


# -- weighted average (sum-of-squares minimizer) ---------------------------


def _check_weights(weights, m):
    if len(weights) != m:
        raise DistributionInvalidError(f"{len(weights)} weights for {m} locations")
    if not all(w >= 0.0 for w in weights):  # NaN fails every comparison
        raise DistributionInvalidError("weights must be nonnegative numbers")
    total = sum(weights)
    if abs(total - 1.0) > ROUND_TOL:
        raise DistributionInvalidError(f"weights sum to {total}, expected 1")


def _minisos_point(network, locations, weights):
    """Global minimizer of sum_i w_i d(t, y_i)^2 over the whole network.

    Along edge (a, b, L), a the parent end, the objective is one parabola
    with vertex (2M - T) / total from a, where T = sum_i w_i d(a, y_i) and M
    is that sum over the branch through b.  One bottom-up pass gives every
    subtree's weight and first moment; the walk from node 0 enters the one
    branch with 2M > T and stops on the first edge whose vertex falls short
    of its far end, or at the node where no branch qualifies.
    """
    edges, parent, parent_edge = network.edges, network.parent, network.parent_edge
    total = sum(weights)
    W = [0.0] * network.node_count  # weight at or below each node
    S = [0.0] * network.node_count  # sum of w d(v, y) over that weight
    # Weight inside each edge, and its moment about the edge's parent end.
    inside = [[0.0, 0.0] for _ in edges]
    for y, w in zip(locations, weights):
        if y.is_node:
            W[y.node] += w
        else:
            _, v, L = edges[y.edge]
            acc = inside[y.edge]
            acc[0] += w
            acc[1] += w * (y.offset if network.child_end(y.edge) == v else L - y.offset)
    for b in reversed(network.order[1:]):
        a, e = parent[b], parent_edge[b]
        wi, si = inside[e]
        W[a] += W[b] + wi
        S[a] += S[b] + W[b] * edges[e][2] + si
    a, T = 0, S[0]
    while True:
        for b, e in network.adjacency[a]:
            if parent[b] != a:
                continue
            L = edges[e][2]
            M = S[b] + W[b] * L + inside[e][1]
            if 2.0 * M > T:
                if (2.0 * M - T) / total < L:
                    return _edge_minimizer(network, e, locations, weights, total)
                T += total * L - 2.0 * (M - S[b])
                a = b
                break
        else:
            return Point.at_node(a)


def _edge_minimizer(network, e, locations, weights, total):
    """The clamped vertex of the parabola along edge e = (u, v, L), centred
    on the first location's position so coincident locations give back
    their own offset."""
    u, v, L = network.edges[e]
    ends = (Point.at_node(u), Point.at_node(v))
    at = {}  # each distinct location's position on the edge's line
    for y in dict.fromkeys(locations):
        if y.edge == e:
            at[y] = y.offset
        else:
            du, dv = network.distances_from(y, ends)
            at[y] = -du if du <= dv else L + dv
    cs = [at[y] for y in locations]
    c0 = cs[0]
    t = c0 + sum(w * (c - c0) for w, c in zip(weights, cs)) / total
    return network.point_on_edge(e, min(max(t, 0.0), L))


def weighted_average(network: TreeNetwork, locations, weights) -> Point:
    """The unique point minimizing the weighted sum of squared distances."""
    locations = [network.check_point(p) for p in locations]
    if not locations:
        raise DistributionInvalidError("weighted_average needs at least one location")
    _check_weights(weights, len(locations))
    if len(locations) == 1:
        return locations[0]
    return _minisos_point(network, locations, list(weights))


# -- optimal locations per objective ---------------------------------------


def _positions(network: TreeNetwork, locations):
    """(place, at, chains, up, sub) of the agents at ``locations``."""
    N = network.node_count
    edges, parent, parent_edge = network.edges, network.parent, network.parent_edge
    place = [p.node for p in locations]  # each agent's position
    at = []  # (edge, offset) of interior position N + j
    chains = {}  # edge -> its interior positions in offset order
    for e, off, k in sorted([(p.edge, p.offset, k) for k, p in enumerate(locations)
                             if p.node is None]):
        if not at or at[-1] != (e, off):
            chains.setdefault(e, []).append(N + len(at))
            at.append((e, off))
        place[k] = N + len(at) - 1
    up = [None] * (N + len(at))  # the position above each position
    sub = [0] * (N + len(at))  # the agents at or below each position
    for p in place:
        sub[p] += 1
    # Bottom up, hang each node below the interior positions of its parent
    # edge, nearest first, and add each position's count to the one above it.
    for c in reversed(network.order[1:]):
        e, p = parent_edge[c], c
        cl = chains.get(e, ())
        for b in (cl if edges[e][0] == c else cl[::-1]):
            up[p] = b
            sub[b] += sub[p]
            p = b
        up[p] = parent[c]
        sub[parent[c]] += sub[p]
    return place, at, chains, up, sub


def _lowest(up, sub, need):
    """The chain's lowest position, or None when no position has need agents."""
    chain = [p for p, s in enumerate(sub) if s >= need]
    has_child = {up[p] for p in chain}
    return next((p for p in chain if p not in has_child), None)


def _walks(N, at, up, sub, need, low, starts):
    """Each start's stop: climb while the branch above qualifies, then
    descend to the chain's lowest position if a child does."""
    stops = []
    for p in starts:
        while sub[0] - sub[p] >= need:
            p = up[p]
        if sub[p] >= need:
            p = low
        stops.append(Point(node=p) if p < N else Point(edge=at[p - N][0], offset=at[p - N][1]))
    return stops


def generalized_medians(network: TreeNetwork, locations, need: int, roots):
    """The generalized-median walk from each root (an agent index, or None
    for node 0) into any branch holding at least ``need`` > n/2 agents.

    Positions are the nodes and each distinct agent point inside an edge:
    two agents share a position exactly when their points are equal, as
    anchors share a node in ``subdivide``, so agents 1e-12 apart are two
    positions.  On the tree rooted at node 0, sub(p) counts the agents at
    or below position p; the branch above p holds n - sub(p) agents and a
    child c's branch sub(c), so at most one branch qualifies.  A walk
    climbs while the branch above qualifies, then descends while a child
    does.  The positions with sub(p) >= need form one chain down from node
    0, as two disjoint branches cannot both hold more than half the
    agents, so every descent ends at its lowest position.
    """
    place, at, _, up, sub = _positions(network, locations)
    return _walks(network.node_count, at, up, sub, need, _lowest(up, sub, need),
                  [0 if r is None else place[r] for r in roots])


def deviated_medians(network: TreeNetwork, locations, i: int, points, need: int, roots):
    """generalized_medians with agent i at each of ``points``, from one
    build of the other agents' positions.  A misreport p is a node, joins
    the position of another agent only at exactly that agent's point, or
    is a new position P above the one just below it; it adds 1 to sub on
    P's root path only.
    The first position there with sub >= need is the new lowest if p
    brought it into the chain; else the others' lowest stands."""
    N, parent = network.node_count, network.parent
    place, at, chains, up, sub = _positions(network, locations[:i] + locations[i + 1:])
    low = _lowest(up, sub, need)
    starts = [0 if r is None else -1 if r == i else place[r - (r > i)] for r in roots]
    out = []
    for p in points:
        P, below = p.node, None  # below: the position just below a new P
        if P is None:
            (u, v, _), t, cl = network.edges[p.edge], p.offset, chains.get(p.edge, [])
            k = bisect.bisect_right(cl, t, key=lambda c: at[c - N][1])
            if k and at[cl[k - 1] - N][1] == t:
                P = cl[k - 1]
            else:  # offsets grow toward node 0 when u is the child end
                below = (cl[k - 1] if k else u) if parent[u] == v else (cl[k] if k < len(cl) else v)
                P = len(up)
                at.append((p.edge, t))
                up.append(up[below])
                sub.append(sub[below])
                up[below] = P
        path, x = [], P
        while x is not None:
            path.append(x)
            x = up[x]
        for x in path:
            sub[x] += 1
        q = next(x for x in path if sub[x] >= need)
        out.append(_walks(N, at, up, sub, need, q if sub[q] == need else low,
                          [P if s < 0 else s for s in starts]))
        for x in path:
            sub[x] -= 1
        if below is not None:
            up[below] = up.pop()
            del sub[-1], at[-1]
    return out


def median_point(network: TreeNetwork, profile) -> Point:
    """Descend from node 0 into any branch holding strictly more than half
    the agents.  The stop minimizes the sum of distances; among ties it is
    the minimizer closest to node 0."""
    return generalized_medians(network, profile, len(profile) // 2 + 1, [None])[0]


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
    if objective is Objective.MINISOS:
        point = _minisos_point(network, profile, [1.0] * len(profile))
    elif objective is Objective.MINISUM:
        point = median_point(network, profile)
    else:
        point = _minimax_point(network, profile)
    return point, social_cost(network, point, profile, objective)
