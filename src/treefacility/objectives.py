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


def _shift(n, s, q, L):
    """The moments (count, sum d, sum d^2) of n agents with each d grown by L."""
    return n, s + n * L, q + 2.0 * L * s + n * L * L


def _moments(network, profile):
    """(down, up, out, inside): the agents' moments for _sums.  down holds,
    for each node v, the count, sum of distances and sum of squared
    distances of the agents at or below v, and up those of the rest, both
    about v; out[c] holds those outside c's branch (c's subtree and parent
    edge), about c's parent; inside[e] the offsets of e's interior agents.

    The bottom-up pass sums each branch about its parent; pre[c] is the
    parent's sum before c's branch joins it.  The top-down pass meets each
    node's children in the reverse order, so up[a] plus the branches met so
    far is the matching suffix.  Nothing is subtracted, so clustered agents
    far from node 0 keep full relative precision.
    """
    N, edges, parent, parent_edge = network.node_count, network.edges, network.parent, network.parent_edge
    dn, ds, dq = [0] * N, [0.0] * N, [0.0] * N  # down, one list per moment
    inside, near = {}, {}  # near[e, end]: e's interior agents about end
    for x in profile:
        if x.node is None:
            inside.setdefault(x.edge, []).append(x.offset)
        else:
            dn[x.node] += 1
    for e, ts in inside.items():
        u, v, L = edges[e]
        for end, dists in ((u, ts), (v, [L - t for t in ts])):
            near[e, end] = (len(dists), sum(dists), sum([d * d for d in dists]))
    pre, branch, zero = [None] * N, [None] * N, (0, 0.0, 0.0)
    for c in network.order[:0:-1]:
        a, e, n, s = parent[c], parent_edge[c], dn[c], ds[c]
        L, (k, f, g) = edges[e][2], near.get((e, a), zero)
        pre[c] = dn[a], ds[a], dq[a]
        branch[c] = n, s, q = n + k, s + n * L + f, dq[c] + 2.0 * L * s + n * L * L + g
        dn[a], ds[a], dq[a] = dn[a] + n, ds[a] + s, dq[a] + q
    up, out = [zero] * N, [None] * N
    acc = up[:]  # up[a] plus the branches of a's children met so far
    for c in network.order[1:]:
        a, e = parent[c], parent_edge[c]
        (n, s, q), (pn, ps, pq), (k, f, g) = acc[a], pre[c], branch[c]
        acc[a] = n + k, s + f, q + g
        out[c] = (n, s, q) = n + pn, s + ps, q + pq
        L, (k, f, g) = edges[e][2], near.get((e, c), zero)
        up[c] = acc[c] = n + k, s + n * L + f, q + 2.0 * L * s + n * L * L + g
    return (dn, ds, dq), up, out, inside


def _sums(network, table, y):
    """(sum d, sum d^2) over the agents from y: O(1) plus y's edge's agents."""
    (dn, ds, dq), up, out, inside = table
    if y.node is not None:
        return ds[y.node] + up[y.node][1], dq[y.node] + up[y.node][2]
    (u, _, L), c = network.edges[y.edge], network.child_end(y.edge)
    own = [abs(y.offset - t) for t in inside.get(y.edge, ())]
    (_, s, q), (_, s2, q2) = (_shift(dn[c], ds[c], dq[c], y.offset if c == u else L - y.offset),
                              _shift(*out[c], L - y.offset if c == u else y.offset))
    return sum(own) + s + s2, sum([d * d for d in own]) + q + q2


def expected_social_cost(network: TreeNetwork, dist: LocationDistribution,
                         profile: LocationProfile,
                         objective: Objective = Objective.MINISOS) -> float:
    """A point mass's social cost, or else: for minimax, each point's distance
    to the farthest pair (a, b), as on a tree a or b is the agent farthest
    from any point; for miniSOS and minisum, one _moments table."""
    if len(dist) == 1:  # its probability may round to an ulp below 1
        return _finite(dist[0][1] * social_cost(network, dist[0][0], profile, objective))
    if objective is Objective.MINIMAX:
        ys, (a, b, _) = dist.points, _farthest_pair(network, profile)
        pairs = zip(dist, network.distances_from(a, ys), network.distances_from(b, ys))
        return _finite(sum(prob * max(da, db) for (_, prob), da, db in pairs))
    table, k = _moments(network, profile), 1 if objective is Objective.MINISOS else 0
    return _finite(sum(prob * _sums(network, table, y)[k] for y, prob in dist))


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
    edges, (u, v, L) = network.edges, network.edges[e]
    rows = network.node_distances(u), network.node_distances(v)
    cs = []  # each location's position on the edge's line, from the two rows
    for y in locations:
        if y.edge == e:
            cs.append(y.offset)
            continue
        a, b, length = edges[y.edge] if y.node is None else (y.node, y.node, 0.0)
        du, dv = [min(r[a] + y.offset, r[b] + (length - y.offset)) for r in rows]
        cs.append(-du if du <= dv else L + dv)
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


def _farthest_pair(network, locations):
    """(a, b, d(a, b)): a farthest pair of agents, by two farthest-point sweeps."""
    from_first = network.distances_from(locations[0], locations)
    a = locations[from_first.index(max(from_first))]
    from_a = network.distances_from(a, locations)
    d_ab = max(from_a)
    return a, locations[from_a.index(d_ab)], d_ab


def optimal_location(network: TreeNetwork, profile: LocationProfile,
                     objective: Objective = Objective.MINISOS):
    """(optimal point, optimal social cost) for the given objective."""
    if objective is Objective.MINISOS:
        point = _minisos_point(network, profile, [1.0] * len(profile))
    elif objective is Objective.MINISUM:
        point = median_point(network, profile)
    else:
        a, b, d_ab = _farthest_pair(network, profile)  # the pair's midpoint
        point = network.point_along_path(a, b, 0.5 * d_ab)
    return point, social_cost(network, point, profile, objective)
