"""Brute-force oracles the tests compare the package against, and checks
that only the tests use."""

from treefacility.mechanisms import Mechanism
from treefacility.network import (
    ENDPOINT_SNAP,
    ROUND_TOL,
    SP_TOL,
    LocationProfile,
    NetworkError,
    Point,
    TreeNetwork,
    subdivide,
)
from treefacility.objectives import _check_weights, expected_agent_cost


class GenericSweep(Mechanism):
    """The wrapped mechanism with the base class's misreport sweep: every
    deviated profile is run from scratch."""

    def __init__(self, mechanism: Mechanism):
        self.mechanism = mechanism
        self.name = mechanism.name

    def run(self, network, profile):
        return self.mechanism.run(network, profile)


def grid_optimum(network: TreeNetwork, locations, weights,
                 resolution: float = 1e-3, refine_rounds: int = 3,
                 squared: bool = True):
    """Brute-force minimizer of the (squared) distance objective by edge
    grids, refined locally.  Independent of the closed-form solver."""

    def value(p):
        if squared:
            return sum(w * network.distance(p, y) ** 2
                       for w, y in zip(weights, locations))
        return sum(w * network.distance(p, y) for w, y in zip(weights, locations))

    if not network.edges:
        p = Point.at_node(0)
        return p, value(p)
    best = None  # (value, edge, offset, grid step)
    for e, (_, _, w) in enumerate(network.edges):
        steps = max(int(w / resolution), 1)
        for j in range(steps + 1):
            t = w * j / steps
            v = value(network.point_on_edge(e, t))
            if best is None or v < best[0]:
                best = (v, e, t, w / steps)
    v, e, t, span = best
    w = network.edges[e][2]
    lo, hi = max(t - 2 * span, 0.0), min(t + 2 * span, w)
    for _ in range(refine_rounds):
        grid = [(value(network.point_on_edge(e, lo + (hi - lo) * j / 40)),
                 lo + (hi - lo) * j / 40) for j in range(41)]
        v, t = min(grid)
        span = (hi - lo) / 40
        lo, hi = max(t - 2 * span, 0.0), min(t + 2 * span, w)
    return network.point_on_edge(e, t), v


def _node_row(network: TreeNetwork, source: int):
    """Distances from a node to every node, by a BFS of the test's own."""
    adj = [[] for _ in range(network.node_count)]
    for u, v, w in network.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    row = {source: 0.0}
    queue = [source]
    for u in queue:
        for v, w in adj[u]:
            if v not in row:
                row[v] = row[u] + w
                queue.append(v)
    return row


def anchor_distance(network: TreeNetwork, a: Point, b: Point) -> float:
    """d(a, b) by the all-pairs formula: 0 when a == b, the offset difference
    on one edge, otherwise the least da + row(na)[nb] + db over the ends
    (na, da) of a and (nb, db) of b."""
    if a == b:
        return 0.0
    if not a.is_node and not b.is_node and a.edge == b.edge:
        return abs(a.offset - b.offset)

    def ends(p):
        if p.is_node:
            return [(p.node, 0.0)]
        u, v, w = network.edges[p.edge]
        return [(u, p.offset), (v, w - p.offset)]

    return min(da + _node_row(network, na)[nb] + db
               for na, da in ends(a) for nb, db in ends(b))


def points_on_single_path(network: TreeNetwork, points,
                          tol: float = ROUND_TOL) -> bool:
    """True iff all points lie on the path between the farthest pair."""
    if len(points) <= 2:
        return True
    a = b = points[0]
    dmax = -1.0
    for p in points:
        for q in points:
            d = network.distance(p, q)
            if d > dmax:
                dmax, a, b = d, p, q
    return all(
        network.distance(a, y) + network.distance(y, b) <= dmax + tol
        for y in points
    )


def reference_walk(net, prof, root_agent, qualifies):
    """The generalized-median walk by distance comparison: agent x lies in
    the branch toward neighbour w of a exactly when d(w, x) < d(a, x) on the
    tree subdivided at every agent.  Starts at node 0 when root_agent is None."""
    aug, agent_nodes, origin = subdivide(net, list(prof))
    a = 0 if root_agent is None else agent_nodes[root_agent]
    while True:
        da = aug.node_distances(a)
        for w, _ in aug.adjacency[a]:
            dw = aug.node_distances(w)
            if qualifies(sum(1 for x in agent_nodes if dw[x] < da[x])):
                a = w
                break
        else:
            return origin[a]


def sweep_minisos_point(network: TreeNetwork, locations, weights):
    """The miniSOS minimizer by a sweep over every edge.

    Along edge (u, v, L) every location sits at a fixed position c_i on the
    edge's own line: -d(u, y) behind u, L + d(v, y) behind v, or its offset
    on the edge.  The objective there is one parabola, minimized by the
    weighted mean of the c_i clamped to [0, L]; the best edge wins.
    """
    if not network.edges:
        return Point.at_node(0)
    nodes = [Point.at_node(i) for i in range(network.node_count)]
    rows = {y: network.distances_from(y, nodes) for y in dict.fromkeys(locations)}
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


def scan_point_at_coordinate(network: TreeNetwork, c: float) -> Point:
    """The point at line coordinate c by scanning: the first node within
    ENDPOINT_SNAP of c, else the first edge whose ends enclose c."""
    coords = [network.coordinate_of(Point.at_node(i)) for i in range(network.node_count)]
    for i, ci in enumerate(coords):
        if abs(c - ci) <= ENDPOINT_SNAP:
            return Point.at_node(i)
    for e, (u, v, w) in enumerate(network.edges):
        lo, hi = sorted((coords[u], coords[v]))
        if lo < c < hi:
            off = c - coords[u] if coords[u] < coords[v] else coords[u] - c
            return network.point_on_edge(e, off)
    raise NetworkError(f"coordinate {c} outside the network")


def branches_at(network: TreeNetwork, p: Point):
    """All branches of T(G, p), each named by the neighbour node of p it
    leads to, in deterministic order."""
    network.check_point(p)
    if p.is_node:
        return sorted(v for v, _ in network.adjacency[p.node])
    u, v, _ = network.edges[p.edge]
    return [u, v]


def verify_wavg_condition(network: TreeNetwork, candidate: Point, locations,
                          weights, tol: float = ROUND_TOL):
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
    for branch in branches_at(network, candidate):
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


def line_with_coordinates(coords, extra_nodes=()):
    """A path network whose nodes sit at the given sorted-unique coordinates.

    Returns (network, coordinate -> Point resolver).  Coordinates may be any
    reals; they are shifted so the leftmost becomes node 0.
    """
    marks = sorted(set(float(c) for c in coords) | set(float(c) for c in extra_nodes))
    if len(marks) == 1:
        net = TreeNetwork(1, [])
        return net, lambda c: Point.at_node(0)
    base = marks[0]
    edges = [(i, i + 1, marks[i + 1] - marks[i]) for i in range(len(marks) - 1)]
    net = TreeNetwork(len(marks), edges)

    def resolve(c):
        return net.point_at_coordinate(float(c) - base)

    return net, resolve


class BadOrderingError(ValueError):
    pass


def immigrants_check(mechanism: Mechanism, a: float, b: float, c: float, n: int):
    """SP necessary conditions over the two-block profiles with n-m agents at
    a and m agents at c (or b).  Violations certify non-strategyproofness.

    Returns (holds, rows) with one row per m: (m, lhs1, rhs1, lhs2, rhs2).
    """
    if not (a <= b <= c) or (a == b == c):
        raise BadOrderingError(f"need a <= b <= c with a strict inequality, got {a}, {b}, {c}")
    network, resolve = line_with_coordinates([a, b, c])
    pa, pb, pc = resolve(a), resolve(b), resolve(c)
    rows = []
    holds = True
    for m in range(1, n + 1):
        x0 = LocationProfile(network, [pa] * (n - m) + [pc] * m)
        xm = LocationProfile(network, [pa] * (n - m) + [pb] * m)
        d0 = mechanism.run(network, x0)
        dm = mechanism.run(network, xm)
        c_from_0 = expected_agent_cost(network, d0, pc)
        c_from_m = expected_agent_cost(network, dm, pc)
        b_from_m = expected_agent_cost(network, dm, pb)
        b_from_0 = expected_agent_cost(network, d0, pb)
        rows.append((m, c_from_0, c_from_m, b_from_m, b_from_0))
        if c_from_0 > c_from_m + SP_TOL or b_from_m > b_from_0 + SP_TOL:
            holds = False
    return holds, rows
