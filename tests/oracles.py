"""Brute-force oracles the tests compare the package against."""

from treefacility.network import Point, TreeNetwork
from treefacility.verify import IDENTITY_TOL


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
                          tol: float = IDENTITY_TOL) -> bool:
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
