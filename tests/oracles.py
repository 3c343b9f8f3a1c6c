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
