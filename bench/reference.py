"""The benchmark's own answers, computed without treefacility.

Every check the benchmark makes on the program's output is built from this
module: tree distances from the edge list, the line closed forms in exact
rationals, the minimax and minisum characterizations on trees, and the
miniSOS branch condition.  Points use the instance-file form
(``{"node": i}`` or ``{"edge": e, "offset": t}``) so that nothing depends on
the program's classes.

Tolerances are relative to the size of the value checked, so the same
checks hold on 2-node lines and on 1000-node trees.
"""

from __future__ import annotations

from fractions import Fraction

# Regret above this is a strategyproofness violation; the families checked
# are proven strategyproof, so their exact regret is 0.
SP_TOL = 1e-7
# Relative agreement required between a reported and a recomputed value.
REL_TOL = 1e-9

# The paper's worst-case bounds, keyed by (mechanism spec, objective).  The
# rd, half-avg-rd and lrm bounds are for lines; median and rdgm:2/3 hold on
# trees.
BOUNDS = {
    ("median", "minisos"): Fraction(2),
    ("rd", "minisos"): Fraction(2),
    ("half-avg-rd", "minisos"): Fraction(3, 2),
    ("lrm", "minimax"): Fraction(3, 2),
    ("rdgm:2/3", "minisos"): Fraction(183, 100),
}


class CheckError(AssertionError):
    """The program's output disagrees with the benchmark's own answer."""


# -- points -----------------------------------------------------------------


def point(doc):
    """A point as a hashable tuple: ("n", node) or ("e", edge, offset)."""
    if "node" in doc:
        return ("n", int(doc["node"]))
    return ("e", int(doc["edge"]), float(doc["offset"]))


# -- tree distances ---------------------------------------------------------


class Tree:
    """Distances on a weighted tree, from its edge list alone."""

    def __init__(self, node_count, edges):
        self.node_count = node_count
        self.edges = [(int(u), int(v), float(w)) for u, v, w in edges]
        self.adj = [[] for _ in range(node_count)]
        for idx, (u, v, _) in enumerate(self.edges):
            self.adj[u].append((v, idx))
            self.adj[v].append((u, idx))

    def _flood(self, seeds, skip_edge):
        """Distances from the seeds to every node, never crossing skip_edge."""
        dist = [None] * self.node_count
        stack = []
        for node, d in seeds:
            dist[node] = d
            stack.append(node)
        while stack:
            x = stack.pop()
            for y, e in self.adj[x]:
                if e != skip_edge and dist[y] is None:
                    dist[y] = dist[x] + self.edges[e][2]
                    stack.append(y)
        return dist

    def node_dists(self, p):
        """Distance from point p to every node."""
        if p[0] == "n":
            return self._flood([(p[1], 0.0)], -1)
        u, v, w = self.edges[p[1]]
        return self._flood([(u, p[2]), (v, w - p[2])], p[1])

    def dist(self, p, p_rows, q):
        """d(p, q), given p's node distances p_rows."""
        if q[0] == "n":
            return p_rows[q[1]]
        e, t = q[1], q[2]
        if p[0] == "e" and p[1] == e:
            return abs(p[2] - t)
        u, v, w = self.edges[e]
        return min(p_rows[u] + t, p_rows[v] + (w - t))

    def branch_finder(self, anchor):
        """A function naming the branch at ``anchor`` that holds a point, or
        None for the anchor itself.  A branch is named by the node it leads
        to first (from a node) or by the edge endpoint it leads to (from
        inside an edge)."""
        if anchor[0] == "n":
            c = anchor[1]
            first = [None] * self.node_count
            stack = []
            for y, _ in self.adj[c]:
                first[y] = y
                stack.append(y)
            while stack:
                x = stack.pop()
                for y, _ in self.adj[x]:
                    if y != c and first[y] is None:
                        first[y] = first[x]
                        stack.append(y)

            def find(q):
                if q == anchor:
                    return None
                if q[0] == "n":
                    return first[q[1]]
                a, b, _ = self.edges[q[1]]
                return first[b] if a == c else first[a]

            return find
        e, t = anchor[1], anchor[2]
        u, v, _ = self.edges[e]
        u_side = self._flood([(u, 0.0)], e)

        def find(q):
            if q == anchor:
                return None
            if q[0] == "e" and q[1] == e:
                return u if q[2] < t else v
            near = q[1] if q[0] == "n" else self.edges[q[1]][0]
            return u if u_side[near] is not None else v

        return find


class Agents:
    """Agent locations on a tree with each agent's node distances."""

    def __init__(self, tree, locations):
        self.tree = tree
        self.points = [point(doc) for doc in locations]
        self.rows = [tree.node_dists(x) for x in self.points]

    def dists_to(self, q):
        """d(x_i, q) for every agent i."""
        return [self.tree.dist(x, r, q) for x, r in zip(self.points, self.rows)]


OBJECTIVES = ("minisos", "minisum", "minimax")


def aggregate(objective, ds):
    if objective == "minisos":
        return sum(d * d for d in ds)
    if objective == "minisum":
        return sum(ds)
    return max(ds)


def expected_costs(agents, support):
    """{objective: expected social cost} of a distribution given as
    (point doc, probability) pairs."""
    out = dict.fromkeys(OBJECTIVES, 0.0)
    for doc, prob in support:
        ds = agents.dists_to(point(doc))
        for objective in OBJECTIVES:
            out[objective] += prob * aggregate(objective, ds)
    return out


def minimax_optimum(agents):
    """Half the largest distance between two agents."""
    return max(max(agents.dists_to(x)) for x in agents.points) / 2


def best_candidate(agents, objective):
    """Least social cost over the nodes and the agent locations.

    For minisum this is the optimum: on a tree the sum of distances is convex
    along every edge and its kinks are at the agents.  For miniSOS it is an
    upper bound on the optimum."""
    at_nodes = min(aggregate(objective, col) for col in zip(*agents.rows))
    at_agents = min(aggregate(objective, agents.dists_to(x)) for x in agents.points)
    return min(at_nodes, at_agents)


def branch_masses(agents, at):
    """{branch: sum of distances from ``at`` to the agents in it}, and the
    total distance from ``at`` to all agents."""
    ds = agents.dists_to(at)
    find = agents.tree.branch_finder(at)
    masses = {}
    for x, d in zip(agents.points, ds):
        b = find(x)
        if b is not None:
            masses[b] = masses.get(b, 0.0) + d
    return masses, sum(ds)


def deviation_count(node_count, edges, locations, divisions=16):
    """Deviations the default set makes sp_check test: each agent reports
    every node, every agent location and the points length*j/divisions inside
    every edge (duplicates merged), except its own location."""
    points = {("n", i) for i in range(node_count)}
    points.update(point(doc) for doc in locations)
    for e, (_, _, w) in enumerate(edges):
        points.update(("e", e, float(w) * j / divisions) for j in range(1, divisions))
    return len(locations) * (len(points) - 1)


# -- lines, exactly ---------------------------------------------------------


def line_coordinates(node_count, edges):
    """Exact node coordinates along a path, from one endpoint."""
    tree = Tree(node_count, edges)
    if any(len(a) > 2 for a in tree.adj):
        raise CheckError("instance is not a line")
    coords = [None] * node_count
    start = next((i for i in range(node_count) if len(tree.adj[i]) <= 1), 0)
    coords[start] = Fraction(0)
    stack = [start]
    while stack:
        x = stack.pop()
        for y, e in tree.adj[x]:
            if coords[y] is None:
                coords[y] = coords[x] + Fraction(tree.edges[e][2])
                stack.append(y)
    return tree, coords


def line_positions(node_count, edges, locations):
    """Exact coordinates of the agents of a line instance."""
    tree, coords = line_coordinates(node_count, edges)
    out = []
    for p in map(point, locations):
        if p[0] == "n":
            out.append(coords[p[1]])
            continue
        u, v, _ = tree.edges[p[1]]
        sign = 1 if coords[u] < coords[v] else -1
        out.append(coords[u] + sign * Fraction(p[2]))
    return out


def line_cost_at(objective, xs, y):
    ds = [abs(y - x) for x in xs]
    return aggregate(objective, ds)


def line_optimum(objective, xs):
    """Closed forms: miniSOS sum (x - mean)^2, minisum sum |x - median|,
    minimax half the span."""
    if objective == "minisos":
        mean = sum(xs) / len(xs)
        return sum((x - mean) ** 2 for x in xs)
    if objective == "minisum":
        med = sorted(xs)[len(xs) // 2]
        return sum(abs(x - med) for x in xs)
    return (max(xs) - min(xs)) / 2


def line_distribution(spec, xs):
    """The output distribution of a line mechanism, from its definition."""
    n = len(xs)
    if spec == "rd":
        return [(x, Fraction(1, n)) for x in xs]
    if spec == "half-avg-rd":
        return [(sum(xs) / n, Fraction(1, 2))] + [(x, Fraction(1, 2 * n)) for x in xs]
    if spec == "lrm":
        lo, hi = min(xs), max(xs)
        return [(lo, Fraction(1, 4)), (hi, Fraction(1, 4)), ((lo + hi) / 2, Fraction(1, 2))]
    raise KeyError(f"no exact form for {spec!r}")


def line_ratio(spec, objective, xs):
    """Exact approximation ratio on a line, or None when the optimum is 0."""
    opt = line_optimum(objective, xs)
    if opt == 0:
        return None
    cost = sum(p * line_cost_at(objective, xs, y) for y, p in line_distribution(spec, xs))
    return cost / opt


# -- checks -----------------------------------------------------------------


def check_regret(spec, regret):
    """A proven-strategyproof family must show no regret above SP_TOL."""
    if regret > SP_TOL:
        raise CheckError(f"{spec}: regret {regret:.3e} above {SP_TOL:g}")


def check_control_regret(regret):
    """avg-only on agents at 0 and 2 of the line [-2, 2]: the mean is 1; the
    agent at 0 reports -2, moves the mean to 0 and saves 1 of its cost 1."""
    check_close("avg-only control regret", regret, 1.0)


def check_close(what, reported, expected):
    """|reported - expected| <= REL_TOL * |expected|."""
    if not abs(reported - expected) <= REL_TOL * abs(expected):
        raise CheckError(f"{what}: reported {reported!r}, recomputed {expected!r}")


def check_at_least(what, cost, optimum):
    if cost < optimum - REL_TOL * abs(optimum):
        raise CheckError(f"{what}: cost {cost!r} below the optimum {optimum!r}")


def check_bound(spec, objective, ratio):
    """The recomputed ratio is within the paper's bound; exact ratios
    (Fractions) are compared exactly."""
    bound = BOUNDS.get((spec, objective))
    if bound is None:
        return
    limit = bound if isinstance(ratio, Fraction) else float(bound) * (1 + REL_TOL)
    if ratio > limit:
        raise CheckError(f"{spec} {objective}: ratio {float(ratio)!r} above bound {bound}")


def check_branch_condition(agents, at):
    """At the miniSOS optimum no branch holds more distance mass than the
    rest: otherwise moving into it lowers the sum of squares."""
    masses, total = branch_masses(agents, at)
    for b, inside in masses.items():
        if inside > total - inside + REL_TOL * total:
            raise CheckError(
                f"miniSOS optimum {at}: branch toward {b} holds mass {inside!r} "
                f"of {total!r}")


def sos_optimum(agents, at):
    """The miniSOS cost at a claimed optimum ``at``, after checking that it
    meets the branch condition and that no node or agent location is
    cheaper."""
    check_branch_condition(agents, at)
    cost = aggregate("minisos", agents.dists_to(at))
    check_at_least("least sum of squares over nodes and agents",
                   best_candidate(agents, "minisos"), cost)
    return cost
