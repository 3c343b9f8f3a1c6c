"""Property tests of distances, path steps, branches, subdivision and the
walks of the medians and of the miniSOS optimum on random trees."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from treefacility.generators import GeneratorConfig, generate  # noqa: E402
from treefacility.mechanisms import DGM, RandomizedDGM, TreeMedian  # noqa: E402
from treefacility.network import ENDPOINT_SNAP, LocationProfile, Point, subdivide  # noqa: E402
from treefacility.objectives import weighted_average  # noqa: E402

from oracles import anchor_distance, reference_walk, sweep_minisos_point  # noqa: E402

TOPOLOGIES = ("line", "star", "caterpillar", "random_tree")
GRID = 16  # points sit on a grid of edge sixteenths, so distinct points are far apart

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def trees(draw):
    topology = draw(st.sampled_from(TOPOLOGIES))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    cfg = GeneratorConfig(topology=topology, min_nodes=1, max_nodes=12, seed=seed)
    return next(generate(cfg, 1))[0]


def grid_points(draw, net, count):
    """Nodes and points at multiples of length/GRID along the edges."""
    if not net.edges:
        return [net.point_at_node(0)] * count
    out = []
    for _ in range(count):
        e = draw(st.integers(0, len(net.edges) - 1))
        k = draw(st.integers(0, GRID))
        out.append(net.point_on_edge(e, net.edges[e][2] * k / GRID))
    return out


@st.composite
def mixed_points(draw, net):
    """Nodes, interior points anywhere, points on an edge already used, and
    repeats of earlier points."""
    out = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["node", "interior", "shared-edge", "repeat"]))
        if kind == "repeat" and out:
            out.append(draw(st.sampled_from(out)))
        elif kind == "node" or not net.edges:
            out.append(net.point_at_node(draw(st.integers(0, net.node_count - 1))))
        else:
            used = [p.edge for p in out if not p.is_node]
            if kind == "shared-edge" and used:
                e = draw(st.sampled_from(used))
            else:
                e = draw(st.integers(0, len(net.edges) - 1))
            f = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
            out.append(net.point_on_edge(e, net.edges[e][2] * f))
    return out


@SETTINGS
@given(st.data())
def test_distances_are_the_anchor_formula_bit_for_bit(data):
    net = data.draw(trees())
    points = data.draw(mixed_points(net))
    for y in points:
        expected = [float.hex(anchor_distance(net, y, x)) for x in points]
        assert [float.hex(d) for d in net.distances_from(y, points)] == expected
        assert [float.hex(net.distance(y, x)) for x in points] == expected


@SETTINGS
@given(st.data(), st.floats(0.0, 1.0))
def test_point_along_path_splits_the_distance(data, f):
    net = data.draw(trees())
    a, b = grid_points(data.draw, net, 2)
    d = net.distance(a, b)
    p = net.point_along_path(a, b, f * d)
    tol = 1e-9 * (1 + d)
    assert net.distance(a, p) == pytest.approx(f * d, abs=tol)
    assert net.distance(p, b) == pytest.approx((1 - f) * d, abs=tol)


@SETTINGS
@given(st.data())
def test_branch_of_is_a_branch_at_p(data):
    net = data.draw(trees())
    p, x = grid_points(data.draw, net, 2)
    b = net.branch_of(p, x)
    if x == p:
        assert b is None
    else:
        assert b in net.branches_at(p)


@SETTINGS
@given(st.data())
def test_shared_branch_iff_the_path_avoids_p(data):
    net = data.draw(trees())
    p, x, y = grid_points(data.draw, net, 3)
    assume(p not in (x, y))
    detour = net.distance(x, p) + net.distance(p, y) > net.distance(x, y) + 1e-9
    assert (net.branch_of(p, x) == net.branch_of(p, y)) == detour


@SETTINGS
@given(st.data())
def test_subdivide_snaps_and_preserves_distances(data):
    net = data.draw(trees())
    anchors = grid_points(data.draw, net, data.draw(st.integers(0, 4)))
    # Clusters of interior points at most a few ENDPOINT_SNAP apart.
    if net.edges:
        for _ in range(data.draw(st.integers(0, 3))):
            e = data.draw(st.integers(0, len(net.edges) - 1))
            off = net.edges[e][2] * data.draw(st.integers(1, GRID - 1)) / GRID
            for gap in data.draw(st.lists(st.sampled_from([0.0, 3e-13, 1e-12, 2e-12]),
                                          max_size=4)):
                off += gap
                anchors.append(net.point_on_edge(e, off))
    aug, nodes, origin = subdivide(net, anchors)
    assert len(nodes) == len(anchors)
    node_of = dict(zip(anchors, nodes))
    # An interior anchor is kept when it is the first on its edge or lies
    # more than ENDPOINT_SNAP past the last kept offset; each other anchor
    # shares the node of the last kept offset before it.
    leader = {}
    for e in range(len(net.edges)):
        last = None
        for off in sorted({p.offset for p in anchors if p.edge == e}):
            if last is None or off - last > ENDPOINT_SNAP:
                last = off
            leader[e, off] = last
    for p, v in zip(anchors, nodes):
        if p.is_node:
            assert v == p.node
        else:
            assert v == node_of[Point(edge=p.edge, offset=leader[p.edge, p.offset])]
    kept = {p for p in anchors if p.is_node or leader[p.edge, p.offset] == p.offset}
    assert len({node_of[p] for p in kept}) == len(kept)
    for p in kept:
        assert origin[node_of[p]] == p
        for q in kept:
            d_aug = aug.distance(Point.at_node(node_of[p]), Point.at_node(node_of[q]))
            assert d_aug == pytest.approx(net.distance(p, q), abs=1e-12)


@st.composite
def clustered_points(draw, net):
    """Mixed points plus, on one edge, agents 0, 3e-13, 1e-12 or 2e-12
    apart, and hand-built interior points at most ENDPOINT_SNAP from an
    end (offsets ``point_on_edge`` would snap to the node) or just past it."""
    out = draw(mixed_points(net))
    if net.edges:
        e = draw(st.integers(0, len(net.edges) - 1))
        w = net.edges[e][2]
        off = w * draw(st.integers(1, GRID - 1)) / GRID
        for gap in draw(st.lists(st.sampled_from([0.0, 3e-13, 1e-12, 2e-12]), max_size=5)):
            off += gap
            out.append(net.point_on_edge(e, off))
        nears = st.sampled_from([1e-13, 5e-13, ENDPOINT_SNAP, 2e-12])
        for near in draw(st.lists(nears, max_size=3)):
            out.append(Point(edge=e, offset=near if draw(st.booleans()) else w - near))
    return draw(st.permutations(out))


@SETTINGS
@given(st.data())
def test_median_walks_match_the_subdivided_reference(data):
    net = data.draw(trees())
    prof = LocationProfile(net, data.draw(clustered_points(net)))
    n = len(prof)
    assert TreeMedian().point(net, prof) == reference_walk(net, prof, None, lambda c: 2 * c > n)
    for q in (Fraction(3, 5), Fraction(2, 3), Fraction(1)):
        qualifies = lambda c: c * q.denominator >= q.numerator * n  # noqa: E731
        expected = [reference_walk(net, prof, i, qualifies) for i in range(n)]
        assert [DGM(i + 1, q).point(net, prof) for i in range(n)] == expected
        if q <= Fraction(2, 3):
            assert RandomizedDGM(q).member_points(net, prof) == expected


def as_hex(p):
    return ("node", p.node) if p.is_node else ("edge", p.edge, float.hex(p.offset))


@SETTINGS
@given(st.data())
def test_minisos_descent_is_the_edge_sweep_bit_for_bit(data):
    net = data.draw(trees())
    points = data.draw(mixed_points(net))
    points += grid_points(data.draw, net, data.draw(st.integers(0, 4)))
    raw = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(points), max_size=len(points)))
    assume(sum(raw) > 0.0)
    weights = [x / sum(raw) for x in raw]
    assume(abs(sum(weights) - 1.0) <= 1e-9)
    for ws in (weights, [1.0 / len(points)] * len(points)):
        got = weighted_average(net, points, ws)
        if len(points) > 1:
            assert as_hex(got) == as_hex(sweep_minisos_point(net, points, ws))
