"""Property tests of distances, path steps, branches, subdivision, the
walks of the medians and of the miniSOS optimum, the branch condition, the
misreport sweeps and instance files on random trees, and of the CLI's exit
codes on arbitrary instance documents and specs."""

import contextlib
import io
import json
import os
import re
import tempfile
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, reject, settings, strategies as st  # noqa: E402

from treefacility import cli  # noqa: E402
from treefacility.generators import GeneratorConfig, generate  # noqa: E402
from treefacility.mechanisms import (  # noqa: E402
    DGM,
    Mechanism,
    MechanismError,
    RandomizedDGM,
    TreeMedian,
    parse_mechanism,
)
from treefacility.network import (  # noqa: E402
    ENDPOINT_SNAP,
    ROUND_TOL,
    LocationProfile,
    Point,
    instance_digest,
    instance_to_json,
    profile_from_json,
    subdivide,
)
from treefacility.objectives import weighted_average  # noqa: E402
from treefacility.verify import boomerang_check, sp_check  # noqa: E402

from oracles import (  # noqa: E402
    GenericSweep,
    anchor_distance,
    branches_at,
    reference_walk,
    sweep_minisos_point,
    verify_wavg_condition,
)

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
        return [Point.at_node(0)] * count
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
            out.append(Point.at_node(draw(st.integers(0, net.node_count - 1))))
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
        assert b in branches_at(net, p)


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
    assert TreeMedian().run(net, prof).the_point() == reference_walk(net, prof, None, lambda c: 2 * c > n)
    for q in (Fraction(3, 5), Fraction(2, 3), Fraction(1)):
        qualifies = lambda c: c * q.denominator >= q.numerator * n  # noqa: E731
        expected = [reference_walk(net, prof, i, qualifies) for i in range(n)]
        assert [DGM(i + 1, q).run(net, prof).the_point() for i in range(n)] == expected
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


@SETTINGS
@given(st.data())
def test_distance_is_a_metric(data):
    net = data.draw(trees())
    points = data.draw(mixed_points(net))
    for a in points:
        for b in points:
            d = net.distance(a, b)
            assert (d == 0.0) == (a == b)
            # Symmetric up to rounding: the two directions read the rows of
            # different nodes, which sum the path's lengths in other orders.
            assert abs(net.distance(b, a) - d) <= ROUND_TOL * (1 + d)
            for c in points:
                assert d <= net.distance(a, c) + net.distance(c, b) + ROUND_TOL * (1 + d)


@SETTINGS
@given(st.data())
def test_instances_round_trip_through_json(data):
    net = data.draw(trees())
    prof = LocationProfile(net, data.draw(mixed_points(net)))
    net2, prof2 = profile_from_json(json.loads(json.dumps(instance_to_json(net, prof))))
    assert (net2.node_count, net2.edges, tuple(prof2)) == (net.node_count, net.edges,
                                                           tuple(prof))
    assert instance_digest(net2, prof2) == instance_digest(net, prof)


# Families that override Mechanism.deviations: dictators and DGMs at agents
# 1 to 3 and at 40, beyond any profile drawn here, and DGMs with q = 1, where
# the other agents alone never hold need = n.
SWEEP_FAMILIES = [
    "median", "dictator:1", "dictator:3", "dgm:1:2/3", "dgm:2:3/5", "dgm:2:1", "dgm:40:2/3",
    "rdgm:3/5", "rdgm:2/3", "pb:[median,dgm:2:2/3]:[1/2,1/2]",
    "pb:[dictator:2,dgm:1:3/5,median]:[1/4,1/4,1/2]",
    "mix:[(median,1/2),(rd,1/2)]", "mix:[(rdgm:2/3,1/3),(dgm:1:1,2/3)]",
]
DETERMINISTIC = {"median", "dictator:1", "dictator:3", "dgm:1:2/3", "dgm:2:3/5", "dgm:2:1"}


@st.composite
def profiles(draw, net):
    """Agents on nodes only, or clustered points anywhere."""
    if draw(st.booleans()):
        nodes = draw(st.lists(st.integers(0, net.node_count - 1), min_size=1, max_size=7))
        return LocationProfile(net, [Point.at_node(v) for v in nodes])
    return LocationProfile(net, draw(clustered_points(net))[:7])


def near_misreports(net, prof):
    """Every agent's point, every node, points ±3e-13, ±1e-12 and ±2e-12
    from each interior agent, and points within 2e-12 of each end of the
    agents' edges."""
    out = list(dict.fromkeys(prof))
    out += [Point.at_node(v) for v in range(net.node_count)]
    for e in dict.fromkeys(x.edge for x in prof if not x.is_node):
        w = net.edges[e][2]
        for x in prof:
            if x.edge == e:
                out += [Point(edge=e, offset=x.offset + d) for d in (3e-13, 1e-12, 2e-12)
                        for d in (d, -d) if 0.0 < x.offset + d < w]
        out += [Point(edge=e, offset=t) for d in (1e-13, ENDPOINT_SNAP, 2e-12)
                for t in (d, w - d)]
    return out


def dump(outputs):
    return [[(as_hex(p), float.hex(q)) for p, q in dist] for dist in outputs]


@settings(SETTINGS, max_examples=60)
@given(st.data())
def test_deviation_sweeps_are_the_generic_loop_bit_for_bit(data):
    net = data.draw(trees())
    prof = data.draw(profiles(net))
    points = near_misreports(net, prof)
    for spec in SWEEP_FAMILIES:
        mech = parse_mechanism(spec)
        for i in range(len(prof)):
            try:
                expected = Mechanism.deviations(mech, net, prof, i, points)
            except MechanismError as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    mech.deviations(net, prof, i, points)
                continue
            got = mech.deviations(net, prof, i, points)
            assert got == expected
            assert dump(got) == dump(expected)


@settings(SETTINGS, max_examples=80)
@given(st.data())
def test_misreport_checks_report_what_the_generic_sweep_reports(data):
    net = data.draw(trees())
    prof = data.draw(profiles(net))
    mech = parse_mechanism(data.draw(st.sampled_from(SWEEP_FAMILIES)))
    try:
        mech.run(net, prof)
    except MechanismError:
        reject()  # an index beyond the profile
    checks = [(sp_check, "max_regret")]
    if mech.name in DETERMINISTIC:
        checks.append((boomerang_check, "max_violation"))
    for check, field in checks:
        got, expected = check(mech, net, prof), check(GenericSweep(mech), net, prof)
        assert (float.hex(getattr(got, field)), got.worst_case, got.tested_count) == (
            float.hex(getattr(expected, field)), expected.worst_case, expected.tested_count)


@SETTINGS
@given(st.data())
def test_weighted_average_meets_the_branch_condition(data):
    net = data.draw(trees())
    points = list(data.draw(profiles(net)))
    raw = data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(points), max_size=len(points)))
    weights = [x / sum(raw) for x in raw]
    y = weighted_average(net, points, weights)
    holds, report = verify_wavg_condition(net, y, points, weights)
    assert holds, report


# -- the CLI's exit codes ----------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=5)
SLOTS = ("document", "network", "nodes", "edges", "edge", "locations", "point", "offset")


@st.composite
def instance_docs(draw):
    """A generated instance as JSON with up to two of its slots (the whole
    document, the network, its nodes, its edges, one edge, the locations,
    one point, one offset) replaced by arbitrary JSON values."""
    net = draw(trees())
    doc = instance_to_json(net, LocationProfile(net, draw(mixed_points(net))))
    out, net_doc, edges, locs = doc, doc["network"], doc["network"]["edges"], doc["locations"]
    for slot in draw(st.lists(st.sampled_from(SLOTS), max_size=2, unique=True)):
        value = draw(JSON_VALUES)
        interior = [k for k, p in enumerate(locs) if isinstance(p, dict) and "offset" in p]
        if slot == "document":
            out = value
        elif slot in ("network", "locations"):
            doc[slot] = value
        elif slot in ("nodes", "edges"):
            net_doc[slot] = value
        elif slot == "edge" and edges:
            edges[draw(st.integers(0, len(edges) - 1))] = value
        elif slot == "point":
            locs[draw(st.integers(0, len(locs) - 1))] = value
        elif slot == "offset" and interior:
            locs[draw(st.sampled_from(interior))]["offset"] = value
    return out


GOOD_SPECS = ["dictator:2", "kth:n", "median", "dgm:1:2/3", "rd", "lrm", "half-avg-rd",
              "rdgm:2/3", "midpoints", "avg-only", "pb:[kth:1,kth:n]:[1/2,1/2]",
              "mix:[(median,1/2),(rd,1/2)]"]
SPEC_CHARS = "[](),:/.-0123456789eknmdiapbthrgx"
SPEC = st.sampled_from(GOOD_SPECS) | st.text(SPEC_CHARS, max_size=24) | st.builds(
    lambda spec, cut, junk: spec[:cut] + junk, st.sampled_from(GOOD_SPECS),
    st.integers(0, 30), st.text(SPEC_CHARS, max_size=4))


@settings(SETTINGS, max_examples=300)
@given(instance_docs(), SPEC, st.sampled_from(["minisos", "minisum", "minimax", "mean"]))
def test_eval_exits_0_1_or_2_with_one_error_line(doc, spec, objective):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["eval", f"--mech={spec}", "--instance", path,
                             "--objective", objective])
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


REPORT_KEYS = ("topology", "mechanism", "objective", "ratio")
GOOD_RECORDS = st.fixed_dictionaries({
    "digest": st.just("deadbeef0000"), "topology": st.sampled_from([None, *TOPOLOGIES]),
    "mechanism": st.sampled_from(["median", "rd", "half-avg-rd", "lrm"]) | st.text(max_size=3),
    "objective": st.sampled_from(["minisos", "minimax"]),
    "ratio": st.none() | st.floats(0, 3) | st.integers(0, 3), "seed": st.none()})
GOOD_LINES = st.builds(json.dumps, GOOD_RECORDS).map(str.encode)
# A line that may break a record file: a record with a key that `report`
# reads set to any JSON value (a NaN or infinite float dumps as a bare token)
# or dropped; any JSON value; deep nesting, long integers and broken tokens;
# or arbitrary bytes.
BROKEN_LINES = st.one_of(
    st.builds(lambda doc, key, value: json.dumps({**doc, key: value}),
              GOOD_RECORDS, st.sampled_from(REPORT_KEYS), JSON_VALUES),
    st.builds(lambda doc, key: json.dumps({k: v for k, v in doc.items() if k != key}),
              GOOD_RECORDS, st.sampled_from(REPORT_KEYS)),
    st.builds(json.dumps, JSON_VALUES),
).map(str.encode) | st.sampled_from([
    b"[" * 100_000, b"9" * 5000, b"NaN", b"-Infinity", b"{", b"",
    b'{"mechanism": "rd", "objective": "minisos", "topology": "line", "ratio": %s}' % (
        b"9" * 400),
]) | st.binary(max_size=8)


@settings(SETTINGS, max_examples=300)
@given(st.lists(GOOD_LINES, max_size=5), st.none() | BROKEN_LINES, st.integers(0, 5))
def test_report_exits_0_1_or_2_with_one_error_line(lines, broken, at):
    if broken is not None:
        lines.insert(at, broken)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.jsonl")
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["report", path])
    assert code in (0, 1, 2)
    if code == 2:
        (line,) = err.getvalue().splitlines()
        where = re.escape(path)
        assert re.fullmatch(rf"error: {where}(:\d+: malformed record \(.*\)|: no records)", line)
    else:
        assert err.getvalue() == ""
        assert all(isinstance(json.loads(line), dict) for line in out.getvalue().splitlines())
