"""Property tests of distances, path steps, branches, subdivision, the
walks of the medians and of the miniSOS optimum, the branch condition, the
misreport sweeps and instance files on random trees, and of the exit codes
of every CLI command on faulty command lines, instance documents and specs."""

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
from treefacility.generators import PLACEMENTS, GeneratorConfig, generate  # noqa: E402
from treefacility.mechanisms import (  # noqa: E402
    DGM,
    Mechanism,
    MechanismError,
    Mixture,
    RandomizedDGM,
    TreeMedian,
    parse_mechanism,
)
from treefacility.network import (  # noqa: E402
    ENDPOINT_SNAP,
    ROUND_TOL,
    SP_TOL,
    LocationProfile,
    Point,
    instance_digest,
    instance_to_json,
    profile_from_json,
    subdivide,
)
from treefacility.objectives import weighted_average  # noqa: E402
from treefacility.verify import (  # noqa: E402
    IDENTITY_CHECKS,
    WITNESS_EDGES,
    boomerang_check,
    sp_check,
)

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


@st.composite
def path_ends(draw, net):
    """Two points: each a node or an interior point, and sometimes two
    interior points of one edge."""
    ends = []
    for kind in draw(st.lists(st.sampled_from(["node", "interior", "same-edge"]),
                              min_size=2, max_size=2)):
        if kind == "node" or not net.edges:
            ends.append(Point.at_node(draw(st.integers(0, net.node_count - 1))))
            continue
        e = ends[0].edge if kind == "same-edge" and ends and not ends[0].is_node else draw(
            st.integers(0, len(net.edges) - 1))
        f = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        ends.append(net.point_on_edge(e, net.edges[e][2] * f))
    return ends


def far_end(net, a, q):
    """The far end of the step from a to the next point q of a path: q
    itself, or the end of q's edge that the step runs toward."""
    if q.is_node:
        return q.node
    u, v, _ = net.edges[q.edge]
    if a.is_node:
        return v if a.node == u else u
    return v if q.offset > a.offset else u


@SETTINGS
@given(st.data(), st.lists(st.floats(0.0, 1.0), max_size=4))
def test_point_along_path_and_branch_of_follow_the_steps(data, fractions):
    net = data.draw(trees())
    ends = data.draw(path_ends(net))
    for a, b in (ends, ends[::-1]):  # both directions
        d, path = net.distance(a, b), net.path(a, b)
        assert net.point_along_path(a, b, 0.0) == a
        assert net.point_along_path(a, b, d) == b
        for node in path[1:-1]:  # every step boundary
            assert net.point_along_path(a, b, net.distance(a, node)) == node
        for f in fractions:
            q = net.point_along_path(a, b, f * d)
            assert abs(net.distance(a, q) - f * d) <= ROUND_TOL
            assert abs(net.distance(a, q) + net.distance(q, b) - d) <= ROUND_TOL
        assert net.branch_of(a, b) == (far_end(net, a, path[1]) if a != b else None)


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
    # Interior points 0 to 2e-12 apart on one edge.
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
    # Two anchors share a node exactly when they are equal points.
    for p, v in zip(anchors, nodes):
        assert origin[v] == p
        assert v == p.node if p.is_node else v >= net.node_count
        for q, w in zip(anchors, nodes):
            assert (v == w) == (p == q)
            d_aug = aug.distance(Point.at_node(v), Point.at_node(w))
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


# -- the first theorem: every composition over boomerang members is SP ------


def positive_weights(draw, m):
    """m positive rationals that sum to 1, as spec text."""
    ks = draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
    return [str(Fraction(k, sum(ks))) for k in ks]


@st.composite
def pb_specs(draw, n, line):
    """A pb spec over 1 to 4 members: median, dictator:i and dgm:i:q with
    i <= n and q a rational in (1/2, 1], and on a line kth:k with k <= n."""
    kinds = ["median", "dictator", "dgm"] + ["kth"] * line
    members = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4)):
        i = draw(st.integers(1, n))
        if kind == "dgm":
            d = draw(st.integers(1, 12))
            kind += f":{i}:{Fraction(draw(st.integers(d // 2 + 1, d)), d)}"
        elif kind != "median":
            kind += f":{i}"
        members.append(kind)
    return f"pb:[{','.join(members)}]:[{','.join(positive_weights(draw, len(members)))}]"


@st.composite
def family_specs(draw, n, line):
    """A pb spec, or a mixture of two."""
    if draw(st.booleans()):
        return draw(pb_specs(n, line))
    a, b = draw(pb_specs(n, line)), draw(pb_specs(n, line))
    p, q = positive_weights(draw, 2)
    return f"mix:[({a},{p}),({b},{q})]"


@pytest.mark.parametrize("topology", TOPOLOGIES)
@settings(SETTINGS, max_examples=100)
@given(data=st.data())
def test_every_composition_over_boomerang_members_is_strategyproof(topology, data):
    """The paper's first theorem as a property: pb over any boomerang members
    with any weights, and any mixture of such, is SP on every tree, and each
    member meets the boomerang identity."""
    cfg = GeneratorConfig(topology=topology, max_nodes=8, max_agents=5,
                          placement=data.draw(st.sampled_from(PLACEMENTS)),
                          seed=data.draw(st.integers(0, 2 ** 32 - 1)))
    net, prof = next(generate(cfg, 1))
    mech = parse_mechanism(data.draw(family_specs(len(prof), topology == "line")))
    assert sp_check(mech, net, prof).max_regret <= SP_TOL
    pbs = [m for m, _ in mech.components] if isinstance(mech, Mixture) else [mech]
    for member in {m.name: m for pb in pbs for m in pb.members}.values():
        assert boomerang_check(member, net, prof).max_violation <= SP_TOL, member.name


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


def files(*names):
    """Names of the files that _fuzz_files makes, as ("file", name)."""
    return st.sampled_from([("file", name) for name in names])


# (valid, invalid) values of each flag: choices, ints of any sign and size,
# floats that are not finite or too large, spec strings, and files.  Valid
# sizes stay at 6 nodes and 4 agents and budgets at 2, as the default budgets
# of 50 to 2,000 would make an example slow; invalid sizes are huge, as
# MAX_COUNT rejects those before anything is allocated.
JUNK = st.sampled_from(["junk", "", "nan", "inf", "-inf", "1e400"])
HUGE = st.sampled_from([str(10 ** 6), str(10 ** 30), "-1", "0"]) | JUNK
FLAG_VALUES = {
    "--mech": (st.sampled_from(GOOD_SPECS), SPEC),
    "--objective": (st.sampled_from(["minisos", "MiniMax", "minisum"]),
                    st.sampled_from(["mean", ""])),
    "--instance": (files("instance"), files("records", "missing", "dir", "nul") | st.just("")),
    "--out": (files("out") | st.just("-"), files("dir", "nul", "missing/out") | st.just("")),
    "--budget": (st.sampled_from(["1", "2"]), st.sampled_from(["-1", "0", "junk"])),
    "--seed": (st.integers().map(str), JUNK),
    "--tolerance": (st.sampled_from(["0", "1e-7", "0.5"]), st.just("-1") | JUNK),
    "--topology": (st.sampled_from(TOPOLOGIES), st.just("grid") | JUNK),
    "--placement": (st.sampled_from(PLACEMENTS), st.just("bogus") | JUNK),
    # A valid minimum is at most the default minimum of 2, and a valid
    # maximum at least that.
    "--min-nodes": (st.sampled_from(["1", "2"]), HUGE),
    "--max-nodes": (st.integers(2, 6).map(str), HUGE),
    "--min-agents": (st.sampled_from(["1", "2"]), HUGE),
    "--max-agents": (st.integers(2, 4).map(str), HUGE),
    "--kind": {command: (st.sampled_from(sorted(kinds)),
                         st.sampled_from([*IDENTITY_CHECKS, *WITNESS_EDGES, "bogus"]).filter(
                             lambda kind, kinds=kinds: kind not in kinds) | JUNK)
               for command, kinds in [("lemma-check", IDENTITY_CHECKS),
                                      ("witness", WITNESS_EDGES)]},
    "--n": (st.sampled_from(["2", "4", "6"]), st.sampled_from(["3", "-2"]) | HUGE),
    "files": (st.lists(files("records", "over"), min_size=1, max_size=2),  # report's
              st.lists(files("records", "bad", "instance", "missing", "dir", "nul"), max_size=2)),
}
# Command -> (the flags it is always given unless broken, the flags it may be
# given).  --max-nodes and --max-agents keep generated instances small.
GENERATOR = ("--budget", "--max-nodes", "--max-agents")
MORE_GENERATOR = ("--seed", "--topology", "--min-nodes", "--min-agents", "--placement")
COMMAND_FLAGS = {
    "eval": (("--mech", "--instance"), ("--objective",)),
    "opt": (("--instance",), ("--objective",)),
    "sp-check": (("--mech", *GENERATOR), ("--instance", "--tolerance", "--out", *MORE_GENERATOR)),
    "boomerang-check": (("--mech", *GENERATOR),
                        ("--instance", "--tolerance", "--out", *MORE_GENERATOR)),
    "ratio": (("--mech", *GENERATOR), ("--instance", "--objective", "--out", *MORE_GENERATOR)),
    "search": (("--mech", *GENERATOR), ("--objective", "--out", *MORE_GENERATOR)),
    "lemma-check": (("--kind", "--budget"), ("--seed",)),
    "witness": (("--kind",), ("--n", "--out")),
    "generate": (GENERATOR, ("--out", *MORE_GENERATOR)),
    "report": (("files",), ("--out",)),
}
# Flags that no command takes and stray words; no "h", so no --help.
UNKNOWN = st.sampled_from(["--grid", "--bogus", "-x", "extra", "a\nb", "a\0b"]) | st.text(
    "-abcxyz0\n\0 ", max_size=6)
RECORD = {"digest": "deadbeef0000", "topology": "line", "mechanism": "rd",
          "objective": "minisos", "mech_cost": 3.0, "opt_cost": 2.0, "ratio": 1.5, "seed": 0}


@st.composite
def argvs(draw):
    """A command line with up to two faults.  A broken flag that the command
    is always given is dropped or given an invalid value, a broken optional
    flag an invalid value; other optional flags are given a valid value or
    not at all.  The fault "unknown" puts one or two unknown words anywhere."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    always, optional = COMMAND_FLAGS[command]
    broken = draw(st.lists(st.sampled_from([*always, *optional, "unknown"]), max_size=2,
                           unique=True))
    argv = [command]
    for flag in (*always, *optional):
        if flag in broken and flag in always and draw(st.booleans()):
            continue
        if flag in broken or flag in always or draw(st.booleans()):
            values = FLAG_VALUES[flag]
            value = draw((values[command] if flag == "--kind" else values)[flag in broken])
            argv += value if flag == "files" else [flag, value]
    if "unknown" in broken:
        for word in draw(st.lists(UNKNOWN, min_size=1, max_size=2)):
            argv.insert(draw(st.integers(1, len(argv))), word)
    return argv


def _fuzz_files(tmp, doc):
    """File name -> path: the instance document, ratio records within and
    over their bound, malformed records, a missing file, a directory and a
    path with a NUL."""
    paths = {name: os.path.join(tmp, name) for name in
             ("instance", "records", "over", "bad", "missing", "out", "missing/out")}
    with open(paths["instance"], "w") as fh:
        json.dump(doc, fh)
    with open(paths["records"], "w") as fh:
        fh.write(json.dumps(RECORD) + "\n" + json.dumps({**RECORD, "ratio": None}) + "\n")
    with open(paths["over"], "w") as fh:
        fh.write(json.dumps({**RECORD, "ratio": 2.5}) + "\n")
    with open(paths["bad"], "w") as fh:
        fh.write(json.dumps(RECORD) + "\n{\n")
    return {**paths, "dir": tmp, "nul": os.path.join(tmp, "a\0b")}


@settings(SETTINGS, max_examples=400)
@given(argvs(), instance_docs())
def test_every_command_exits_0_1_or_2_with_one_error_line(argv, doc):
    with tempfile.TemporaryDirectory() as tmp:
        paths = _fuzz_files(tmp, doc)
        argv = [paths[word[1]] if isinstance(word, tuple) else word for word in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
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
