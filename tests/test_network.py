import ast
import copy
import math
import pickle
import random
import re
import tokenize
from pathlib import Path

import pytest

from treefacility import network as network_module
from treefacility.generators import GeneratorConfig, generate, random_point
from treefacility.network import (
    LocationProfile,
    NetworkError,
    NotALineError,
    Point,
    TreeNetwork,
    network_from_json,
    point_from_json,
    profile_from_json,
    subdivide,
)
from treefacility.mechanisms import RandomDictator
from treefacility.objectives import Objective, expected_social_cost, social_cost, weighted_average

from conftest import line_net, profile, run_capped, star_net
from oracles import branches_at, scan_point_at_coordinate


class TestValidate:
    def test_smallest_tree(self):
        net = TreeNetwork(2, [(0, 1, 1.0)])
        assert net.node_count == 2
        assert net.total_length() == 1.0

    def test_triangle_is_cyclic(self):
        with pytest.raises(NetworkError, match="3 edges on 3 nodes: the graph contains a cycle"):
            TreeNetwork(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])

    def test_missing_edge_is_disconnected(self):
        with pytest.raises(NetworkError, match="1 edges cannot connect 3 nodes"):
            TreeNetwork(3, [(0, 1, 1)])

    def test_too_few_edges_rejected_before_allocating(self):
        # 10**20 adjacency lists would not fit in memory.
        done = run_capped("from treefacility.network import NetworkError, TreeNetwork\n"
                          "try:\n    TreeNetwork(10**20, [])\n"
                          "except NetworkError as exc:\n    print(exc)\n")
        assert done.stdout == f"0 edges cannot connect {10**20} nodes (a tree has node_count - 1 edges)\n", \
            done.stderr

    def test_right_edge_count_wrong_wiring(self):
        with pytest.raises(NetworkError, match="duplicate edge between 0 and 1"):
            TreeNetwork(4, [(0, 1, 1), (0, 1, 2), (2, 3, 1)])

    def test_nonpositive_length(self):
        for w in (0.0, -3.0, float("inf"), float("-inf"), float("nan")):
            with pytest.raises(NetworkError, match=re.escape(
                    f"edge (0, 1) has length {w}: a length must be finite and positive")):
                TreeNetwork(2, [(0, 1, w)])

    def test_bad_node_id(self):
        with pytest.raises(NetworkError, match=r"edge \(0, 5\) references a node outside 0..1"):
            TreeNetwork(2, [(0, 5, 1.0)])

    def test_single_node(self):
        net = TreeNetwork(1, [])
        assert net.node_count == 1

    def test_total_length_adds_left_to_right(self):
        # From Python 3.12 on sum() compensates and would give 1 + 2**-52;
        # the generator's stream draws along the left-to-right total.
        net = TreeNetwork(4, [(0, 1, 1.0), (1, 2, 2.0**-53), (2, 3, 2.0**-53)])
        assert net.total_length() == 1.0


class TestDistanceRows:
    """Distances read one cached BFS row per node; no all-pairs table."""

    @pytest.fixture
    def big(self):
        cfg = GeneratorConfig(min_nodes=1000, max_nodes=1000, min_agents=50,
                              max_agents=50, seed=11)
        return next(generate(cfg, 1))

    @staticmethod
    def count_rows(monkeypatch):
        calls = []
        bfs = TreeNetwork._bfs

        def counting(self, source):
            calls.append(source)
            return bfs(self, source)

        monkeypatch.setattr(TreeNetwork, "_bfs", counting)
        return calls

    def test_cost_at_a_node_reads_one_row(self, big, monkeypatch):
        net, prof = big
        calls = self.count_rows(monkeypatch)
        social_cost(net, Point.at_node(17), prof)
        assert calls == [17]
        social_cost(net, Point.at_node(17), prof)
        assert calls == [17]

    def test_expected_costs_read_no_row_per_support_point(self, monkeypatch):
        # rd's 200-point output: miniSOS and minisum read one moments table,
        # and minimax the rows of the agents' farthest pair and of agent 0.
        cfg = GeneratorConfig(min_nodes=1000, max_nodes=1000, min_agents=200,
                              max_agents=200, seed=1)
        net, prof = next(generate(cfg, 1))
        dist = RandomDictator().run(net, prof)
        calls = self.count_rows(monkeypatch)
        expected_social_cost(net, dist, prof, Objective.MINISOS)
        expected_social_cost(net, dist, prof, Objective.MINISUM)
        assert calls == []
        expected_social_cost(net, dist, prof, Objective.MINIMAX)
        assert len(calls) <= 6

    def test_interior_minisos_optimum_reads_its_edge_rows(self, monkeypatch):
        cfg = GeneratorConfig(topology="caterpillar", min_nodes=1000, max_nodes=1000,
                              min_agents=200, max_agents=200, seed=1)
        net, prof = next(generate(cfg, 1))
        calls = self.count_rows(monkeypatch)
        point = weighted_average(net, prof, [1.0 / len(prof)] * len(prof))
        assert not point.is_node
        assert sorted(calls) == sorted(net.edges[point.edge][:2])

    def test_cost_at_an_interior_point_reads_two_rows(self, big, monkeypatch):
        net, prof = big
        calls = self.count_rows(monkeypatch)
        y = net.point_on_edge(5, net.edges[5][2] / 3)
        social_cost(net, y, prof)
        assert sorted(calls) == sorted(net.edges[5][:2])
        social_cost(net, y, prof)
        assert len(calls) == 2


class TestDistance:
    def test_path_graph(self, unit_line3):
        assert unit_line3.distance(Point.at_node(0), Point.at_node(2)) == 2.0

    def test_offset_arithmetic(self, unit_line3):
        q = unit_line3.point_on_edge(0, 0.25)
        assert unit_line3.distance(q, Point.at_node(2)) == pytest.approx(1.75, abs=1e-12)

    def test_through_star_center(self):
        star = star_net(3)
        assert star.distance(Point.at_node(1), Point.at_node(2)) == 2.0

    def test_same_edge_interiors(self, unit_line3):
        a = unit_line3.point_on_edge(1, 0.2)
        b = unit_line3.point_on_edge(1, 0.9)
        assert unit_line3.distance(a, b) == pytest.approx(0.7, abs=1e-12)

    def test_metric_axioms_random(self, rng):
        cfg = GeneratorConfig(max_nodes=12, seed=5)
        for net, _ in generate(cfg, 10):
            pts = [random_point(rng, net) for _ in range(6)]
            for a in pts:
                for b in pts:
                    dab = net.distance(a, b)
                    assert dab >= 0
                    assert abs(dab - net.distance(b, a)) <= 1e-12
                    if a == b:
                        assert dab == 0.0
                    for c in pts:
                        assert dab <= net.distance(a, c) + net.distance(c, b) + 1e-12

    def test_invalid_point(self, unit_line3):
        with pytest.raises(NetworkError, match="node 7 not in 0..2"):
            unit_line3.distance(Point.at_node(7), Point.at_node(0))
        with pytest.raises(NetworkError, match="offset 5.0 not interior to edge 0"):
            unit_line3.distance(Point(edge=0, offset=5.0), Point.at_node(0))


class TestPath:
    def test_identity(self, unit_line3):
        a = unit_line3.point_on_edge(0, 0.5)
        assert unit_line3.path(a, a) == [a]

    def test_node_to_node(self, unit_line3):
        pts = unit_line3.path(Point.at_node(0), Point.at_node(2))
        assert [p.node for p in pts] == [0, 1, 2]

    def test_star_leaf_to_leaf(self):
        star = star_net(3)
        pts = star.path(Point.at_node(1), Point.at_node(2))
        assert [p.node for p in pts] == [1, 0, 2]

    def test_segment_lengths_sum_to_distance(self, rng):
        cfg = GeneratorConfig(max_nodes=15, seed=9)
        for net, _ in generate(cfg, 10):
            a, b = random_point(rng, net), random_point(rng, net)
            pts = net.path(a, b)
            total = sum(net.distance(p, q) for p, q in zip(pts, pts[1:]))
            assert total == pytest.approx(net.distance(a, b), abs=1e-12)

    def test_node_paths_match_networkx(self):
        nx = pytest.importorskip("networkx")
        for topology in ("line", "star", "caterpillar", "random_tree"):
            cfg = GeneratorConfig(topology=topology, min_nodes=1, max_nodes=12, seed=31)
            for net, _ in generate(cfg, 5):
                g = nx.Graph()
                g.add_nodes_from(range(net.node_count))
                g.add_edges_from((u, v) for u, v, _ in net.edges)
                # Every ordered pair: a == b, and node 0 with every other
                # node as an ancestor/descendant pair of the rooted tree.
                for a in range(net.node_count):
                    for b in range(net.node_count):
                        pts = net.path(Point.at_node(a), Point.at_node(b))
                        assert [p.node for p in pts] == nx.shortest_path(g, a, b)

    def test_node_rows_match_networkx(self):
        nx = pytest.importorskip("networkx")
        for topology in ("line", "star", "caterpillar", "random_tree"):
            cfg = GeneratorConfig(topology=topology, min_nodes=1, max_nodes=40, seed=37)
            for net, _ in generate(cfg, 5):
                g = nx.Graph()
                g.add_nodes_from(range(net.node_count))
                g.add_weighted_edges_from(net.edges)
                for s in range(net.node_count):
                    want = nx.single_source_dijkstra_path_length(g, s)
                    # Both sum the edge lengths outward from s along the
                    # unique path, so the floats agree exactly.
                    assert net.node_distances(s) == [want[v] for v in range(net.node_count)]

    def test_interior_point_leaves_through_the_end_toward_b(self):
        # A short offset on a long edge: comparing float sums of the two
        # ways out loses the offset and used to leave through node 0.
        net = TreeNetwork(3, [(0, 1, 1e10), (1, 2, 1.0)])
        a, c = net.point_on_edge(0, 1e-7), Point.at_node(2)
        assert net.path(a, c) == [a, Point.at_node(1), c]
        assert net.path(c, a) == [c, Point.at_node(1), a]
        assert net.branch_of(a, c) == 1
        assert net.branch_of(a, Point.at_node(0)) == 0

    def test_point_along_path(self, unit_line3):
        a, b = Point.at_node(0), Point.at_node(2)
        mid = unit_line3.point_along_path(a, b, 1.5)
        assert unit_line3.distance(a, mid) == pytest.approx(1.5, abs=1e-12)


def subtrees_at(net, p, prof):
    """Partition the profile's agents into the branches at p, as a list of
    (branch, agent indices); agents located exactly at p are in none."""
    buckets = {b: [] for b in branches_at(net, p)}
    for i, x in enumerate(prof):
        b = net.branch_of(p, x)
        if b is not None:
            buckets[b].append(i)
    return list(buckets.items())


class TestSubtrees:
    def test_line_split(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(2))
        parts = subtrees_at(unit_line3, Point.at_node(1), prof)
        sizes = sorted(len(members) for _, members in parts)
        assert sizes == [1, 1]

    def test_star_center(self):
        star = star_net(3)
        prof = profile(star, *[Point.at_node(i) for i in (1, 2, 3)])
        parts = subtrees_at(star, Point.at_node(0), prof)
        assert sorted(len(m) for _, m in parts) == [1, 1, 1]

    def test_agent_at_anchor_in_no_branch(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(1), Point.at_node(2))
        parts = subtrees_at(unit_line3, Point.at_node(1), prof)
        assigned = [i for _, members in parts for i in members]
        assert assigned == [1]

    def test_interior_anchor_two_branches(self, unit_line3):
        p = unit_line3.point_on_edge(0, 0.5)
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(2))
        parts = subtrees_at(unit_line3, p, prof)
        assert len(parts) == 2
        assert sorted(len(m) for _, m in parts) == [1, 1]

    def test_partition_property_random(self, rng):
        cfg = GeneratorConfig(max_nodes=12, max_agents=8, seed=3)
        for net, prof in generate(cfg, 10):
            p = random_point(rng, net)
            parts = subtrees_at(net, p, prof)
            assigned = sorted(i for _, members in parts for i in members)
            expected = [i for i, x in enumerate(prof) if x != p]
            assert assigned == expected


class TestSubdivide:
    def test_node_anchors_noop(self, unit_line3):
        aug, nodes, _ = subdivide(unit_line3, [Point.at_node(0), Point.at_node(2)])
        assert nodes == [0, 2]
        assert aug.node_count == unit_line3.node_count
        assert aug.edges == unit_line3.edges

    def test_midpoint_split(self):
        net = line_net(2.0)
        aug, _, _ = subdivide(net, [net.point_on_edge(0, 1.0)])
        assert aug.node_count == 3
        assert sorted(w for _, _, w in aug.edges) == [1.0, 1.0]

    def test_isometry_random_pairs(self, rng):
        cfg = GeneratorConfig(max_nodes=10, seed=17)
        net, _ = next(generate(cfg, 1))
        anchors = [random_point(rng, net) for _ in range(5)]
        pairs = [(random_point(rng, net), random_point(rng, net)) for _ in range(100)]
        aug, nodes, _ = subdivide(net, anchors + [p for pair in pairs for p in pair])
        for k, (a, b) in enumerate(pairs):
            da = net.distance(a, b)
            na, nb = nodes[5 + 2 * k], nodes[6 + 2 * k]
            db = aug.distance(Point.at_node(na), Point.at_node(nb))
            assert da == pytest.approx(db, abs=1e-12)

    def test_round_trip(self, rng):
        net = line_net(1.0, 2.0, 0.5)
        anchors = [net.point_on_edge(1, 0.7), net.point_on_edge(2, 0.1)]
        aug, nodes, origin = subdivide(net, anchors)
        for p, v in zip(anchors, nodes):
            assert v >= net.node_count
            assert origin[v] == p


class TestProfile:
    def test_replace_checks_the_new_point(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(2))
        with pytest.raises(NetworkError, match="offset 5.0 not interior to edge 0"):
            prof.replace(unit_line3, 1, Point(edge=0, offset=5.0))
        with pytest.raises(NetworkError, match="node 7 not in 0..2"):
            prof.replace(unit_line3, 0, Point.at_node(7))
        moved = prof.replace(unit_line3, 1, Point.at_node(1))
        assert isinstance(moved, LocationProfile)
        assert list(moved) == [Point.at_node(0), Point.at_node(1)]
        assert list(prof) == [Point.at_node(0), Point.at_node(2)]

    def test_copies_and_pickles(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point(edge=1, offset=0.25))
        for out in (copy.copy(prof), copy.deepcopy(prof), pickle.loads(pickle.dumps(prof))):
            assert type(out) is LocationProfile and out == prof


class TestLineHelpers:
    def test_coordinates(self):
        net = line_net(1.0, 2.0)
        assert [net.coordinate_of(Point.at_node(i)) for i in range(3)] == [0.0, 1.0, 3.0]
        assert net.coordinate_of(net.point_on_edge(1, 0.5)) == pytest.approx(1.5)
        p = net.point_at_coordinate(1.5)
        assert net.coordinate_of(p) == pytest.approx(1.5)

    def test_point_at_coordinate_is_the_scan(self):
        # Lines with node 0 inside them, and edges shorter than ENDPOINT_SNAP
        # so that several nodes lie within it of one coordinate.
        lines = [net for net, _ in generate(GeneratorConfig(topology="line", min_nodes=1,
                                                            max_nodes=9, seed=43), 20)]
        lines.append(TreeNetwork(4, [(1, 0, 1.0), (0, 3, 4e-13), (3, 2, 2.0)]))
        lines.append(TreeNetwork(5, [(4, 2, 1.0), (2, 0, 3e-13), (0, 3, 2e-13), (3, 1, 0.5)]))
        for net in lines:
            coords = [net.coordinate_of(Point.at_node(i)) for i in range(net.node_count)]
            probes = [c + d for c in coords for d in (0.0, 1e-13, -1e-13, 5e-13, -5e-13,
                                                       1e-12, -1e-12, 2e-12, -2e-12)]
            probes += [(coords[u] + coords[v]) / 2 for u, v, _ in net.edges]
            for c in probes:
                try:
                    want = scan_point_at_coordinate(net, c)
                except NetworkError:
                    with pytest.raises(NetworkError, match="outside the network"):
                        net.point_at_coordinate(c)
                    continue
                got = net.point_at_coordinate(c)
                assert (got.node, got.edge, float.hex(got.offset)) == \
                    (want.node, want.edge, float.hex(want.offset))

    def test_not_a_line(self):
        star = star_net(3)
        with pytest.raises(NotALineError):
            star.coordinate_of(Point.at_node(1))
        with pytest.raises(NotALineError):
            star.point_at_coordinate(0.0)


class TestFileFormats:
    def test_round_trip(self):
        net = line_net(1.0, 2.5)
        doc = net.to_json()
        assert network_from_json(doc).to_json() == net.to_json()

    def test_profile_parse(self):
        doc = {
            "network": {"nodes": 2, "edges": [[0, 1, 2.0]]},
            "locations": [{"node": 0}, {"edge": 0, "offset": 0.5}],
        }
        net, prof = profile_from_json(doc)
        assert len(prof) == 2

    def test_rejects_noncanonical_offset(self):
        net = line_net(2.0)
        with pytest.raises(NetworkError, match=r"offset 2.0 must lie strictly inside") as err:
            point_from_json(net, {"edge": 0, "offset": 2.0}, where="locations[3]")
        assert "locations[3]" in str(err.value)
        with pytest.raises(NetworkError, match=r"locations\[0\]: offset 0.0 must lie strictly inside"):
            point_from_json(net, {"edge": 0, "offset": 0.0}, where="locations[0]")
        with pytest.raises(NetworkError, match="node 2 not in 0..1"):
            point_from_json(net, {"node": 2})


class TestTolerances:
    NAMES = ("ENDPOINT_SNAP", "ROUND_TOL", "SP_TOL", "BOUND_TOL")

    def test_exponent_literals_only_in_the_tolerance_block(self):
        """Every literal such as 1e-9 in the package is one of the four
        assignments in network.py's tolerance block; any other comparison
        reads one of those names."""
        sites = []
        for path in sorted(Path(network_module.__file__).parent.glob("*.py")):
            with open(path, "rb") as fh:
                for tok in tokenize.tokenize(fh.readline):
                    if tok.type == tokenize.NUMBER and re.fullmatch(
                            r"[0-9_.]+[eE][-+]?[0-9_]+", tok.string):
                        sites.append((path.name, tok.line.strip()))
        block = [(f, line) for f, line in sites
                 if f == "network.py" and re.fullmatch(r"(\w+) = [0-9.e-]+", line)
                 and line.split(" = ")[0] in self.NAMES]
        assert [s for s in sites if s not in block] == []
        assert [line.split(" = ")[0] for _, line in block] == list(self.NAMES)


class TestImports:
    def test_every_imported_name_is_read(self):
        """No module of the package imports a name it never reads, so the
        package root, which exports only __version__, imports nothing."""
        unused = []
        for path in sorted(Path(network_module.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=path.name)
            read = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            imported = [alias.asname or alias.name.split(".")[0]
                        for node in ast.walk(tree)
                        if isinstance(node, (ast.Import, ast.ImportFrom))
                        and getattr(node, "module", None) != "__future__"
                        for alias in node.names]
            unused += [(path.name, name) for name in imported if name not in read]
        assert unused == []

    def test_every_definition_is_read(self):
        """Every function, method and class the package defines is read
        somewhere in the package, so no public API serves only the tests.
        A method counts as read only through an attribute, as a local
        variable may share its name; anything else through a name or an
        attribute (``V.sp_check``), but not an attribute of a module bound by
        an ``import`` statement: ``os.path`` does not read
        ``TreeNetwork.path``.  Python calls dunder methods itself.  The two
        exceptions are subdivide and TreeNetwork.path, kept only because the
        benchmark's tracer wraps them by name."""
        nodes = [node for path in sorted(Path(network_module.__file__).parent.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(), filename=path.name))]
        names = {node.id for node in nodes
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        modules = {alias.asname or alias.name.split(".")[0] for node in nodes
                   if isinstance(node, ast.Import) for alias in node.names}
        attrs = {node.attr for node in nodes
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                 and not (isinstance(node.value, ast.Name) and node.value.id in modules)}
        methods = {d.name for node in nodes if isinstance(node, ast.ClassDef)
                   for d in node.body if isinstance(d, ast.FunctionDef)}
        unread = {node.name for node in nodes
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("__") and node.name not in attrs
                  and (node.name in methods or node.name not in names)}
        assert unread == {"subdivide", "path"}
