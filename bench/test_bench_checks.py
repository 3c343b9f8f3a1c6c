"""Tests of the benchmark's own checks: each accepts the program's correct
answers and rejects a wrong one.

    python3 -m pytest bench
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from treefacility.generators import GeneratorConfig, generate  # noqa: E402
from treefacility.network import Point  # noqa: E402
from treefacility.objectives import Objective, optimal_location  # noqa: E402
from treefacility.verify import deviation_points, sp_check  # noqa: E402


def docs(network, profile):
    return ([list(e) for e in network.edges], [p.to_json() for p in profile])


def random_instances(topology, count, seed, nodes=12, agents=6):
    cfg = GeneratorConfig(topology=topology, max_nodes=nodes, max_agents=agents, seed=seed)
    return list(generate(cfg, count))


# -- tree distances and characterizations ------------------------------------


def test_tree_distances_by_hand():
    # 0 -1- 1 -2- 2, and 1 -3- 3
    tree = ref.Tree(4, [(0, 1, 1.0), (1, 2, 2.0), (1, 3, 3.0)])
    mid = ("e", 1, 0.5)  # on edge 1-2, 0.5 from node 1
    rows = tree.node_dists(mid)
    assert rows == [1.5, 0.5, 1.5, 3.5]
    assert tree.dist(mid, rows, ("e", 2, 1.0)) == 1.5
    assert tree.dist(mid, rows, ("e", 1, 1.75)) == 1.25


def test_distances_match_the_program():
    for network, profile in random_instances("random_tree", 30, seed=7):
        edges, locs = docs(network, profile)
        agents = ref.Agents(ref.Tree(network.node_count, edges), locs)
        for x, row in zip(profile, agents.rows):
            for y in profile:
                assert agents.tree.dist(ref.point(x.to_json()), row, ref.point(y.to_json())) \
                    == pytest.approx(network.distance(x, y), rel=1e-12, abs=1e-12)


def test_minimax_and_minisum_optima_match_the_program():
    for network, profile in random_instances("random_tree", 30, seed=8):
        edges, locs = docs(network, profile)
        agents = ref.Agents(ref.Tree(network.node_count, edges), locs)
        _, mm = optimal_location(network, profile, Objective.MINIMAX)
        _, ms = optimal_location(network, profile, Objective.MINISUM)
        ref.check_close("minimax", mm, ref.minimax_optimum(agents))
        ref.check_close("minisum", ms, ref.best_candidate(agents, "minisum"))


def test_sos_optimum_accepts_the_program_and_rejects_it_moved_along_its_edge():
    moved_checked = 0
    for network, profile in random_instances("random_tree", 40, seed=9):
        edges, locs = docs(network, profile)
        agents = ref.Agents(ref.Tree(network.node_count, edges), locs)
        at, cost = optimal_location(network, profile, Objective.MINISOS)
        ref.check_close("miniSOS", cost, ref.sos_optimum(agents, ref.point(at.to_json())))
        if at.is_node:
            _, e = network.adjacency[at.node][0]
            u, _, w = network.edges[e]
            moved = ("e", e, 1e-3 * w if at.node == u else w - 1e-3 * w)
        else:
            w = network.edges[at.edge][2]
            shift = 1e-3 * w if at.offset < w / 2 else -1e-3 * w
            moved = ("e", at.edge, at.offset + shift)
        with pytest.raises(ref.CheckError):
            ref.sos_optimum(agents, moved)
        moved_checked += 1
    assert moved_checked == 40


def test_branch_condition_by_hand():
    # Star with three unit leaves, one agent at each leaf: the centre is the
    # optimum; a point 0.01 along an edge is not.
    tree = ref.Tree(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
    agents = ref.Agents(tree, [{"node": 1}, {"node": 2}, {"node": 3}])
    assert ref.sos_optimum(agents, ("n", 0)) == 3.0
    with pytest.raises(ref.CheckError):
        ref.check_branch_condition(agents, ("e", 0, 0.01))


def test_deviation_count_matches_the_default_set():
    for topology in ("line", "random_tree"):
        for network, profile in random_instances(topology, 20, seed=10):
            edges, locs = docs(network, profile)
            expected = len(profile) * (len(deviation_points(network, profile)) - 1)
            assert ref.deviation_count(network.node_count, edges, locs) == expected


# -- lines, exactly -----------------------------------------------------------


def test_line_closed_forms():
    for network, profile in random_instances("line", 50, seed=11):
        edges, locs = docs(network, profile)
        xs = ref.line_positions(network.node_count, edges, locs)
        if ref.line_optimum("minisos", xs) == 0:
            continue
        assert ref.line_ratio("rd", "minisos", xs) == 2
        assert ref.line_ratio("half-avg-rd", "minisos", xs) == Fraction(3, 2)
        assert ref.line_ratio("lrm", "minimax", xs) == Fraction(3, 2)
        # The coordinates agree with the program's, up to rounding.
        for x, c in zip(profile, xs):
            lo = min(network.coordinate_of(Point.at_node(i)) for i in range(network.node_count))
            assert float(c) == pytest.approx(network.coordinate_of(x) - lo, abs=1e-9)


def test_line_optimum_by_hand():
    xs = [Fraction(0), Fraction(1), Fraction(5)]
    assert ref.line_optimum("minisos", xs) == 2 ** 2 + 1 ** 2 + 3 ** 2
    assert ref.line_optimum("minisum", xs) == 5
    assert ref.line_optimum("minimax", xs) == Fraction(5, 2)


def test_half_avg_rd_ratio_slightly_high_is_rejected():
    ref.check_bound("half-avg-rd", "minisos", Fraction(3, 2))
    ref.check_close("ratio", 1.5, 1.5)
    with pytest.raises(ref.CheckError):
        ref.check_bound("half-avg-rd", "minisos", Fraction(1.5 + 1e-6))
    with pytest.raises(ref.CheckError):
        ref.check_close("ratio", 1.5 + 1e-6, 1.5)


def ratio_search_check(spec, objective, doc, printed, seed=0):
    search = workloads.RatioSearch(0, str(HERE))
    topology = "line" if spec in ("rd", "half-avg-rd", "lrm") else "random_tree"
    op = workloads.Op("search", spec, objective, seed, (topology, 100))
    search.check(op, (0, f"worst ratio: {printed} (instance x)\n", doc))


def test_ratio_search_check_end_to_end():
    [(network, profile)] = random_instances("line", 1, seed=12, agents=4)
    edges, locs = docs(network, profile)
    doc = {"network": {"nodes": network.node_count, "edges": edges}, "locations": locs}
    ratio_search_check("half-avg-rd", "minisos", doc, "1.500000000")
    with pytest.raises(ref.CheckError) as info:
        ratio_search_check("half-avg-rd", "minisos", doc, "1.500001000", seed=3)
    assert not isinstance(info.value, workloads.KnownFault)
    with pytest.raises(ref.CheckError):
        ratio_search_check("lrm", "minimax", doc, "1.500001000")
    [(network, profile)] = random_instances("random_tree", 1, seed=13)
    edges, locs = docs(network, profile)
    doc = {"network": {"nodes": network.node_count, "edges": edges}, "locations": locs}
    from treefacility.mechanisms import parse_mechanism
    from treefacility.verify import approx_ratio

    for objective in Objective:
        true = approx_ratio(parse_mechanism("median"), network, profile, objective).ratio
        ratio_search_check("median", objective.value, doc, f"{true:.9f}")
        with pytest.raises(ref.CheckError):
            ratio_search_check("median", objective.value, doc, f"{true * (1 + 1e-6):.9f}")


def test_known_fault_covers_only_the_named_searches_and_small_errors():
    [(network, profile)] = random_instances("random_tree", 1, seed=13)
    edges, locs = docs(network, profile)
    doc = {"network": {"nodes": network.node_count, "edges": edges}, "locations": locs}
    from treefacility.mechanisms import parse_mechanism
    from treefacility.verify import approx_ratio

    for spec in ("median", "rdgm:2/3"):
        true = approx_ratio(parse_mechanism(spec), network, profile, Objective.MINISOS).ratio
        # About the error the cancellation shows on the two reproducers.
        with pytest.raises(workloads.KnownFault):
            ratio_search_check(spec, "minisos", doc, f"{true * (1 + 3e-7):.9f}", seed=3)
        for printed, seed in ((true * (1 + 3e-7), 4), (true * (1 + 3e-6), 3)):
            with pytest.raises(ref.CheckError) as info:
                ratio_search_check(spec, "minisos", doc, f"{printed:.9f}", seed=seed)
            assert not isinstance(info.value, workloads.KnownFault)


# -- strategyproofness ---------------------------------------------------------


def test_regret_just_above_tolerance_is_rejected():
    ref.check_regret("median", 0.0)
    ref.check_regret("median", ref.SP_TOL)
    with pytest.raises(ref.CheckError):
        ref.check_regret("median", ref.SP_TOL + 1e-6)


def test_control_regret_is_exactly_one():
    ref.check_control_regret(1.0)
    for wrong in (0.0, 1.0 - 1e-6, 1.0 + 1e-6):
        with pytest.raises(ref.CheckError):
            ref.check_control_regret(wrong)


def test_sp_certify_check_on_program_reports():
    cert = workloads.SpCertify(5)
    ops = cert.round(0)
    for op in (ops[0], ops[-1]):  # kth:1 on a line, and the control
        _, _, report = cert.run(op)
        cert.check(op, report)
        report.max_regret += 1.0 if op.kind == "control" else ref.SP_TOL + 1e-6
        with pytest.raises(ref.CheckError):
            cert.check(op, report)
        report.tested_count -= 1
        with pytest.raises(ref.CheckError):
            cert.check(op, report)


# -- large trees ---------------------------------------------------------------


def test_large_tree_check_rejects_tampered_results():
    [(network, profile)] = random_instances("random_tree", 1, seed=14, nodes=30, agents=12)
    large = workloads.LargeTree(0)
    op = workloads.Op("instance", "all", "all", 0,
                      (network.node_count, network.edges, tuple(profile)))
    _, _, (outputs, optima) = large.run(op)
    large.check(op, (outputs, optima))
    for objective in ("minimax", "minisum", "minisos"):
        at, cost = optima[objective]
        bad = dict(optima, **{objective: (at, cost * (1 + 1e-6))})
        with pytest.raises(ref.CheckError):
            large.check(op, (outputs, bad))
    support, costs = outputs["rdgm:2/3"]
    bad = dict(outputs, **{"rdgm:2/3": (support, dict(costs, minisum=costs["minisum"] * (1 + 1e-6)))})
    with pytest.raises(ref.CheckError):
        large.check(op, (bad, optima))


# -- tracing -------------------------------------------------------------------


def test_tracer_wraps_every_import_and_restores_it():
    from treefacility import mechanisms, objectives, verify

    original = objectives.optimal_location
    tracer = tracing.Tracer()
    tracer.install(workloads)
    try:
        assert mechanisms.optimal_location is not original
        assert verify.optimal_location is mechanisms.optimal_location
        assert workloads.optimal_location is mechanisms.optimal_location
        tracer.active = True
        [(network, profile)] = random_instances("random_tree", 1, seed=15)
        sp_check(mechanisms.parse_mechanism("avg-only"), network, profile)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert mechanisms.optimal_location is original
    assert verify.optimal_location is original
    found = tracer.self_times()
    calls, self_s = found["objectives.optimal_location.minisos"]
    assert calls == found["mechanisms.run.avg-only"][0] > 0
    # Self times add up to the root span's duration.
    roots = [i for i in range(len(tracer.start)) if tracer.parent[i] < 0]
    total = sum(tracer.end[i] - tracer.start[i] for i in roots)
    assert sum(s for _, s in found.values()) == pytest.approx(total, rel=1e-9)


def test_tracer_self_time_subtracts_children():
    tracer = tracing.Tracer()
    outer, inner = tracer._id("outer"), tracer._id("inner")
    for name_id, parent, start, end in ((outer, -1, 0.0, 10.0), (inner, 0, 1.0, 4.0),
                                        (inner, 0, 5.0, 6.0)):
        tracer.name_id.append(name_id)
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
    assert tracer.self_times() == {"outer": (1, 6.0), "inner": (2, 4.0)}


def test_same_seed_same_inputs():
    def seeds(seed):
        return [op.seed for op in workloads.RatioSearch(seed, str(HERE)).round(5)]

    assert seeds(3) == seeds(3) != seeds(4)
    x, y = workloads.SpCertify(7), workloads.SpCertify(7)
    assert [op.data for op in x.round(1)] == [op.data for op in y.round(1)]
