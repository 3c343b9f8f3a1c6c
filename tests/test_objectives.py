import random

import pytest

from treefacility.generators import PLACEMENTS, TOPOLOGIES, GeneratorConfig, generate, random_point
from treefacility.mechanisms import RandomDictator, parse_mechanism
from treefacility.network import LocationProfile, Point
from treefacility.objectives import (
    DistributionInvalidError,
    Objective,
    expected_agent_cost,
    expected_social_cost,
    make_distribution,
    optimal_location,
    point_mass,
    social_cost,
    weighted_average,
)
from treefacility.verify import check_wavg_movement

from conftest import line_net, profile, star_net
from oracles import grid_optimum, sweep_minisos_point, verify_wavg_condition


def uniform(m):
    return [1.0 / m] * m


class TestSocialCost:
    def test_minisos_center(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(2))
        assert social_cost(unit_line3, Point.at_node(1), prof) == 2.0

    def test_minisos_endpoint(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(2))
        assert social_cost(unit_line3, Point.at_node(0), prof) == 4.0

    def test_minimax(self):
        net = line_net(2.0, 2.0)
        prof = profile(net, Point.at_node(0), Point.at_node(2))
        assert social_cost(net, Point.at_node(1), prof, Objective.MINIMAX) == 2.0

    def test_minisum(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(2))
        assert social_cost(unit_line3, Point.at_node(1), prof, Objective.MINISUM) == 2.0


class TestExpectedCosts:
    def test_point_mass_degenerates(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(2))
        d = point_mass(Point.at_node(1))
        assert expected_social_cost(unit_line3, d, prof) == social_cost(
            unit_line3, Point.at_node(1), prof
        )

    def test_random_dictator_cost(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(2))
        d = make_distribution([(Point.at_node(0), 0.5), (Point.at_node(2), 0.5)])
        assert expected_social_cost(unit_line3, d, prof) == 4.0

    def test_mixed_distribution_cost(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(2))
        d = make_distribution([
            (Point.at_node(1), 0.5),
            (Point.at_node(0), 0.25),
            (Point.at_node(2), 0.25),
        ])
        assert expected_social_cost(unit_line3, d, prof) == 3.0

    def test_mixed_distribution_cost_sampling_crosscheck(self, unit_line3, rng):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(2))
        pts = [Point.at_node(1), Point.at_node(0), Point.at_node(2)]
        probs = [0.5, 0.25, 0.25]
        d = make_distribution(zip(pts, probs))
        exact = expected_social_cost(unit_line3, d, prof)
        samples = rng.choices(pts, probs, k=40000)
        est = sum(social_cost(unit_line3, y, prof) for y in samples) / len(samples)
        assert est == pytest.approx(exact, rel=0.05)

    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_table_costs_match_the_rows(self, topology, placement):
        # A support of two or more points reads one moments table (miniSOS,
        # minisum) or the farthest pair (minimax); the rows' sum is the oracle.
        cfg = GeneratorConfig(topology=topology, placement=placement, max_nodes=20,
                              max_agents=12, seed=5)
        specs = ["rd", "half-avg-rd", "rdgm:2/3"] + ["lrm", "midpoints"] * (topology == "line")
        checked = 0
        for net, prof in generate(cfg, 40):
            for spec in specs:
                dist = parse_mechanism(spec).run(net, prof)
                for objective in Objective if len(dist) > 1 else ():
                    want = sum(p * social_cost(net, y, prof, objective) for y, p in dist)
                    got = expected_social_cost(net, dist, prof, objective)
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
                    checked += 1
        assert checked >= 200

    @pytest.mark.parametrize("on_nodes", [False, True], ids=["inside-an-edge", "at-nodes"])
    def test_clustered_agents_far_from_node_0_keep_their_precision(self, on_nodes):
        # Agents 1e-9 apart, 1e6 from node 0: sums about node 0 that were
        # subtracted would cancel every digit of these costs.
        if on_nodes:
            net = line_net(1e6, 1e-9, 1e-9, 1e-9)
            prof = profile(net, *(Point.at_node(i) for i in (1, 2, 3, 4)))
        else:
            net = line_net(1e6, 1.0)
            prof = profile(net, *(Point(edge=1, offset=0.5 + k * 1e-9) for k in range(4)))
        dist = RandomDictator().run(net, prof)
        assert len(dist) == 4
        for objective in Objective:
            want = sum(p * social_cost(net, y, prof, objective) for y, p in dist)
            assert 0.0 < want < 1e-8
            got = expected_social_cost(net, dist, prof, objective)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_agent_cost_zero_at_point_mass(self, unit_line3):
        p = unit_line3.point_on_edge(1, 0.3)
        assert expected_agent_cost(unit_line3, point_mass(p), p) == 0.0

    def test_agent_cost_two_point(self, unit_line3):
        d = make_distribution([(Point.at_node(0), 0.5), (Point.at_node(2), 0.5)])
        assert expected_agent_cost(unit_line3, d, Point.at_node(0)) == 1.0

    def test_agent_cost_lrm_style(self):
        net = line_net(2.0, 2.0)  # coordinates 0, 2, 4
        d = make_distribution([
            (Point.at_node(0), 0.25),
            (Point.at_node(2), 0.25),
            (Point.at_node(1), 0.5),
        ])
        assert expected_agent_cost(net, d, Point.at_node(0)) == 2.0

    def test_bad_distribution(self):
        with pytest.raises(DistributionInvalidError):
            make_distribution([(Point.at_node(0), 0.7)])
        with pytest.raises(DistributionInvalidError):
            make_distribution([(Point.at_node(0), 1.4), (Point.at_node(1), -0.4)])

    def test_duplicate_support_merges(self):
        d = make_distribution([(Point.at_node(0), 0.5), (Point.at_node(0), 0.5)])
        assert len(d) == 1


class TestWeightedAverage:
    def test_single_location(self, unit_line3):
        p = unit_line3.point_on_edge(0, 0.3)
        assert weighted_average(unit_line3, [p], [1.0]) == p

    def test_star_tips_meet_at_center(self):
        star = star_net(3)
        tips = [Point.at_node(i) for i in (1, 2, 3)]
        out = weighted_average(star, tips, uniform(3))
        assert out == Point.at_node(0)
        holds, report = verify_wavg_condition(star, out, tips, uniform(3))
        assert holds
        for _, inside, outside in report:
            assert inside <= outside + 1e-9

    def test_line_pair_average(self, unit_line3):
        out = weighted_average(unit_line3, [Point.at_node(0), Point.at_node(2)], [0.5, 0.5])
        assert unit_line3.coordinate_of(out) == pytest.approx(1.0, abs=1e-12)

    def test_weight_validation(self, unit_line3):
        with pytest.raises(DistributionInvalidError, match="weights sum to 0.7, expected 1"):
            weighted_average(unit_line3, [Point.at_node(0)], [0.7])
        with pytest.raises(DistributionInvalidError, match="weights must be nonnegative"):
            weighted_average(unit_line3, [Point.at_node(0), Point.at_node(1)], [1.5, -0.5])

    def test_condition_fails_off_optimum(self, unit_line3):
        locs = [Point.at_node(0), Point.at_node(2)]
        holds, report = verify_wavg_condition(unit_line3, Point.at_node(0), locs, [0.5, 0.5])
        assert not holds

    def test_condition_single_location_vacuous(self, unit_line3):
        p = Point.at_node(1)
        holds, _ = verify_wavg_condition(unit_line3, p, [p], [1.0])
        assert holds

    def test_matches_grid_oracle_random(self, rng):
        cfg = GeneratorConfig(max_nodes=8, min_agents=2, max_agents=5, seed=23)
        for net, prof in generate(cfg, 15):
            m = len(prof)
            w = uniform(m)
            out = weighted_average(net, list(prof), w)
            holds, _ = verify_wavg_condition(net, out, list(prof), w)
            assert holds
            p_grid, v_grid = grid_optimum(net, list(prof), w)
            v_out = sum(wi * net.distance(out, y) ** 2 for wi, y in zip(w, prof))
            assert net.distance(out, p_grid) <= 1e-4
            assert v_out <= v_grid * (1 + 1e-6) + 1e-12

    def test_descent_is_the_edge_sweep_on_a_large_tree(self, rng):
        # On a random tree the optimum sits at node 0; along a caterpillar's
        # spine it lies inside an edge, where every bit of the offset shows.
        interior = 0
        for topology in ("random_tree", "caterpillar"):
            cfg = GeneratorConfig(topology=topology, min_nodes=1000, max_nodes=1000,
                                  min_agents=200, max_agents=200, seed=41)
            net, prof = next(generate(cfg, 1))
            locs = list(prof) + [prof[0]] * 3 + [Point.at_node(i) for i in (0, 7, 500)]
            for k in range(4):
                raw = [1.0] * len(locs) if k == 0 else [rng.random() for _ in locs]
                w = [x / sum(raw) for x in raw]
                got = weighted_average(net, locs, w)
                want = sweep_minisos_point(net, locs, w)
                assert (got.node, got.edge, float.hex(got.offset)) == \
                    (want.node, want.edge, float.hex(want.offset))
                interior += not got.is_node
        assert interior >= 4

    def test_uniqueness_perturbed_points_are_worse(self, rng):
        cfg = GeneratorConfig(max_nodes=8, min_agents=2, max_agents=5, seed=29)
        for net, prof in generate(cfg, 10):
            w = uniform(len(prof))
            out = weighted_average(net, list(prof), w)
            v_out = sum(wi * net.distance(out, y) ** 2 for wi, y in zip(w, prof))
            for _ in range(10):
                q = random_point(rng, net)
                if net.distance(out, q) <= 1e-6:
                    continue
                v_q = sum(wi * net.distance(q, y) ** 2 for wi, y in zip(w, prof))
                holds, _ = verify_wavg_condition(net, q, list(prof), w, tol=1e-12)
                assert v_q > v_out - 1e-12
                if v_q > v_out + 1e-9:
                    continue
                # Points essentially tied with the optimum must be adjacent to it.
                assert net.distance(out, q) <= 1e-3

    def test_movement_bound_random(self, rng):
        cfg = GeneratorConfig(max_nodes=10, min_agents=2, max_agents=6, seed=31)
        for net, prof in generate(cfg, 15):
            m = len(prof)
            w = uniform(m)
            moved = [random_point(rng, net) if rng.random() < 0.5 else y for y in prof]
            rep = check_wavg_movement(net, list(prof), moved, w)
            assert rep.holds

    def test_movement_bound_identity_perturbation(self, unit_line3):
        locs = [Point.at_node(0), Point.at_node(2)]
        rep = check_wavg_movement(unit_line3, locs, locs, [0.5, 0.5])
        assert rep.lhs == 0.0


class TestOptimalLocation:
    def test_line_pair(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(2))
        pt, cost = optimal_location(unit_line3, prof)
        assert unit_line3.coordinate_of(pt) == pytest.approx(1.0, abs=1e-12)
        assert cost == pytest.approx(2.0, abs=1e-12)

    def test_line_weighted_pair(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(0), Point.at_node(2))
        pt, cost = optimal_location(unit_line3, prof)
        assert unit_line3.coordinate_of(pt) == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert cost == pytest.approx(8.0 / 3.0, abs=1e-9)

    def test_coincident_agents(self, unit_line3):
        p = unit_line3.point_on_edge(1, 0.4)
        prof = profile(unit_line3, p, p, p)
        pt, cost = optimal_location(unit_line3, prof)
        assert pt == p
        assert cost == 0.0

    def test_line_optimum_is_mean(self, rng):
        cfg = GeneratorConfig(topology="line", max_nodes=6, min_agents=2,
                              max_agents=8, seed=37)
        for net, prof in generate(cfg, 20):
            pt, _ = optimal_location(net, prof)
            mean = sum(net.coordinate_of(x) for x in prof) / len(prof)
            assert net.coordinate_of(pt) == pytest.approx(mean, abs=1e-9)

    def test_minisum_reports_rootward_tie(self):
        # Even n: the whole middle edge minimizes; report its node-0 end.
        net = line_net(1.0, 1.0, 1.0)
        prof = profile(net, *[Point.at_node(i) for i in (0, 1, 2, 3)])
        pt, cost = optimal_location(net, prof, Objective.MINISUM)
        assert cost == pytest.approx(4.0, abs=1e-12)
        assert net.coordinate_of(pt) == pytest.approx(1.0, abs=1e-12)

    def test_minimax_midpoint(self):
        net = line_net(2.0, 2.0)
        prof = profile(net, Point.at_node(0), Point.at_node(2))
        pt, cost = optimal_location(net, prof, Objective.MINIMAX)
        assert cost == pytest.approx(2.0, abs=1e-12)
        assert net.coordinate_of(pt) == pytest.approx(2.0, abs=1e-12)

    def test_minisum_matches_grid_random(self):
        cfg = GeneratorConfig(max_nodes=8, min_agents=1, max_agents=6, seed=43)
        for net, prof in generate(cfg, 15):
            pt, cost = optimal_location(net, prof, Objective.MINISUM)
            assert cost == social_cost(net, pt, prof, Objective.MINISUM)
            _, v_grid = grid_optimum(net, list(prof), [1.0] * len(prof), squared=False)
            assert cost == pytest.approx(v_grid, abs=1e-5)
            assert cost <= v_grid + 1e-9

    def test_minimax_matches_grid_random(self, rng):
        cfg = GeneratorConfig(max_nodes=8, min_agents=2, max_agents=5, seed=41)
        for net, prof in generate(cfg, 10):
            _, cost = optimal_location(net, prof, Objective.MINIMAX)
            _, v_grid = grid_optimum(net, list(prof), [1.0] * len(prof), squared=False)
            # max-based oracle: reuse the grid helper by scanning coarse points
            best = min(
                social_cost(net, net.point_on_edge(e, w * j / 200), prof, Objective.MINIMAX)
                for e, (_, _, w) in enumerate(net.edges)
                for j in range(201)
            ) if net.edges else 0.0
            assert cost <= best + 1e-6
