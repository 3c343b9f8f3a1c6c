import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from treefacility import cli
from treefacility.generators import GeneratorConfig, generate
from treefacility.mechanisms import (
    DGM,
    LRM,
    AverageOnly,
    Dictator,
    HalfAvgHalfRD,
    KthLocation,
    RandomDictator,
    RandomizedDGM,
    TreeMedian,
)
from treefacility.network import (
    SP_TOL,
    LocationProfile,
    Point,
    TreeNetwork,
    instance_digest,
    instance_to_json,
)
from treefacility.objectives import Objective, optimal_location
from treefacility.verify import (
    IDENTITY_CHECKS,
    BadParamsError,
    approx_ratio,
    boomerang_check,
    deviation_points,
    lower_bound_witness,
    ratio_search,
    sp_check,
)

from conftest import line_net, profile, star_net
from oracles import (
    BadOrderingError,
    grid_optimum,
    immigrants_check,
    line_with_coordinates,
    points_on_single_path,
)

Q23 = Fraction(2, 3)


class TestDeviationPoints:
    def test_contains_nodes_agents_and_grid(self, unit_line3):
        p = unit_line3.point_on_edge(0, 0.37)
        prof = profile(unit_line3, p, Point.at_node(2))
        pts = deviation_points(unit_line3, prof)
        assert Point.at_node(0) in pts
        assert p in pts
        # 3 nodes + 1 interior agent + 15 grid points per edge
        assert len(pts) == 3 + 1 + 15 * 2

    def test_no_duplicates(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), unit_line3.point_on_edge(0, 0.5))
        pts = deviation_points(unit_line3, prof)
        assert len(pts) == len(set(pts))


class TestSPCheck:
    def test_median_holds(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(0), Point.at_node(2))
        rep = sp_check(TreeMedian(), unit_line3, prof)
        assert rep.max_regret <= SP_TOL
        assert rep.max_regret <= 1e-12

    def test_randomized_holds(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(2))
        for mech in (RandomDictator(), HalfAvgHalfRD(), RandomizedDGM(Q23)):
            assert sp_check(mech, unit_line3, prof).max_regret <= SP_TOL

    def test_negative_control_is_manipulable(self):
        # The agents sit strictly inside the line so a deviator can drag the
        # average outward.
        net, resolve = line_with_coordinates([-2.0, 2.0], extra_nodes=[0.0])
        prof = LocationProfile(net, [resolve(0.0), resolve(2.0)])
        rep = sp_check(AverageOnly(), net, prof)
        assert not rep.max_regret <= SP_TOL
        assert rep.max_regret >= 0.5

    def test_reports_worst_case(self):
        net, resolve = line_with_coordinates([-2.0, 2.0], extra_nodes=[0.0])
        prof = LocationProfile(net, [resolve(0.0), resolve(2.0)])
        rep = sp_check(AverageOnly(), net, prof)
        agent, misreport, true_cost, dev_cost = rep.worst_case
        assert true_cost - dev_cost == pytest.approx(rep.max_regret)


class TestBoomerangCheck:
    @pytest.mark.parametrize("mech", [
        Dictator(1), KthLocation(1), TreeMedian(), DGM(1, Q23),
    ])
    def test_deterministic_mechanisms_hold(self, mech):
        net = line_net(1.0, 1.0, 1.0)
        prof = profile(net, Point.at_node(0), Point.at_node(1), Point.at_node(3))
        rep = boomerang_check(mech, net, prof)
        assert rep.max_violation <= SP_TOL

    def test_negative_control_violates(self):
        net = line_net(2.0, 2.0)
        prof = profile(net, Point.at_node(0), Point.at_node(1))
        rep = boomerang_check(AverageOnly(), net, prof)
        assert not rep.max_violation <= SP_TOL
        assert rep.max_violation >= 0.1

    def test_exact_zero_violations_still_name_a_witness(self, unit_line3):
        # A dictator moves the output exactly as far as it moves itself.
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(2))
        rep = boomerang_check(Dictator(1), unit_line3, prof)
        assert rep.max_violation == 0.0 and rep.tested_count > 0
        first = next(p for p in deviation_points(unit_line3, prof) if p != prof[0])
        assert rep.worst_case == (0, first, prof[0], first)

    def test_rejects_randomized(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(2))
        with pytest.raises(BadParamsError, match="rd output has support > 1"):
            boomerang_check(RandomDictator(), unit_line3, prof)


class TestMisreportSweep:
    def test_both_checks_test_every_misreport(self):
        # The set holds every agent's own location, which each agent skips.
        cfg = GeneratorConfig(max_nodes=8, min_agents=3, max_agents=5, seed=29)
        net, prof = next(generate(cfg, 1))
        expected = len(prof) * (len(deviation_points(net, prof)) - 1)
        assert sp_check(TreeMedian(), net, prof).tested_count == expected
        assert boomerang_check(TreeMedian(), net, prof).tested_count == expected


class TestApproxRatio:
    def test_rd_on_pair(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(2))
        rep = approx_ratio(RandomDictator(), unit_line3, prof)
        assert rep.ratio == pytest.approx(2.0, abs=1e-12)

    def test_half_avg_half_rd_is_exactly_15(self, rng):
        cfg = GeneratorConfig(topology="line", max_nodes=6, min_agents=2,
                              max_agents=6, seed=83)
        for net, prof in generate(cfg, 20):
            rep = approx_ratio(HalfAvgHalfRD(), net, prof)
            if rep.ratio is None:
                assert rep.exact_zero
                continue
            assert rep.ratio == pytest.approx(1.5, abs=1e-9)

    def test_zero_optimum_flagged(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(1), Point.at_node(1))
        rep = approx_ratio(TreeMedian(), unit_line3, prof)
        assert rep.ratio is None
        assert rep.exact_zero

    def test_coincident_agents_off_node_zero_have_exact_zero_optimum(self):
        net = TreeNetwork(3, [(0, 1, 0.8250457278666711), (0, 2, 0.785969260382336)])
        prof = profile(net, *[Point.at_node(1)] * 3)
        _, cost = optimal_location(net, prof)
        assert cost == 0.0
        rep = approx_ratio(TreeMedian(), net, prof)
        assert rep.ratio is None
        assert rep.exact_zero

    def test_minimax_objective(self):
        net, prof = lower_bound_witness("randomized_15_family", n=2)
        rep = approx_ratio(LRM(), net, prof, Objective.MINIMAX)
        assert rep.ratio == pytest.approx(1.5, abs=1e-12)


class TestRatioSearch:
    def test_deterministic_given_seed(self):
        cfg = GeneratorConfig(max_nodes=8, min_agents=2, max_agents=4)
        a = ratio_search(RandomDictator(), Objective.MINISOS, replace(cfg, seed=7), budget=30)
        b = ratio_search(RandomDictator(), Objective.MINISOS, replace(cfg, seed=7), budget=30)
        assert a[0].ratio == b[0].ratio
        assert instance_digest(*a[1:]) == instance_digest(*b[1:])

    def test_rd_on_lines_pins_at_two(self):
        cfg = GeneratorConfig(topology="line", max_nodes=10, min_agents=2,
                              max_agents=6)
        rep, _, _ = ratio_search(RandomDictator(), Objective.MINISOS, replace(cfg, seed=11),
                                 budget=80)
        assert rep.ratio == pytest.approx(2.0, abs=1e-9)

    def test_median_never_exceeds_two(self):
        cfg = GeneratorConfig(max_nodes=10, min_agents=2, max_agents=6)
        rep, _, _ = ratio_search(TreeMedian(), Objective.MINISOS, replace(cfg, seed=11),
                                 budget=80)
        assert rep.ratio <= 2.0 + 1e-6

    @pytest.mark.parametrize("mech", [TreeMedian(), RandomizedDGM(Q23)],
                             ids=["median", "rdgm"])
    def test_minisos_optimum_is_the_cost_at_its_point(self, mech):
        # The CLI defaults with --max-nodes 20 --max-agents 12 --seed 3.
        cfg = GeneratorConfig(max_nodes=20, min_agents=2, max_agents=12)
        rep, net, prof = ratio_search(mech, Objective.MINISOS, replace(cfg, seed=3),
                                      budget=100)
        at, cost = optimal_location(net, prof)
        sos = sum(net.distance(at, x) ** 2 for x in prof)
        # The hill climb can drive the optimum down to about 1e-9, so no
        # absolute slack is allowed.
        assert cost == pytest.approx(sos, rel=1e-12, abs=0.0)
        assert rep.optimal_cost == pytest.approx(sos, rel=1e-12, abs=0.0)
        if mech.name == "median":
            assert rep.ratio <= 2.0 + 1e-9

    def test_lrm_minimax_search_stays_at_its_bound(self):
        # LRM's extremes are the agents' own points, so the hill climb finds
        # no rounding error above 1.5 to chase.
        cfg = GeneratorConfig(topology="line", max_nodes=20, min_agents=2, max_agents=12)
        rep, _, _ = ratio_search(LRM(), Objective.MINIMAX, replace(cfg, seed=1184), budget=200)
        assert rep.ratio == pytest.approx(1.5, rel=0.0, abs=1e-11)

    def test_bad_budget(self):
        cfg = GeneratorConfig()
        with pytest.raises(BadParamsError):
            ratio_search(RandomDictator(), Objective.MINISOS, replace(cfg, seed=1), budget=0)


class TestImmigrants:
    def test_half_avg_half_rd_holds(self):
        holds, rows = immigrants_check(HalfAvgHalfRD(), 0.0, 2.0, 4.0, 4)
        assert holds
        assert len(rows) == 4

    def test_median_holds(self):
        holds, _ = immigrants_check(TreeMedian(), 0.0, 1.0, 3.0, 5)
        assert holds

    def test_avg_only_violated(self):
        holds, rows = immigrants_check(AverageOnly(), 0.0, 2.0, 4.0, 2)
        assert not holds

    def test_bad_ordering(self):
        with pytest.raises(BadOrderingError):
            immigrants_check(TreeMedian(), 3.0, 1.0, 2.0, 2)
        with pytest.raises(BadOrderingError):
            immigrants_check(TreeMedian(), 1.0, 1.0, 1.0, 2)


class TestIdentities:
    @pytest.mark.parametrize("kind", ["wavg_movement", "cost_difference", "flattening"])
    def test_random_instances(self, kind):
        check, make_instance = IDENTITY_CHECKS[kind]
        rng = random.Random(131)
        for _ in range(25):
            rep = check(*make_instance(rng))
            assert rep.holds, rep

    def test_unknown_kind(self, capsys):
        assert cli.main(["lemma-check", "--kind", "nope"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: argument --kind: invalid choice: 'nope'")


class TestSinglePath:
    def test_line_points(self, unit_line3):
        pts = [Point.at_node(0), unit_line3.point_on_edge(1, 0.5), Point.at_node(2)]
        assert points_on_single_path(unit_line3, pts)

    def test_star_tips_are_not(self):
        star = star_net(3)
        pts = [Point.at_node(i) for i in (1, 2, 3)]
        assert not points_on_single_path(star, pts)

    def test_two_points_trivially(self):
        star = star_net(3)
        assert points_on_single_path(star, [Point.at_node(1), Point.at_node(2)])

    def test_rdgm_outputs_collinear(self):
        cfg = GeneratorConfig(max_nodes=10, min_agents=2, max_agents=5, seed=139)
        mech = RandomizedDGM(Q23)
        for net, prof in generate(cfg, 20):
            pts = mech.member_points(net, prof)
            assert points_on_single_path(net, pts)


class TestWitnesses:
    @staticmethod
    def unit_line(k):
        return {"nodes": k + 1, "edges": [[i, i + 1, 1.0] for i in range(k)]}

    def test_deterministic_witness_ratio_two(self):
        net, prof = lower_bound_witness("deterministic_2", n=4)
        rep = approx_ratio(TreeMedian(), net, prof)
        assert rep.ratio == pytest.approx(2.0, abs=1e-9)
        assert net.to_json() == self.unit_line(2)

    def test_randomized_family_shape(self):
        net, prof = lower_bound_witness("randomized_15_family", n=4)
        assert net.to_json() == self.unit_line(4)
        assert list(prof) == [Point.at_node(0)] * 2 + [Point.at_node(4)] * 2

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_ratios_are_exactly_tight(self, n):
        """Every cost here is a sum of small integer squares, so the ratios are
        exact: 1.5 for half-avg-rd (miniSOS) and lrm (minimax) on the 4-unit
        line, 2 for the median (miniSOS) on the 2-unit line."""
        witness = lower_bound_witness("randomized_15_family", n=n)
        assert approx_ratio(HalfAvgHalfRD(), *witness).ratio == 1.5
        assert approx_ratio(LRM(), *witness, Objective.MINIMAX).ratio == 1.5
        assert approx_ratio(TreeMedian(), *lower_bound_witness("deterministic_2", n=n)).ratio == 2.0

    def test_bad_params(self):
        with pytest.raises(BadParamsError, match="deterministic_2 needs an even n >= 2"):
            lower_bound_witness("deterministic_2", n=3)
        with pytest.raises(BadParamsError, match="unknown witness kind 'unknown'"):
            lower_bound_witness("unknown")


class TestGridOracle:
    def test_simple_line(self, unit_line3):
        pt, v = grid_optimum(unit_line3, [Point.at_node(0), Point.at_node(2)],
                             [1.0, 1.0])
        assert unit_line3.coordinate_of(pt) == pytest.approx(1.0, abs=1e-4)
        assert v == pytest.approx(2.0, abs=1e-6)

    def test_single_node_network(self):
        net = line_net()
        pt, v = grid_optimum(net, [Point.at_node(0)], [1.0])
        assert pt == Point.at_node(0)
        assert v == 0.0


class TestRatioRecord:
    def test_keys(self, unit_line3, tmp_path, capsys):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(2))
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance_to_json(unit_line3, prof)))
        assert cli.main(["ratio", "--mech", "median", "--instance", str(path)]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        rep = approx_ratio(TreeMedian(), unit_line3, prof)
        # An instance file names neither a topology nor a seed.
        assert json.loads(line) == {
            "digest": instance_digest(unit_line3, prof), "topology": None,
            "mechanism": "median", "objective": "minisos", "mech_cost": rep.mechanism_cost,
            "opt_cost": rep.optimal_cost, "ratio": rep.ratio, "seed": None}
        assert list(json.loads(line)) == ["digest", "topology", "mechanism", "objective",
                                          "mech_cost", "opt_cost", "ratio", "seed"]
