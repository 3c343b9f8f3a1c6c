import re
from fractions import Fraction

import pytest

from treefacility import objectives
from treefacility.generators import GeneratorConfig, generate
from treefacility.mechanisms import (
    DGM,
    LRM,
    PB,
    AverageOnly,
    ConsecutiveMidpoints,
    Dictator,
    HalfAvgHalfRD,
    KthLocation,
    Mechanism,
    MechanismError,
    Mixture,
    RandomDictator,
    RandomizedDGM,
    TreeMedian,
    parse_mechanism,
)
from treefacility.network import LocationProfile, NotALineError, Point, TreeNetwork
from treefacility.objectives import (
    DistributionInvalidError,
    Objective,
    expected_social_cost,
    make_distribution,
    optimal_location,
    point_mass,
    weighted_average,
)

from conftest import assert_dist_close, line_net, profile, star_net
from oracles import reference_walk

Q23 = Fraction(2, 3)
NAN = float("nan")


def coords_dist(net, dist):
    return sorted((net.coordinate_of(p), prob) for p, prob in dist)


class TestDictator:
    def test_point_mass_at_own_report(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(2))
        assert Dictator(1).run(unit_line3, prof).the_point() == Point.at_node(0)
        assert Dictator(2).run(unit_line3, prof).the_point() == Point.at_node(2)

    def test_output_follows_report(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(2))
        p = unit_line3.point_on_edge(1, 0.5)
        assert Dictator(1).run(unit_line3, prof.replace(unit_line3, 0, p)).the_point() == p

    def test_index_out_of_range(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0))
        with pytest.raises(MechanismError, match="agent index 4 exceeds profile size 1"):
            Dictator(4).run(unit_line3, prof)


class TestKthLocation:
    def test_order_statistic(self):
        net = line_net(1.0, 1.0, 1.0)
        prof = profile(net, Point.at_node(3), Point.at_node(1), Point.at_node(2))
        assert net.coordinate_of(KthLocation(2).run(net, prof).the_point()) == 2.0

    def test_leftmost_and_rightmost(self):
        net = line_net(2.0, 2.0)
        prof = profile(net, Point.at_node(0), Point.at_node(2))
        assert net.coordinate_of(KthLocation(1).run(net, prof).the_point()) == 0.0
        assert net.coordinate_of(KthLocation("n").run(net, prof).the_point()) == 4.0

    def test_rejects_tree(self):
        star = star_net(3)
        prof = profile(star, Point.at_node(1), Point.at_node(2))
        with pytest.raises(NotALineError):
            KthLocation(1).run(star, prof)


class TestTreeMedian:
    def test_stays_at_root_when_balanced(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(0), Point.at_node(2))
        assert TreeMedian().run(unit_line3, prof).the_point() == Point.at_node(0)

    def test_odd_median(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(1), Point.at_node(2))
        assert TreeMedian().run(unit_line3, prof).the_point() == Point.at_node(1)

    def test_star_balanced(self):
        star = star_net(3)
        prof = profile(star, *[Point.at_node(i) for i in (1, 2, 3)])
        assert TreeMedian().run(star, prof).the_point() == Point.at_node(0)

    def test_interior_agent_median(self):
        net = line_net(2.0)
        p = net.point_on_edge(0, 0.5)
        prof = profile(net, p, p, Point.at_node(1))
        assert TreeMedian().run(net, prof).the_point() == p


class TestDGM:
    def test_hand_walk_from_left(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(1), Point.at_node(2))
        assert DGM(1, Q23).run(unit_line3, prof).the_point() == Point.at_node(1)

    def test_hand_walk_from_middle(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(1), Point.at_node(2))
        assert DGM(2, Q23).run(unit_line3, prof).the_point() == Point.at_node(1)

    def test_q_one_sticks_to_root(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(1), Point.at_node(2))
        assert DGM(2, Fraction(1)).run(unit_line3, prof).the_point() == Point.at_node(1)
        all_right = profile(unit_line3, Point.at_node(2), Point.at_node(2), Point.at_node(2))
        assert DGM(1, Fraction(1)).run(unit_line3, all_right).the_point() == Point.at_node(2)

    def test_exact_threshold_count(self):
        # n=3, q=2/3: a branch with exactly 2 agents qualifies; exact rational
        # comparison must not be thrown off by floating q.
        net = line_net(1.0, 1.0)
        prof = profile(net, Point.at_node(0), Point.at_node(2), Point.at_node(2))
        assert DGM(1, Q23).run(net, prof).the_point() == Point.at_node(2)

    def test_rejects_half_or_less(self):
        with pytest.raises(MechanismError, match=re.escape("q must satisfy 1/2 < q <= 1")):
            DGM(1, Fraction(1, 2))
        with pytest.raises(MechanismError, match=re.escape("q must satisfy 1/2 < q <= 1")):
            DGM(1, Fraction(1, 3))


class TestGeneralizedMedianWalk:
    """The subtree-count walk agrees with the distance-comparison walk."""

    @staticmethod
    def instances():
        for topology in ("line", "star", "caterpillar", "random_tree"):
            for placement in ("anywhere", "nodes_only"):
                cfg = GeneratorConfig(topology=topology, placement=placement, min_nodes=1,
                                      max_nodes=12, min_agents=1, max_agents=8, seed=47)
                for k, (net, prof) in enumerate(generate(cfg, 12)):
                    yield net, prof
                    # The first agent repeated: coincident, often interior, agents.
                    yield net, LocationProfile(net, list(prof) + [prof[0]] * (1 + k % 3))

    def test_median_and_dgm(self):
        for net, prof in self.instances():
            n = len(prof)
            assert TreeMedian().run(net, prof).the_point() == reference_walk(
                net, prof, None, lambda c: 2 * c > n)
            for q in (Fraction(3, 5), Q23, Fraction(1)):
                for i in sorted({1, 2, n}):
                    if i > n:
                        continue
                    expected = reference_walk(
                        net, prof, i - 1, lambda c: c * q.denominator >= q.numerator * n)
                    assert DGM(i, q).run(net, prof).the_point() == expected

    def test_rdgm_members(self):
        for net, prof in self.instances():
            n = len(prof)
            expected = [
                reference_walk(net, prof, r, lambda c: 3 * c >= 2 * n) for r in range(n)
            ]
            assert RandomizedDGM(Q23).member_points(net, prof) == expected

    def test_walks_build_no_network(self, monkeypatch):
        cfg = GeneratorConfig(min_nodes=200, max_nodes=200, min_agents=40, max_agents=40, seed=3)
        net, prof = next(generate(cfg, 1))
        built = []
        init = TreeNetwork.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(TreeNetwork, "__init__", counting)
        for spec in ("median", "dgm:1:2/3", "rdgm:2/3"):
            parse_mechanism(spec).run(net, prof)
        optimal_location(net, prof, Objective.MINISUM)
        assert built == []


class TestDeviations:
    """One misreport per rule of the deviation walk: the sweep equals the
    base class's loop and the stop worked out by hand."""

    @pytest.mark.parametrize("spec, agents, i, p, stop", [
        # A misreport 1e-12 past an agent is its own position.
        ("median", [Point(edge=0, offset=1e-12), 1, 1], 1, Point(edge=0, offset=2e-12),
         Point(edge=0, offset=2e-12)),
        # A misreport 1e-12 before an agent leaves that agent in place.
        ("median", [Point(edge=0, offset=0.5), 1, 1], 1, Point(edge=0, offset=0.5 - 1e-12),
         Point(edge=0, offset=0.5)),
        # A new position sits between the dictator's node and node 0: its walk
        # climbs into it and stops there (4 agents, need 3).
        ("dgm:1:2/3", [1, 0, 0, 0], 3, Point(edge=0, offset=0.5), Point(edge=0, offset=0.5)),
        # Node 0 qualified without the misreport, so the others' lowest stands.
        ("median", [2, 2, 1], 2, 0, 2),
        # The others alone hold fewer than need = n agents anywhere.
        ("dgm:1:1", [1, 1, 0], 2, 1, 1),
    ])
    def test_each_rule(self, spec, agents, i, p, stop):
        net = line_net(1.0, 1.0)
        at = lambda x: x if isinstance(x, Point) else Point.at_node(x)  # noqa: E731
        prof = LocationProfile(net, [at(x) for x in agents])
        mech = parse_mechanism(spec)
        expected = Mechanism.deviations(mech, net, prof, i, [at(p)])
        assert expected == [point_mass(at(stop))]
        assert mech.deviations(net, prof, i, [at(p)]) == expected

    def test_sweeps_never_fall_back(self, monkeypatch):
        """Every misreport, even one 3e-13 to 2e-12 from an agent, is walked
        from the one build of the other agents: no sweep reruns the full walk
        or the base class's loop, and a DGM whose agent is not in the profile
        raises before it sweeps."""
        net = line_net(1.0, 1.0)
        agents = [Point(edge=0, offset=0.5), Point(edge=0, offset=0.5 + 1e-12),
                  Point.at_node(1), Point(edge=1, offset=0.25)]
        prof = LocationProfile(net, agents)
        points = [Point.at_node(v) for v in range(net.node_count)]
        points += [Point(edge=x.edge, offset=x.offset + d) for x in agents if not x.is_node
                   for d in (0.0, 3e-13, -3e-13, 1e-12, -1e-12, 2e-12, -2e-12)]
        calls = []

        def counting(owner, name):
            call = getattr(owner, name)

            def counted(*args):
                calls.append(name)
                return call(*args)
            monkeypatch.setattr(owner, name, counted)

        counting(objectives, "generalized_medians")
        counting(Mechanism, "deviations")
        for i in range(len(prof)):
            objectives.deviated_medians(net, prof, i, points, 3, [None, 0, 1, 2, 3])
            DGM(2, Q23).deviations(net, prof, i, points)
        with pytest.raises(MechanismError, match="agent index 5 exceeds profile size 3"):
            DGM(5, Q23).deviations(net, LocationProfile(net, agents[:3]), 0, [])
        assert calls == []


class TestPB:
    def test_single_member_degenerates(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(2))
        d = PB([Dictator(1)], [1.0]).run(unit_line3, prof)
        assert len(d) == 1
        assert d.the_point() == Point.at_node(0)

    def test_lrm_composition(self):
        net = line_net(2.0, 2.0)
        prof = profile(net, Point.at_node(0), Point.at_node(2))
        d = PB([KthLocation(1), KthLocation("n")], [0.5, 0.5]).run(net, prof)
        assert coords_dist(net, d) == [(0.0, 0.25), (2.0, 0.5), (4.0, 0.25)]

    def test_all_dictators_equals_half_avg_half_rd(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(2))
        d = PB([Dictator(1), Dictator(2)], [0.5, 0.5]).run(unit_line3, prof)
        assert coords_dist(unit_line3, d) == [(0.0, 0.25), (1.0, 0.5), (2.0, 0.25)]

    def test_rejects_non_boomerang_member(self):
        with pytest.raises(MechanismError, match="'rd' is not a recognized boomerang mechanism"):
            PB([RandomDictator()], [1.0])
        with pytest.raises(MechanismError, match="'avg-only' is not a recognized boomerang"):
            PB([AverageOnly()], [1.0])


class TestLineMechanisms:
    def test_lrm_support(self):
        net = line_net(2.0, 2.0)
        prof = profile(net, Point.at_node(0), Point.at_node(2))
        d = LRM().run(net, prof)
        assert coords_dist(net, d) == [(0.0, 0.25), (2.0, 0.5), (4.0, 0.25)]

    def test_lrm_collapses_on_consensus(self, unit_line3):
        p = unit_line3.point_on_edge(0, 0.5)
        d = LRM().run(unit_line3, profile(unit_line3, p, p, p))
        assert d.the_point() == p

    def test_rd_merges_duplicates(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(0), Point.at_node(2))
        d = RandomDictator().run(unit_line3, prof)
        assert coords_dist(unit_line3, d) == [(0.0, pytest.approx(2 / 3)), (2.0, pytest.approx(1 / 3))]

    def test_half_avg_half_rd(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(2))
        d = HalfAvgHalfRD().run(unit_line3, prof)
        assert coords_dist(unit_line3, d) == [(0.0, 0.25), (1.0, 0.5), (2.0, 0.25)]

    def test_half_avg_half_rd_coincident_agents_give_a_point_mass(self):
        net = TreeNetwork(3, [(0, 1, 0.7), (1, 2, 0.3)])
        p = net.point_on_edge(0, 0.1)
        d = HalfAvgHalfRD().run(net, profile(net, p, p, p))
        assert d.the_point() == p

    @pytest.mark.parametrize("k", [3, 4, 10])
    def test_half_avg_half_rd_on_a_star(self, k):
        # The average is the centre, at cost k; each leaf costs 4(k - 1).
        net = star_net(k)
        prof = profile(net, *(Point.at_node(i) for i in range(1, k + 1)))
        cost = expected_social_cost(net, HalfAvgHalfRD().run(net, prof), prof)
        _, opt = optimal_location(net, prof)
        assert cost / opt == pytest.approx((5 * k - 4) / (2 * k), abs=1e-12)

    def test_half_avg_half_rd_unbalanced(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(0), Point.at_node(2))
        d = HalfAvgHalfRD().run(unit_line3, prof)
        cost = expected_social_cost(unit_line3, d, prof)
        _, opt = optimal_location(unit_line3, prof)
        assert cost == pytest.approx(4.0, abs=1e-12)
        assert cost == pytest.approx(1.5 * opt, abs=1e-9)

    def test_midpoints_two_agents(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(2))
        d = ConsecutiveMidpoints().run(unit_line3, prof)
        assert coords_dist(unit_line3, d) == [(0.0, 0.25), (1.0, 0.5), (2.0, 0.25)]

    def test_midpoints_three_agents(self):
        net = line_net(2.0, 2.0)  # coordinates 0, 2, 4
        prof = profile(net, Point.at_node(0), Point.at_node(1), Point.at_node(2))
        d = ConsecutiveMidpoints().run(net, prof)
        assert coords_dist(net, d) == [
            (0.0, pytest.approx(1 / 6)),
            (1.0, pytest.approx(1 / 3)),
            (3.0, pytest.approx(1 / 3)),
            (4.0, pytest.approx(1 / 6)),
        ]

    def test_midpoints_needs_two(self, unit_line3):
        with pytest.raises(MechanismError, match="needs at least two agents"):
            ConsecutiveMidpoints().run(unit_line3, profile(unit_line3, Point.at_node(0)))


class TestRandomizedDGM:
    def test_line_consensus(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(1), Point.at_node(2))
        d = RandomizedDGM(Q23).run(unit_line3, prof)
        assert d.the_point() == Point.at_node(1)

    def test_star_consensus(self):
        star = star_net(3)
        prof = profile(star, *[Point.at_node(i) for i in (1, 2, 3)])
        d = RandomizedDGM(Q23).run(star, prof)
        assert d.the_point() == Point.at_node(0)

    def test_all_agents_at_one_point(self, unit_line3):
        p = unit_line3.point_on_edge(1, 0.25)
        d = RandomizedDGM(Q23).run(unit_line3, profile(unit_line3, p, p))
        assert d.the_point() == p

    def test_q_range(self):
        with pytest.raises(MechanismError, match=re.escape("q must satisfy 1/2 < q <= 2/3")):
            RandomizedDGM(Fraction(3, 4))
        with pytest.raises(MechanismError, match=re.escape("q must satisfy 1/2 < q <= 2/3")):
            RandomizedDGM(Fraction(1, 2))


class TestMixture:
    def test_single_component_identity(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(2))
        a = Mixture([(RandomDictator(), 1.0)]).run(unit_line3, prof)
        b = RandomDictator().run(unit_line3, prof)
        assert a == b

    def test_rd_as_dictator_mixture(self, rng):
        cfg = GeneratorConfig(topology="line", max_nodes=5, min_agents=2,
                              max_agents=5, seed=51)
        for net, prof in generate(cfg, 10):
            n = len(prof)
            mix = Mixture([(Dictator(i + 1), 1.0 / n) for i in range(n)])
            assert_dist_close(net, mix.run(net, prof), RandomDictator().run(net, prof))

    def test_support_merge(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(2))
        d = Mixture([(TreeMedian(), 0.5), (Dictator(1), 0.5)]).run(unit_line3, prof)
        # Both components return node 0 here; support merges to a point mass.
        assert d.the_point() == Point.at_node(0)

    def test_components_must_be_mechanisms(self):
        with pytest.raises(MechanismError, match="mixture components must be mechanisms"):
            Mixture([("median", 1.0)])


class TestEquivalences:
    """The named line mechanisms coincide with their compositions."""

    def test_lrm_is_pb_of_extremes(self, rng):
        cfg = GeneratorConfig(topology="line", max_nodes=5, min_agents=2,
                              max_agents=6, seed=61)
        pb = PB([KthLocation(1), KthLocation("n")], [0.5, 0.5])
        for net, prof in generate(cfg, 15):
            assert_dist_close(net, LRM().run(net, prof), pb.run(net, prof))

    def test_half_avg_half_rd_is_pb_of_dictators(self, rng):
        for topology in ("line", "random_tree"):
            cfg = GeneratorConfig(topology=topology, max_nodes=5, min_agents=2,
                                  max_agents=6, seed=67)
            for net, prof in generate(cfg, 15):
                n = len(prof)
                pb = PB([Dictator(i + 1) for i in range(n)], [1.0 / n] * n)
                assert HalfAvgHalfRD().run(net, prof) == pb.run(net, prof)

    @pytest.mark.parametrize("q", [Fraction(3, 5), Fraction(2, 3)])
    def test_rdgm_is_pb_of_dgms(self, q):
        for topology in ("line", "random_tree"):
            for placement in ("anywhere", "nodes_only"):
                cfg = GeneratorConfig(topology=topology, placement=placement, min_nodes=1,
                                      max_nodes=10, min_agents=1, max_agents=8, seed=79)
                for net, prof in generate(cfg, 40):
                    n = len(prof)
                    pb = PB([DGM(i + 1, q) for i in range(n)], [1.0 / n] * n)
                    assert RandomizedDGM(q).run(net, prof) == pb.run(net, prof)


class TestDistributionInvariants:
    def test_valid_and_deterministic(self, rng):
        cfg = GeneratorConfig(max_nodes=8, min_agents=2, max_agents=5, seed=71)
        mechs = [TreeMedian(), RandomDictator(), RandomizedDGM(Q23),
                 Dictator(1), DGM(1, Q23)]
        for net, prof in generate(cfg, 10):
            for mech in mechs:
                d1 = mech.run(net, prof)
                d2 = mech.run(net, prof)
                assert d1 == d2
                total = sum(prob for _, prob in d1)
                assert total == pytest.approx(1.0, abs=1e-9)
                assert all(prob >= 0 for _, prob in d1)
                assert len(set(d1.points)) == len(d1.points)

    @pytest.mark.parametrize("build", [
        lambda net: weighted_average(net, [Point.at_node(0), Point.at_node(2)], [NAN, NAN]),
        lambda net: PB([TreeMedian(), DGM(1, Q23)], [NAN, NAN]),
        lambda net: Mixture([(TreeMedian(), NAN), (RandomDictator(), NAN)]),
        lambda net: make_distribution([(Point.at_node(0), 1.0), (Point.at_node(1), NAN)]),
    ], ids=["weighted-average", "pb", "mix", "distribution"])
    def test_nan_weights_and_probabilities_are_rejected(self, unit_line3, build):
        # NaN fails every comparison, so only a test it must pass stops it.
        with pytest.raises(DistributionInvalidError):
            build(unit_line3)

    @pytest.mark.parametrize("spec", [
        "pb:[median,dgm:1:2/3]:[-1/1000000000000,1000000000001/1000000000000]",
        "mix:[(median,-1/10000000000),(rd,10000000001/10000000000)]",
    ])
    def test_negative_weights_are_rejected_however_small(self, spec):
        with pytest.raises(MechanismError, match="nonnegative"):
            parse_mechanism(spec)

    def test_negative_probability_is_rejected_however_small(self):
        with pytest.raises(DistributionInvalidError, match="not a number >= 0"):
            make_distribution([(Point.at_node(0), -1e-12), (Point.at_node(1), 1.0 + 1e-12)])


class TestParse:
    @pytest.mark.parametrize("text", [
        "dictator:3", "kth:1", "kth:n", "median", "dgm:3:2/3", "rd", "lrm",
        "half-avg-rd", "rdgm:2/3", "midpoints", "avg-only",
        "pb:[kth:1,kth:n]:[1/2,1/2]", "mix:[(median,1/2),(rd,1/2)]",
    ])
    def test_round_trips(self, text):
        mech = parse_mechanism(text)
        assert mech.name

    def test_parse_matches_constructors(self, unit_line3):
        prof = profile(unit_line3, Point.at_node(0), Point.at_node(2))
        a = parse_mechanism("pb:[kth:1,kth:n]:[1/2,1/2]").run(unit_line3, prof)
        b = LRM().run(unit_line3, prof)
        assert_dist_close(unit_line3, a, b)

    @pytest.mark.parametrize("text", [
        "bogus", "dgm:1:1/2", "dictator:x", "pb:[rd]:[1]", "mix:[median]",
        "rdgm:3/4", "dictator:1:2", "kth:1:junk", "kth:n:", "mix:(median,1)",
        "mix:[(median,1/2),(rd,1/2)", "pb:[median,dgm:2:2/3]:[1/2,1/2]]]",
        "pb:[median]:[1e400]",
    ])
    def test_rejects_bad_specs(self, text):
        with pytest.raises(MechanismError, match=re.escape(f"bad mechanism spec {text!r}: ")):
            parse_mechanism(text)

    def test_nested_error_names_the_spec_once(self):
        with pytest.raises(MechanismError) as info:
            parse_mechanism("mix:[(mix:[(mix:[(mix:[(median,x)],1)],1)],1)]")
        message = str(info.value)
        assert message.count("bad mechanism spec") == 1
        assert message.endswith("bad rational 'x'")
