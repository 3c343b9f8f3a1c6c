"""Acceptance gate: the headline guarantees, checked end to end.

Each test covers one criterion, prints a single PASS/FAIL line, and enforces
the stated tolerance and runtime budget.
"""

import time
import zlib
from dataclasses import replace
from fractions import Fraction

import pytest

from treefacility.generators import GeneratorConfig, generate
from treefacility.mechanisms import (
    DGM,
    AverageOnly,
    Dictator,
    KthLocation,
    RandomizedDGM,
    TreeMedian,
    parse_mechanism,
)
from treefacility.network import LocationProfile
from treefacility.objectives import Objective
from treefacility.verify import (
    IDENTITY_CHECKS,
    approx_ratio,
    boomerang_check,
    lower_bound_witness,
    ratio_search,
    sp_check,
)
from treefacility.objectives import weighted_average

from oracles import (
    grid_optimum,
    immigrants_check,
    line_with_coordinates,
    points_on_single_path,
    verify_wavg_condition,
)

Q23 = Fraction(2, 3)

LINE_CFG = GeneratorConfig(topology="line", min_nodes=2, max_nodes=8,
                           min_agents=2, max_agents=12, placement="anywhere")
TREE_CFG = GeneratorConfig(topology="random_tree", min_nodes=2, max_nodes=20,
                           min_agents=2, max_agents=12, placement="anywhere")


def report(criterion, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status} criterion {criterion}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, detail
    assert elapsed < budget, f"criterion {criterion} overran: {elapsed:.1f}s"


def line_profiles(count, seed):
    yield from generate(replace(LINE_CFG, seed=seed), count)


class TestAcceptance:
    def test_01_random_dictator_exactly_two_on_lines(self):
        t0 = time.perf_counter()
        mech = parse_mechanism("rd")
        worst_dev = 0.0
        checked = 0
        for net, prof in line_profiles(500, seed=101):
            rep = approx_ratio(mech, net, prof)
            if rep.ratio is None:
                assert rep.exact_zero
                continue
            worst_dev = max(worst_dev, abs(rep.ratio - 2.0))
            checked += 1
        report(1, worst_dev <= 1e-9 and checked > 400,
               f"rd ratio = 2 within {worst_dev:.2e} on {checked} line profiles",
               time.perf_counter() - t0, 5.0)

    def test_02_half_avg_half_rd_exactly_15_on_lines(self):
        t0 = time.perf_counter()
        mech = parse_mechanism("half-avg-rd")
        worst_dev = 0.0
        checked = 0
        for net, prof in line_profiles(500, seed=102):
            rep = approx_ratio(mech, net, prof)
            if rep.ratio is None:
                assert rep.exact_zero
                continue
            worst_dev = max(worst_dev, abs(rep.ratio - 1.5))
            checked += 1
        report(2, worst_dev <= 1e-9 and checked > 400,
               f"half-avg-rd ratio = 1.5 within {worst_dev:.2e} on {checked} line profiles",
               time.perf_counter() - t0, 5.0)

    def test_03_median_at_most_two_on_lines_and_tight(self):
        t0 = time.perf_counter()
        mech = TreeMedian()
        worst = 0.0
        for net, prof in line_profiles(500, seed=103):
            rep = approx_ratio(mech, net, prof)
            if rep.ratio is not None:
                worst = max(worst, rep.ratio)
        wnet, wprof = lower_bound_witness("deterministic_2", n=6)
        wit = approx_ratio(mech, wnet, wprof)
        report(3, worst <= 2.0 + 1e-9 and abs(wit.ratio - 2.0) <= 1e-9,
               f"median line ratio max {worst:.9f}, witness ratio {wit.ratio:.9f}",
               time.perf_counter() - t0, 5.0)

    def test_04_median_at_most_two_on_trees_search(self):
        t0 = time.perf_counter()
        rep, _, _ = ratio_search(TreeMedian(), Objective.MINISOS,
                                 replace(TREE_CFG, seed=104), budget=2000)
        report(4, rep.ratio <= 2.0 + 1e-6,
               f"median tree search worst ratio {rep.ratio:.9f} over 2000 instances",
               time.perf_counter() - t0, 60.0)

    def test_05_randomized_dgm_bound_on_trees_search(self):
        t0 = time.perf_counter()
        rep, _, _ = ratio_search(RandomizedDGM(Q23), Objective.MINISOS,
                                 replace(TREE_CFG, seed=105), budget=2000)
        report(5, rep.ratio <= 1.83 + 1e-6,
               f"rdgm(2/3) tree search worst ratio {rep.ratio:.9f} over 2000 instances"
               " (bound 1.83, analysis suggests the supremum is near 1.82)",
               time.perf_counter() - t0, 120.0)

    def test_06_strategyproofness_suite(self):
        t0 = time.perf_counter()
        line_only = ["kth:1", "lrm", "rd", "half-avg-rd", "midpoints",
                     "pb:[kth:1,kth:n]:[1/2,1/2]"]
        tree_ok = ["dictator:1", "median", "dgm:1:2/3", "rdgm:2/3", "half-avg-rd"]
        small_line = GeneratorConfig(topology="line", max_nodes=6,
                                     min_agents=2, max_agents=4)
        small_tree = GeneratorConfig(topology="random_tree", max_nodes=6,
                                     min_agents=2, max_agents=4)
        worst = {}
        for specs, cfg in ((line_only, small_line), (tree_ok, small_tree)):
            for spec in specs:
                mech = parse_mechanism(spec)
                regret = 0.0
                seed = zlib.crc32(spec.encode()) & 0xFFFF
                for net, prof in generate(replace(cfg, seed=seed), 200):
                    regret = max(regret, sp_check(mech, net, prof).max_regret)
                worst[spec, cfg.topology] = regret
        net, resolve = line_with_coordinates([-2.0, 2.0], extra_nodes=[0.0])
        prof = LocationProfile(net, [resolve(0.0), resolve(2.0)])
        control = sp_check(AverageOnly(), net, prof).max_regret
        ok = max(worst.values()) <= 1e-7 and control >= 0.5
        report(6, ok,
               f"{len(worst)} family-topology pairs x 200 instances, "
               f"max regret {max(worst.values()):.2e}; "
               f"negative control regret {control:.3f}",
               time.perf_counter() - t0, 120.0)

    def test_07_boomerang_suite(self):
        t0 = time.perf_counter()
        cases = [
            (Dictator(1), GeneratorConfig(topology="random_tree", max_nodes=6,
                                          min_agents=2, max_agents=4)),
            (KthLocation(1), GeneratorConfig(topology="line", max_nodes=6,
                                             min_agents=2, max_agents=4)),
            (TreeMedian(), GeneratorConfig(topology="random_tree", max_nodes=6,
                                           min_agents=2, max_agents=4)),
            (DGM(1, Q23), GeneratorConfig(topology="random_tree", max_nodes=6,
                                          min_agents=2, max_agents=4)),
        ]
        worst = 0.0
        for mech, cfg in cases:
            for net, prof in generate(replace(cfg, seed=107), 200):
                worst = max(worst, boomerang_check(mech, net, prof).max_violation)
        net, resolve = line_with_coordinates([0.0, 4.0], extra_nodes=[1.0, 2.0, 3.0])
        prof = LocationProfile(net, [resolve(0.0), resolve(2.0)])
        control = boomerang_check(AverageOnly(), net, prof).max_violation
        report(7, worst <= 1e-7 and control >= 0.1,
               f"4 families x 200 instances, max violation {worst:.2e}; "
               f"negative control violation {control:.3f}",
               time.perf_counter() - t0, 60.0)

    def test_08_weighted_average_matches_brute_force(self):
        t0 = time.perf_counter()
        cfg = GeneratorConfig(topology="random_tree", max_nodes=8,
                              min_agents=2, max_agents=6, seed=108)
        worst_loc = 0.0
        worst_rel = 0.0
        for net, prof in generate(cfg, 200):
            m = len(prof)
            w = [1.0 / m] * m
            out = weighted_average(net, list(prof), w)
            holds, _ = verify_wavg_condition(net, out, list(prof), w)
            assert holds
            p_grid, v_grid = grid_optimum(net, list(prof), w)
            v_out = sum(wi * net.distance(out, y) ** 2 for wi, y in zip(w, prof))
            worst_loc = max(worst_loc, net.distance(out, p_grid))
            if v_grid > 1e-12:
                worst_rel = max(worst_rel, (v_out - v_grid) / v_grid)
        report(8, worst_loc <= 1e-4 and worst_rel <= 1e-6,
               f"200 trees: max location gap {worst_loc:.2e}, "
               f"max relative value excess {worst_rel:.2e}",
               time.perf_counter() - t0, 60.0)

    def test_09_structural_identities_and_two_block_inequalities(self):
        t0 = time.perf_counter()
        import random as _random

        rng = _random.Random(109)
        worst = {}
        for kind in ("wavg_movement", "cost_difference", "flattening"):
            gap = 0.0
            check, make_instance = IDENTITY_CHECKS[kind]
            for _ in range(200):
                rep = check(*make_instance(rng))
                assert rep.holds, (kind, rep)
                if kind == "wavg_movement":
                    gap = max(gap, rep.lhs - rep.rhs)
                else:
                    gap = max(gap, abs(rep.lhs - rep.rhs))
            worst[kind] = gap
        sp_mechs = [TreeMedian(), parse_mechanism("half-avg-rd"),
                    parse_mechanism("rd"), parse_mechanism("lrm"),
                    KthLocation(1), Dictator(1)]
        grids_ok = True
        for mech in sp_mechs:
            for (a, b, c) in ((0.0, 1.0, 3.0), (0.0, 2.0, 4.0), (1.0, 1.5, 2.0)):
                for n in (2, 3, 4, 5):
                    holds, _ = immigrants_check(mech, a, b, c, n)
                    grids_ok = grids_ok and holds
        ok = max(worst.values()) <= 1e-9 and grids_ok
        report(9, ok,
               f"identities x 200 each, worst gap {max(worst.values()):.2e}; "
               f"two-block inequality grids {'hold' if grids_ok else 'VIOLATED'}",
               time.perf_counter() - t0, 30.0)

    def test_10_randomized_dgm_outputs_on_one_path(self):
        t0 = time.perf_counter()
        cfg = GeneratorConfig(topology="random_tree", max_nodes=12,
                              min_agents=2, max_agents=6, seed=110)
        mech = RandomizedDGM(Q23)
        ok = True
        for net, prof in generate(cfg, 500):
            pts = mech.member_points(net, prof)
            if not points_on_single_path(net, pts, tol=1e-9):
                ok = False
                break
        report(10, ok, "rdgm(2/3) member outputs collinear on 500 random trees",
               time.perf_counter() - t0, 30.0)

    def test_11_lrm_minimax_bound_and_witness(self):
        t0 = time.perf_counter()
        mech = parse_mechanism("lrm")
        worst = 0.0
        for net, prof in line_profiles(500, seed=111):
            rep = approx_ratio(mech, net, prof, Objective.MINIMAX)
            if rep.ratio is not None:
                worst = max(worst, rep.ratio)
        wit = approx_ratio(mech, *lower_bound_witness("randomized_15_family", n=2),
                           Objective.MINIMAX)
        report(11, worst <= 1.5 + 1e-9 and abs(wit.ratio - 1.5) <= 1e-9,
               f"lrm minimax max ratio {worst:.9f} on 500 line profiles, "
               f"witness ratio {wit.ratio:.9f}",
               time.perf_counter() - t0, 5.0)
