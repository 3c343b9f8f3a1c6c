import csv
import json

import pytest

from treefacility import cli
from treefacility.generators import (
    BadConfigError,
    GeneratorConfig,
    generate,
    line_with_coordinates,
    random_point,
)
from treefacility.network import (
    LocationProfile,
    Point,
    instance_digest,
    instance_to_json,
    network_from_json,
    profile_from_json,
)
from treefacility.mechanisms import AverageOnly, RandomDictator
from treefacility.objectives import CostOverflowError, expected_social_cost, social_cost
from treefacility.verify import boomerang_check, sp_check

from conftest import line_net, run_capped


def write_instance(path, network, profile):
    path.write_text(json.dumps(instance_to_json(network, profile)))
    return str(path)


@pytest.fixture
def two_agents_file(tmp_path):
    doc = {
        "network": {"nodes": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]]},
        "locations": [{"node": 0}, {"node": 2}],
    }
    p = tmp_path / "two_agents.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture
def cyclic_file(tmp_path):
    doc = {
        "network": {"nodes": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0]]},
        "locations": [{"node": 0}],
    }
    p = tmp_path / "cyclic.json"
    p.write_text(json.dumps(doc))
    return str(p)


class TestGenerator:
    def test_same_seed_same_instances(self):
        cfg = GeneratorConfig(max_nodes=10, max_agents=6, seed=12345)
        a = [instance_digest(n, p) for n, p in generate(cfg, 20)]
        b = [instance_digest(n, p) for n, p in generate(cfg, 20)]
        assert a == b

    def test_different_seeds_differ(self):
        cfg = GeneratorConfig(max_nodes=10, seed=1)
        a = [instance_digest(n, p) for n, p in generate(cfg, 5)]
        b = [instance_digest(n, p) for n, p in generate(cfg.with_seed(2), 5)]
        assert a != b

    def test_line_topology_is_line(self):
        cfg = GeneratorConfig(topology="line", max_nodes=8, seed=3)
        for net, _ in generate(cfg, 10):
            assert max(len(nbrs) for nbrs in net.adjacency) <= 2

    def test_star_topology(self):
        cfg = GeneratorConfig(topology="star", min_nodes=4, max_nodes=8, seed=4)
        for net, _ in generate(cfg, 10):
            degrees = [0] * net.node_count
            for u, v, _ in net.edges:
                degrees[u] += 1
                degrees[v] += 1
            assert degrees[0] == net.node_count - 1
            assert all(d == 1 for d in degrees[1:])

    def test_nodes_only_placement(self):
        cfg = GeneratorConfig(placement="nodes_only", max_nodes=6, seed=5)
        for _, prof in generate(cfg, 10):
            assert all(x.is_node for x in prof)

    def test_edge_mass_proportional_to_length(self, rng):
        net = line_net(1.0, 3.0)
        hits = [0, 0]
        trials = 1000
        for _ in range(trials):
            p = random_point(rng, net)
            hits[p.edge if not p.is_node else 0] += 1
        assert hits[1] / trials == pytest.approx(0.75, abs=0.05)

    def test_bad_config(self):
        with pytest.raises(BadConfigError):
            GeneratorConfig(topology="ring")
        with pytest.raises(BadConfigError):
            GeneratorConfig(min_nodes=5, max_nodes=3)


class TestRoundTrip:
    def test_generate_write_read(self, tmp_path):
        cfg = GeneratorConfig(max_nodes=10, max_agents=6, seed=99)
        for i, (net, prof) in enumerate(generate(cfg, 10)):
            doc = instance_to_json(net, prof)
            text = json.dumps(doc)
            net2, prof2 = profile_from_json(json.loads(text))
            assert net2 == net
            assert list(prof2) == list(prof)
            assert instance_digest(net2, prof2) == instance_digest(net, prof)


class TestCLI:
    def test_eval_rd(self, two_agents_file, capsys):
        code = cli.main(["eval", "--mech", "rd", "--instance", two_agents_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "cost: 4" in out
        assert "opt: 2" in out
        assert "ratio: 2" in out

    def test_eval_cyclic_exit_2(self, cyclic_file, capsys):
        code = cli.main(["eval", "--mech", "median", "--instance", cyclic_file])
        err = capsys.readouterr().err
        assert code == 2
        assert "cycle" in err.lower() or "cyclic" in err.lower()

    @pytest.mark.parametrize("edges, location", [
        ([[0, 1, 1.0]], {"node": "1"}),
        ([[0, 1]], {"node": 1}),
        ([[0, 1, "1.0"]], {"node": 1}),
        ([[0.5, 1, 1.0]], {"node": 1}),
        ([[0, 1, 1.0]], {"edge": "0", "offset": 0.5}),
        ([[0, 1, 1.0]], {"edge": 0, "offset": "0.5"}),
    ], ids=["string-node", "two-field-edge", "string-length", "float-edge-end",
            "string-edge", "string-offset"])
    def test_eval_malformed_instance_exit_2(self, tmp_path, capsys, edges, location):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"network": {"nodes": 2, "edges": edges},
                                    "locations": [{"node": 0}, location]}))
        code = cli.main(["eval", "--mech", "median", "--instance", str(path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("locations", [None, 5])
    def test_eval_non_list_locations_exit_2(self, tmp_path, capsys, locations):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"network": {"nodes": 2, "edges": [[0, 1, 1.0]]},
                                    "locations": locations}))
        code = cli.main(["eval", "--mech", "median", "--instance", str(path)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "locations" in err[0]

    def test_eval_nul_in_network_path_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nul.json"
        path.write_text(json.dumps({"network": "a\0b", "locations": [{"node": 0}]}))
        code = cli.main(["eval", "--mech", "median", "--instance", str(path)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "NUL" in err[0]

    @pytest.mark.parametrize("command", [["eval", "--mech", "median", "--instance"], ["report"]])
    def test_undecodable_file_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{}")
        code = cli.main([*command, str(path)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_eval_node_count_beyond_edges_exit_2(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"network": {"nodes": 10**20, "edges": []},
                                    "locations": [{"node": 0}]}))
        argv = ["eval", "--mech", "median", "--instance", str(path)]
        done = run_capped(f"import sys\nfrom treefacility import cli\nsys.exit(cli.main({argv!r}))\n")
        assert done.returncode == 2
        assert done.stderr.startswith("error:") and "cannot connect" in done.stderr

    def test_eval_near_endpoint_offset_is_the_node(self, tmp_path, capsys):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"network": {"nodes": 2, "edges": [[0, 1, 1.0]]},
                                    "locations": [{"node": 0}, {"edge": 0, "offset": 1e-13}]}))
        code = cli.main(["eval", "--mech", "median", "--instance", str(path)])
        assert code == 0
        assert "opt: 0\n" in capsys.readouterr().out

    def test_eval_bad_mech_exit_2(self, two_agents_file, capsys):
        code = cli.main(["eval", "--mech", "bogus", "--instance", two_agents_file])
        assert code == 2

    @pytest.mark.parametrize("spec", [
        "dictator:1:2", "kth:1:junk", "kth:n:", "mix:(median,1)",
        "mix:[(median,1/2),(rd,1/2)", "pb:[median,dgm:2:2/3]:[1/2,1/2]]]",
    ])
    def test_eval_malformed_spec_exit_2(self, two_agents_file, capsys, spec):
        code = cli.main(["eval", "--mech", spec, "--instance", two_agents_file])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_opt(self, two_agents_file, capsys):
        code = cli.main(["opt", "--instance", two_agents_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "cost: 2" in out

    def test_sp_check_passes(self, capsys):
        code = cli.main(["sp-check", "--mech", "median", "--budget", "5",
                         "--seed", "3", "--max-nodes", "6", "--max-agents", "4"])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_sp_check_catches_manipulable(self, tmp_path, capsys):
        net, resolve = line_with_coordinates([-2.0, 2.0], extra_nodes=[0.0])
        prof = LocationProfile(net, [resolve(0.0), resolve(2.0)])
        path = write_instance(tmp_path / "inst.json", net, prof)
        code = cli.main(["sp-check", "--mech", "avg-only", "--instance", path])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    @staticmethod
    def printed_witness(out):
        return json.loads(next(line for line in out.splitlines()
                               if line.startswith("worst: "))[len("worst: "):])

    def test_sp_check_names_and_writes_its_worst_witness(self, tmp_path, capsys):
        net, resolve = line_with_coordinates([-2.0, 2.0], extra_nodes=[0.0])
        prof = LocationProfile(net, [resolve(0.0), resolve(2.0)])
        path = write_instance(tmp_path / "inst.json", net, prof)
        out_path = tmp_path / "worst.json"
        assert cli.main(["sp-check", "--mech", "avg-only", "--instance", path,
                         "--out", str(out_path)]) == 1
        witness = self.printed_witness(capsys.readouterr().out)
        rep = sp_check(AverageOnly(), net, prof)
        agent, misreport, true_cost, dev_cost = rep.worst_case
        assert witness == {"instance": instance_digest(net, prof), "agent": agent + 1,
                           "misreport": misreport.to_json(), "true_cost": true_cost,
                           "deviated_cost": dev_cost}
        assert witness["true_cost"] - witness["deviated_cost"] == rep.max_regret > 0.0
        # eval replays the written instance.
        assert profile_from_json(json.loads(out_path.read_text())) == (net, prof)
        assert cli.main(["eval", "--mech", "avg-only", "--instance", str(out_path)]) == 0
        printed = capsys.readouterr().out.splitlines()[0]
        assert json.loads(printed[len("distribution: "):]) == AverageOnly().run(net, prof).to_json()

    def test_boomerang_check_names_both_outputs_of_the_worst_instance(self, tmp_path, capsys):
        out_path = tmp_path / "worst.json"
        code = cli.main(["boomerang-check", "--mech", "avg-only", "--budget", "5", "--seed", "3",
                         "--max-nodes", "6", "--max-agents", "4", "--out", str(out_path)])
        assert code == 1
        witness = self.printed_witness(capsys.readouterr().out)
        net, prof = profile_from_json(json.loads(out_path.read_text()))
        agent, misreport, y, y2 = boomerang_check(AverageOnly(), net, prof).worst_case
        assert witness == {"instance": instance_digest(net, prof), "agent": agent + 1,
                           "misreport": misreport.to_json(), "output": y.to_json(),
                           "deviated_output": y2.to_json()}

    @pytest.mark.parametrize("command", ["sp-check", "boomerang-check"])
    def test_grid_option_is_gone(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--mech", "median", "--budget", "1", "--grid", "0"])
        assert exc.value.code == 2
        assert "--grid" in capsys.readouterr().err

    def test_boomerang_check(self, capsys):
        code = cli.main(["boomerang-check", "--mech", "kth:1", "--budget", "5",
                         "--seed", "3", "--topology", "line",
                         "--max-nodes", "5", "--max-agents", "4"])
        assert code == 0

    def test_ratio_csv(self, tmp_path, capsys):
        out = tmp_path / "ratios.csv"
        code = cli.main(["ratio", "--mech", "half-avg-rd", "--topology", "line",
                        "--budget", "10", "--seed", "5", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        for row in rows:
            if row["ratio"]:
                assert float(row["ratio"]) == pytest.approx(1.5, abs=1e-9)

    def test_ratio_csv_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["ratio", "--mech", "median", "--budget", "8", "--seed", "21",
                "--out"]
        assert cli.main(argv + [str(a)]) == 0
        assert cli.main(argv + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_search_small(self, capsys):
        code = cli.main(["search", "--mech", "median", "--budget", "40",
                         "--seed", "9", "--max-nodes", "8", "--max-agents", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "worst ratio" in out

    @pytest.mark.parametrize("command", ["sp-check", "boomerang-check", "ratio",
                                         "lemma-check", "search", "generate"])
    def test_zero_budget_exit_2(self, command, capsys):
        subject = {"lemma-check": ["--kind", "flattening"], "generate": []}.get(
            command, ["--mech", "median"])
        for budget in ("0", "-2"):
            code = cli.main([command, *subject, "--budget", budget])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err.startswith("error:") and "budget" in captured.err

    def test_boomerang_check_randomized_mech_exit_2(self, capsys):
        code = cli.main(["boomerang-check", "--mech", "rd", "--budget", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "support" in err

    @pytest.mark.parametrize("command", ["sp-check", "boomerang-check"])
    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
    def test_bad_tolerance_exit_2(self, command, tolerance, capsys):
        code = cli.main([command, "--mech", "median", "--budget", "1",
                         "--max-nodes", "4", "--max-agents", "3", "--tolerance", tolerance])
        assert code == 2
        assert "tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["eval", "--mech", "median"], ["opt"]])
    def test_length_whose_square_overflows_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps({
            "network": {"nodes": 3, "edges": [[0, 1, 1e-300], [1, 2, 1e300]]},
            "locations": [{"node": 0}, {"node": 2}]}))
        code = cli.main([*command, "--instance", str(path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: total edge length")

    @staticmethod
    def overflowing_cost_file(tmp_path):
        # The length squared is finite, but two agents at one end put
        # 2 * 1.69e308 on a facility at the other.
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({
            "network": {"nodes": 2, "edges": [[0, 1, 1.3e154]]},
            "locations": [{"node": 0}, {"node": 0}, {"node": 1}]}))
        return str(path)

    def test_overflowing_cost_exit_2(self, tmp_path, capsys):
        code = cli.main(["eval", "--mech", "rd", "--instance", self.overflowing_cost_file(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: social cost")

    @pytest.mark.parametrize("command", [["eval", "--mech", "median"], ["opt"]])
    def test_finite_cost_near_overflow_exit_0(self, tmp_path, capsys, command):
        code = cli.main([*command, "--instance", self.overflowing_cost_file(tmp_path)])
        assert code == 0
        assert "inf" not in capsys.readouterr().out

    def test_overflowing_cost_raises(self):
        net = network_from_json({"nodes": 2, "edges": [[0, 1, 1.3e154]]})
        prof = LocationProfile(net, [Point.at_node(0)] * 2 + [Point.at_node(1)])
        assert social_cost(net, Point.at_node(0), prof) == 1.3e154 ** 2
        with pytest.raises(CostOverflowError):
            social_cost(net, Point.at_node(1), prof)
        with pytest.raises(CostOverflowError):
            expected_social_cost(net, RandomDictator().run(net, prof), prof)

    def test_rd_tree_search_has_no_line_bound(self, capsys):
        # rd's miniSOS bound of 2 holds on lines only; this search finds 2.9.
        code = cli.main(["search", "--mech", "rd", "--budget", "200", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out

    def test_rd_bound_applies_on_lines_only(self):
        assert cli._bound_for("rd", "minisos", "line") == 2.0
        assert cli._bound_for("rd", "minisos", "random_tree") is None

    def test_bounds_are_keyed_by_family(self):
        for q in ("2/3", "3/5"):
            assert cli._bound_for(f"rdgm:{q}", "minisos", None) == 1.83
        assert cli._bound_for("rdgm:2/3", "minisum", None) is None
        assert cli._bound_for("median", "minisos", "star") == 2.0
        assert cli._bound_for("dgm:1:2/3", "minisos", "line") is None

    def test_lemma_check(self, capsys):
        code = cli.main(["lemma-check", "--kind", "cost_difference",
                         "--budget", "10", "--seed", "2"])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_witness(self, capsys):
        code = cli.main(["witness", "--kind", "deterministic_2", "--n", "4"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out.splitlines()[0])
        assert len(doc["locations"]) == 4

    def test_witness_j_picks_one_member_of_the_randomized_family(self, capsys):
        code = cli.main(["witness", "--kind", "randomized_15_family", "--j", "2"])
        [line] = capsys.readouterr().out.splitlines()
        assert code == 0 and json.loads(line)["meta"]["j"] == 2
        code = cli.main(["witness", "--kind", "deterministic_2", "--j", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.startswith("error:")

    def test_generate_jsonl(self, tmp_path):
        out = tmp_path / "inst.jsonl"
        code = cli.main(["generate", "--budget", "4", "--seed", "13",
                         "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        for line in lines:
            doc = json.loads(line)
            assert "digest" in doc


class TestReport:
    def run_ratio(self, tmp_path, name, mech, topology="line", budget=8, seed=5):
        out = tmp_path / name
        assert cli.main(["ratio", "--mech", mech, "--topology", topology,
                         "--budget", str(budget), "--seed", str(seed),
                         "--out", str(out)]) == 0
        return out

    def test_within_bounds_no_flags(self, tmp_path, capsys):
        a = self.run_ratio(tmp_path, "rd.csv", "rd")
        b = self.run_ratio(tmp_path, "half.csv", "half-avg-rd")
        out = tmp_path / "report.csv"
        code = cli.main(["report", str(a), str(b), "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["flag"] == "" for row in rows)
        assert "max_regret" not in rows[0]
        half = next(r for r in rows if r["mechanism"] == "half-avg-rd")
        assert float(half["max_ratio"]) == pytest.approx(1.5, abs=1e-9)
        assert float(half["mean_ratio"]) == pytest.approx(1.5, abs=1e-9)

    def test_injected_over_bound_row_flags(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        with open(bad, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["instance_digest", "mechanism", "objective",
                        "mech_cost", "opt_cost", "ratio", "max_regret", "seed"])
            w.writerow(["deadbeef0000", "median", "minisos",
                        "5", "2", "2.5", "", "1"])
        out = tmp_path / "report.csv"
        code = cli.main(["report", str(bad), "--out", str(out)])
        assert code == 1
        text = out.read_text()
        assert "OVER-BOUND" in text

    def test_rd_row_is_not_held_to_the_line_bound(self, tmp_path, capsys):
        # A CSV carries no topology, so the line-only bounds of rd and
        # half-avg-rd do not apply.
        rows = tmp_path / "rd.csv"
        with open(rows, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["instance_digest", "mechanism", "objective",
                        "mech_cost", "opt_cost", "ratio", "max_regret", "seed"])
            w.writerow(["deadbeef0000", "rd", "minisos", "8", "3", "2.666666667", "", "1"])
            w.writerow(["deadbeef0000", "half-avg-rd", "minisos", "5.5", "3",
                        "1.833333333", "", "1"])
        out = tmp_path / "report.csv"
        assert cli.main(["report", str(rows), "--out", str(out)]) == 0
        assert "OVER-BOUND" not in out.read_text()

    def test_zero_optimum_rows_are_counted(self, tmp_path, capsys):
        # 8 of these 20 three-node instances put every agent on one node:
        # their optimum is 0 and their CSV row carries no ratio.
        rows = tmp_path / "r.csv"
        assert cli.main(["ratio", "--mech", "median", "--topology", "line",
                         "--placement", "nodes_only", "--max-nodes", "3",
                         "--budget", "20", "--seed", "2", "--out", str(rows)]) == 0
        with open(rows, newline="") as fh:
            ratios = [float(r["ratio"]) for r in csv.DictReader(fh) if r["ratio"]]
        out = tmp_path / "report.csv"
        assert cli.main(["report", str(rows), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert (row["instances"], row["zero_opt"]) == ("20", "8")
        assert float(row["max_ratio"]) == pytest.approx(max(ratios), rel=1e-8)
        assert float(row["mean_ratio"]) == pytest.approx(sum(ratios) / len(ratios), rel=1e-8)

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "junk.csv"
        bad.write_text("this,is,not\nratio,data,at all\n")
        assert cli.main(["report", str(bad)]) == 2
