import importlib
import inspect
import json
import pkgutil
import re
import shlex
from dataclasses import replace
from pathlib import Path

import pytest

import treefacility
from treefacility import cli
from treefacility.generators import (
    MAX_COUNT,
    BadConfigError,
    GeneratorConfig,
    generate,
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
from oracles import line_with_coordinates


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

    # Every benchmark input is built through generate, so its stream is
    # pinned across versions, not only within one run.
    GOLDEN = {
        ("line", "anywhere"): ["c6efbf4928de", "b4699ff77341", "4492ff0cd057", "aa02cf058802"],
        ("line", "nodes_only"): ["aedc6b27f07a", "2b776dc34d45", "5712ef194375", "b4522309917c"],
        ("star", "anywhere"): ["7e03d7aa45d4", "811d37483695", "a4e1fd321a62", "48f3b167eace"],
        ("star", "nodes_only"): ["e80f683461c6", "7d1256a1398d", "216d10fb3dd3", "567fcfd0ecb7"],
        ("caterpillar", "anywhere"): ["11a247c323f9", "96ace409346a", "18aaca5d6611",
                                      "a10b856e71b2"],
        ("caterpillar", "nodes_only"): ["6658b2af590e", "480b8d4c9e0c", "11e8f32df2e7",
                                        "508b62860d7c"],
        ("random_tree", "anywhere"): ["9eac6be61ea7", "c5005fe34617", "77ce7ef5bf22",
                                      "94a940d9006b"],
        ("random_tree", "nodes_only"): ["815642541b4b", "474aef615265", "26fdb1256d61",
                                        "7dd6c55f732c"],
    }

    @pytest.mark.parametrize("topology,placement", sorted(GOLDEN))
    def test_stream_is_pinned(self, topology, placement):
        cfg = GeneratorConfig(topology=topology, placement=placement, max_nodes=12,
                              max_agents=8, seed=5)
        digests = [instance_digest(n, p) for n, p in generate(cfg, 4)]
        assert digests == self.GOLDEN[topology, placement]

    def test_large_tree_stream_is_pinned(self):
        cfg = GeneratorConfig(min_nodes=1000, max_nodes=1000, min_agents=200,
                              max_agents=200, seed=5)
        digests = [instance_digest(n, p) for n, p in generate(cfg, 2)]
        assert digests == ["28f58fba82e3", "6fea0cf977d4"]

    def test_different_seeds_differ(self):
        cfg = GeneratorConfig(max_nodes=10, seed=1)
        a = [instance_digest(n, p) for n, p in generate(cfg, 5)]
        b = [instance_digest(n, p) for n, p in generate(replace(cfg, seed=2), 5)]
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

    @pytest.mark.parametrize("field", ["max_nodes", "max_agents"])
    def test_count_above_max_count(self, field):
        GeneratorConfig(**{field: MAX_COUNT})
        with pytest.raises(BadConfigError, match=f"count {MAX_COUNT + 1} is above {MAX_COUNT}"):
            GeneratorConfig(**{field: MAX_COUNT + 1})


class TestRoundTrip:
    def test_generate_write_read(self, tmp_path):
        cfg = GeneratorConfig(max_nodes=10, max_agents=6, seed=99)
        for i, (net, prof) in enumerate(generate(cfg, 10)):
            doc = instance_to_json(net, prof)
            text = json.dumps(doc)
            net2, prof2 = profile_from_json(json.loads(text))
            assert net2.to_json() == net.to_json()
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

    @pytest.mark.parametrize("command", ["eval", "sp-check"])
    @pytest.mark.parametrize("nest", ["mix:[({},1)]", "pb:[{}]:[1]"])
    def test_spec_nested_past_the_stack_exit_2(self, two_agents_file, capsys, command, nest):
        spec = "median"
        for _ in range(600):
            spec = nest.format(spec)
        rest = ["--instance", two_agents_file] if command == "eval" else ["--budget", "1"]
        assert cli.main([command, "--mech", spec, *rest]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: bad mechanism spec")
        assert err[0].endswith("nested too deeply")

    @pytest.mark.parametrize("network_file", [False, True])
    def test_json_nested_past_the_stack_exit_2(self, tmp_path, capsys, network_file):
        deep = "[" * 100_000
        path = tmp_path / "deep.json"
        if network_file:
            (tmp_path / "net.json").write_text(deep)
            path.write_text(json.dumps({"network": "net.json", "locations": [{"node": 0}]}))
        else:
            path.write_text('{"network": ' + deep)
        assert cli.main(["eval", "--mech", "median", "--instance", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert err[0].endswith("JSON nested too deeply")

    def test_integer_length_past_the_largest_float_exit_2(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text('{"network": {"nodes": 2, "edges": [[0, 1, %s]]}, '
                        '"locations": [{"node": 0}]}' % ("9" * 401))
        assert cli.main(["eval", "--mech", "median", "--instance", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: edge (0, 1) has a length too large for a float\n"

    @pytest.mark.parametrize("network_file", [False, True])
    def test_integer_past_the_digit_limit_exit_2(self, tmp_path, capsys, network_file):
        # From Python 3.11 on, int() reads at most 4300 digits; on older
        # interpreters this length overflows a float instead.
        net = '{"nodes": 2, "edges": [[0, 1, %s]]}' % ("9" * 5000)
        path = tmp_path / "long.json"
        if network_file:
            (tmp_path / "net.json").write_text(net)
            net = '"net.json"'
        path.write_text('{"network": %s, "locations": [{"node": 0}]}' % net)
        assert cli.main(["eval", "--mech", "median", "--instance", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("network_file", [False, True])
    @pytest.mark.parametrize("text, reason", [
        ('{"nodes": 2, "edges": [[0, 1, 1.0]]\n', "Expecting ',' delimiter"),
        (b'{"nodes": 2, "edges": [[0, 1, 1.0]]}\xff', "codec can't decode byte 0xff"),
    ], ids=["truncated", "not-utf8"])
    def test_malformed_json_file_names_itself(self, tmp_path, capsys, network_file, text,
                                              reason):
        bad = tmp_path / ("net.json" if network_file else "instance.json")
        network = text if isinstance(text, bytes) else text.encode()
        if network_file:
            bad.write_bytes(network)
            (tmp_path / "instance.json").write_text(
                json.dumps({"network": "net.json", "locations": [{"node": 0}]}))
        else:
            bad.write_bytes(b'{"locations": [{"node": 0}], "network": ' + network)
        argv = ["eval", "--mech", "median", "--instance", str(tmp_path / "instance.json")]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: ") and reason in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_readme_examples_run_as_written(self, tmp_path, monkeypatch, capsys):
        """Each line of README.md's Examples block exits 0 in a directory
        holding the README's instance file as two_agents.json, and a line
        commented with an output line prints it."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        instance = re.search(r"Instance files are JSON:\n\n```json\n(.*?)```", readme, re.S)
        examples = re.search(r"\nExamples:\n\n```sh\n(.*?)```", readme, re.S)
        (tmp_path / "two_agents.json").write_text(instance.group(1))
        monkeypatch.chdir(tmp_path)
        lines = examples.group(1).splitlines()
        assert len(lines) == 7
        checked = []
        for line in lines:
            command, _, expected = line.partition("#")
            prog, *argv = shlex.split(command)
            assert prog == "treefacility"
            assert cli.main(argv) == 0, line
            out = capsys.readouterr().out.splitlines()
            if expected.strip():
                assert expected.strip() in out, line
                checked.append(expected.strip())
        assert checked == ["ratio: 1.5"]

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
        replayed = profile_from_json(json.loads(out_path.read_text()))
        assert instance_to_json(*replayed) == instance_to_json(net, prof)
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

    def test_ratio_records(self, tmp_path, capsys):
        out = tmp_path / "ratios.jsonl"
        code = cli.main(["ratio", "--mech", "half-avg-rd", "--topology", "line",
                        "--budget", "10", "--seed", "5", "--out", str(out)])
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 10
        for record in records:
            assert (record["topology"], record["seed"]) == ("line", 5)
            if record["ratio"] is not None:
                assert record["ratio"] == pytest.approx(1.5, abs=1e-9)

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

    def test_every_package_error_is_a_usage_error(self):
        """Every exception class the package defines is caught by main, which
        exits 2 with one error: line instead of a traceback."""
        classes = {cls for info in pkgutil.iter_modules(treefacility.__path__)
                   for _, cls in inspect.getmembers(
                       importlib.import_module(f"treefacility.{info.name}"), inspect.isclass)
                   if issubclass(cls, Exception) and cls.__module__.startswith("treefacility.")}
        assert classes
        assert sorted(cls.__name__ for cls in classes if not issubclass(cls, cli.USAGE_ERRORS)) == []

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

    @pytest.mark.parametrize("length", ["Infinity", "NaN"])
    def test_infinite_or_nan_length_exit_2(self, tmp_path, capsys, length):
        # json.load accepts these two non-standard literals.
        path = tmp_path / "nonfinite.json"
        path.write_text('{"network": {"nodes": 2, "edges": [[0, 1, %s]]}, '
                        '"locations": [{"node": 0}]}' % length)
        code = cli.main(["eval", "--mech", "median", "--instance", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        value = {"Infinity": "inf", "NaN": "nan"}[length]
        assert captured.err == f"error: edge (0, 1) has length {value}: a length must be finite and positive\n"

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
        [line] = capsys.readouterr().out.splitlines()
        assert code == 0
        doc = json.loads(line)
        assert sorted(doc) == ["locations", "network"]
        assert len(doc["locations"]) == 4
        for kind in ("deterministic_2", "randomized_15_family"):
            code = cli.main(["witness", "--kind", kind, "--n", "3"])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == "" and captured.err == f"error: {kind} needs an even n >= 2\n"

    def test_witness_n_above_max_count_exit_2(self):
        argv = ["witness", "--kind", "deterministic_2", "--n", "10000000000"]
        done = run_capped(f"import sys\nfrom treefacility import cli\nsys.exit(cli.main({argv!r}))\n")
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == f"error: deterministic_2 needs n <= {MAX_COUNT}, got 10000000000\n"

    @pytest.mark.parametrize("argv", [
        ["witness", "--kind", "randomized_15_family", "--n", "6"],
        ["witness", "--kind", "randomized_15_family", "--n", "6", "--out"],
        ["sp-check", "--mech", "median", "--budget", "3", "--out"],
        ["boomerang-check", "--mech", "kth:1", "--budget", "3", "--topology", "line", "--out"],
        ["search", "--mech", "median", "--budget", "5", "--out"],
        ["generate", "--budget", "1", "--out"],
    ], ids=["witness-stdout", "witness", "sp-check", "boomerang-check", "search", "generate"])
    def test_every_written_instance_is_read_by_eval(self, tmp_path, capsys, argv):
        path = tmp_path / "instance.json"
        if argv[-1] == "--out":
            assert cli.main([*argv, str(path)]) == 0
        else:
            assert cli.main(argv) == 0
            path.write_text(capsys.readouterr().out)
        capsys.readouterr()
        assert cli.main(["eval", "--mech", "median", "--instance", str(path)]) == 0
        assert capsys.readouterr().err == ""

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


def write_records(path, *records):
    """One JSON line per record; a str record is written as it is."""
    path.write_text("".join((r if isinstance(r, str) else json.dumps(r)) + "\n" for r in records))
    return str(path)


def record(mechanism="median", ratio=1.5, topology=None):
    """A `ratio` record; `report` reads its mechanism, objective, topology and ratio."""
    return {"digest": "deadbeef0000", "topology": topology, "mechanism": mechanism,
            "objective": "minisos", "mech_cost": 3.0, "opt_cost": 2.0, "ratio": ratio,
            "seed": None}


class TestReport:
    def run_ratio(self, tmp_path, name, mech, topology="line", budget=8, seed=5):
        out = tmp_path / name
        assert cli.main(["ratio", "--mech", mech, "--topology", topology,
                         "--budget", str(budget), "--seed", str(seed),
                         "--out", str(out)]) == 0
        return out

    def report(self, tmp_path, *paths, code=0):
        out = tmp_path / "report.jsonl"
        assert cli.main(["report", *map(str, paths), "--out", str(out)]) == code
        return [json.loads(line) for line in out.read_text().splitlines()]

    def test_within_bounds_no_flags(self, tmp_path, capsys):
        a = self.run_ratio(tmp_path, "rd.jsonl", "rd")
        b = self.run_ratio(tmp_path, "half.jsonl", "half-avg-rd")
        rows = self.report(tmp_path, a, b)
        assert capsys.readouterr().out == ""
        assert list(rows[0]) == ["mechanism", "objective", "topology", "instances", "zero_opt",
                                 "max_ratio", "mean_ratio", "bound", "over_bound"]
        assert not any(row["over_bound"] for row in rows)
        half, rd = rows
        # Both groups are on lines, so both are held to their line bounds.
        assert (rd["mechanism"], rd["topology"], rd["bound"]) == ("rd", "line", 2.0)
        assert (half["mechanism"], half["topology"], half["bound"]) == ("half-avg-rd", "line", 1.5)
        assert half["max_ratio"] == pytest.approx(1.5, abs=1e-9)
        assert half["mean_ratio"] == pytest.approx(1.5, abs=1e-9)

    def test_injected_over_bound_row_flags(self, tmp_path, capsys):
        bad = write_records(tmp_path / "bad.jsonl", record("median", 2.5))
        (row,) = self.report(tmp_path, bad, code=1)
        assert (row["bound"], row["max_ratio"], row["over_bound"]) == (2.0, 2.5, True)

    def test_line_rd_record_over_its_bound_flags(self, tmp_path, capsys):
        bad = write_records(tmp_path / "rd.jsonl", record("rd", 2.5, "line"),
                            record("rd", 1.9, "star"))
        rows = self.report(tmp_path, bad, code=1)
        assert [(r["topology"], r["bound"], r["over_bound"]) for r in rows] == [
            ("line", 2.0, True), ("star", None, False)]

    def test_rd_row_is_not_held_to_the_line_bound(self, tmp_path, capsys):
        # A record over an instance file carries no topology, so the
        # line-only bounds of rd and half-avg-rd do not apply.
        rows = write_records(tmp_path / "rd.jsonl", record("rd", 2.666666667),
                             record("half-avg-rd", 1.833333333))
        assert [(r["bound"], r["over_bound"]) for r in self.report(tmp_path, rows)] == [
            (None, False), (None, False)]

    def test_null_and_named_topologies_sort(self, tmp_path, capsys):
        rows = write_records(tmp_path / "r.jsonl", record(topology="line"), record(),
                             record(topology="caterpillar"))
        assert [r["topology"] for r in self.report(tmp_path, rows)] == [
            None, "caterpillar", "line"]

    def test_zero_optimum_rows_are_counted(self, tmp_path, capsys):
        # 8 of these 20 three-node instances put every agent on one node:
        # their optimum is 0 and their record's ratio is null.
        rows = tmp_path / "r.jsonl"
        assert cli.main(["ratio", "--mech", "median", "--topology", "line",
                         "--placement", "nodes_only", "--max-nodes", "3",
                         "--budget", "20", "--seed", "2", "--out", str(rows)]) == 0
        ratios = [r["ratio"] for r in map(json.loads, rows.read_text().splitlines())
                  if r["ratio"] is not None]
        (row,) = self.report(tmp_path, rows)
        assert (row["instances"], row["zero_opt"]) == (20, 8)
        assert row["max_ratio"] == max(ratios)
        assert row["mean_ratio"] == pytest.approx(sum(ratios) / len(ratios), rel=1e-12)

    def test_mean_of_the_largest_ratios_is_finite(self, tmp_path, capsys):
        # A float sum of these two ratios is inf, which is not JSON.
        big = write_records(tmp_path / "big.jsonl", record(ratio=1e308), record(ratio=1e308))
        (row,) = self.report(tmp_path, big, code=1)
        assert row["mean_ratio"] == 1e308

    @pytest.mark.parametrize("line", [
        "this,is,not", "[1, 2]", '"median"', json.dumps({"mechanism": "median"}),
        json.dumps({**record(), "mechanism": 3}), json.dumps({**record(), "objective": None}),
        json.dumps({**record(), "topology": "ring"}), json.dumps({**record(), "ratio": "2"}),
        json.dumps({**record(), "ratio": True}), "[" * 100_000,
        json.dumps(record()).replace("1.5", "9" * 400),
        json.dumps(record()).replace("1.5", "9" * 5000),
    ], ids=["not-json", "list", "string", "missing-keys", "mechanism", "objective",
            "topology", "ratio-string", "ratio-bool", "deep", "long-int", "digit-limit"])
    def test_malformed_record_exit_2(self, tmp_path, capsys, line):
        bad = write_records(tmp_path / "bad.jsonl", record(), line, record())
        assert cli.main(["report", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}:2: malformed record (")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("ratios", [["NaN", "3.0"], ["Infinity"], ["-3"]])
    def test_ratio_that_is_not_finite_and_nonnegative_exit_2(self, tmp_path, capsys, ratios):
        # A NaN first would make max() return NaN and hide the 3.0 record.
        bad = write_records(tmp_path / "bad.jsonl", *(
            json.dumps(record()).replace("1.5", ratio) for ratio in ratios))
        assert cli.main(["report", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {bad}:1: malformed record "
                                "(ratio must be null or a finite number >= 0)\n")

    def test_file_without_records_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert cli.main(["report", str(empty)]) == 2
        assert capsys.readouterr().err == f"error: {empty}: no records\n"
