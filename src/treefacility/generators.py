"""Seeded instance generators for experiments and property tests."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .network import LocationProfile, Point, TreeNetwork


# Every generated edge length is drawn uniformly from this range.
EDGE_LENGTHS = (0.5, 2.0)
TOPOLOGIES = ("line", "star", "caterpillar", "random_tree")
PLACEMENTS = ("anywhere", "nodes_only")
# The most nodes, agents or witness agents one instance may have.
MAX_COUNT = 100_000


class BadConfigError(ValueError):
    pass


@dataclass(frozen=True)
class GeneratorConfig:
    topology: str = "random_tree"  # one of TOPOLOGIES
    min_nodes: int = 2
    max_nodes: int = 10
    min_agents: int = 2
    max_agents: int = 6
    placement: str = "anywhere"  # one of PLACEMENTS
    seed: int = 0

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise BadConfigError(f"unknown topology {self.topology!r}")
        if self.placement not in PLACEMENTS:
            raise BadConfigError(f"unknown placement {self.placement!r}")
        for what, low, high in (("node", self.min_nodes, self.max_nodes),
                                ("agent", self.min_agents, self.max_agents)):
            if low < 1 or high < low:
                raise BadConfigError(f"bad {what} count range")
            if high > MAX_COUNT:
                raise BadConfigError(f"max {what} count {high} is above {MAX_COUNT}")


def _make_network(rng, config) -> TreeNetwork:
    v = rng.randint(config.min_nodes, config.max_nodes)
    edges = []
    if config.topology == "line":
        edges = [(i, i + 1, rng.uniform(*EDGE_LENGTHS)) for i in range(v - 1)]
    elif config.topology == "star":
        edges = [(0, i, rng.uniform(*EDGE_LENGTHS)) for i in range(1, v)]
    elif config.topology == "caterpillar":
        spine = max(1, v // 2)
        edges = [(i, i + 1, rng.uniform(*EDGE_LENGTHS)) for i in range(spine - 1)]
        for leg in range(spine, v):
            edges.append((rng.randrange(spine), leg, rng.uniform(*EDGE_LENGTHS)))
    else:  # random_tree: uniform random attachment
        edges = [(rng.randrange(i), i, rng.uniform(*EDGE_LENGTHS)) for i in range(1, v)]
    return TreeNetwork(v, edges)


def random_point(rng, network: TreeNetwork, placement: str = "anywhere") -> Point:
    if placement == "nodes_only" or not network.edges:
        return Point.at_node(rng.randrange(network.node_count))
    # Edge chosen proportionally to its length, offset uniform within it.
    total = network.total_length()
    r = rng.random() * total
    for e, (_, _, w) in enumerate(network.edges):
        if r <= w:
            return network.point_on_edge(e, max(min(r, w), 0.0))
        r -= w
    return network.point_on_edge(len(network.edges) - 1, network.edges[-1][2] / 2)


def generate(config: GeneratorConfig, count: int):
    """The first ``count`` (network, profile) pairs of the deterministic
    stream for the config's seed."""
    rng = random.Random(config.seed)
    for _ in range(count):
        network = _make_network(rng, config)
        n = rng.randint(config.min_agents, config.max_agents)
        profile = LocationProfile(
            network, [random_point(rng, network, config.placement) for _ in range(n)]
        )
        yield network, profile

