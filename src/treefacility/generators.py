"""Seeded instance generators for experiments and property tests."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .network import LocationProfile, Point, TreeNetwork


# Every generated edge length is drawn uniformly from this range.
EDGE_LENGTHS = (0.5, 2.0)


class BadConfigError(ValueError):
    pass


@dataclass(frozen=True)
class GeneratorConfig:
    topology: str = "random_tree"  # line | star | caterpillar | random_tree
    min_nodes: int = 2
    max_nodes: int = 10
    min_agents: int = 2
    max_agents: int = 6
    placement: str = "anywhere"  # anywhere | nodes_only
    seed: int = 0

    def __post_init__(self):
        if self.topology not in ("line", "star", "caterpillar", "random_tree"):
            raise BadConfigError(f"unknown topology {self.topology!r}")
        if self.placement not in ("anywhere", "nodes_only"):
            raise BadConfigError(f"unknown placement {self.placement!r}")
        if self.min_nodes < 1 or self.max_nodes < self.min_nodes:
            raise BadConfigError("bad node count range")
        if self.min_agents < 1 or self.max_agents < self.min_agents:
            raise BadConfigError("bad agent count range")

    def with_seed(self, seed: int) -> "GeneratorConfig":
        return replace(self, seed=seed)


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


def line_with_coordinates(coords, extra_nodes=()):
    """A path network whose nodes sit at the given sorted-unique coordinates.

    Returns (network, coordinate -> Point resolver).  Coordinates may be any
    reals; they are shifted so the leftmost becomes node 0.
    """
    marks = sorted(set(float(c) for c in coords) | set(float(c) for c in extra_nodes))
    if len(marks) == 1:
        net = TreeNetwork(1, [])
        return net, lambda c: Point.at_node(0)
    base = marks[0]
    edges = [(i, i + 1, marks[i + 1] - marks[i]) for i in range(len(marks) - 1)]
    net = TreeNetwork(len(marks), edges)

    def resolve(c):
        return net.point_at_coordinate(float(c) - base)

    return net, resolve
