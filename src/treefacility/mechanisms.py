"""Facility-location mechanisms: boomerang primitives, the parameterized
composition over them, and the named line/tree mechanisms.

Every mechanism maps (network, profile) to a finite-support location
distribution; "randomized" mechanisms return the distribution itself, never a
sample, so evaluation is deterministic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .network import LocationProfile, TreeNetwork
from .objectives import (
    LocationDistribution,
    Objective,
    deviated_medians,
    generalized_medians,
    make_distribution,
    median_point,
    optimal_location,
    point_mass,
    weighted_average,
    _check_weights,
)


class MechanismError(ValueError):
    """A malformed mechanism spec, or a mechanism that cannot run on the
    profile it is given."""


def _sorted_agents(network, profile):
    """(coordinate, agent point) pairs in line order; NotALineError when the
    network is not a path."""
    return sorted(((network.coordinate_of(x), x) for x in profile), key=lambda cx: cx[0])


def _midpoint(network, a, b):
    """Midpoint of two sorted agents; of two coincident agents, that agent."""
    (ca, pa), (cb, pb) = a, b
    return pa if pa == pb else network.point_at_coordinate(0.5 * (ca + cb))


class Mechanism:
    """Base class; subclasses implement run() and may override deviations()."""

    name = "mechanism"
    boomerang = False  # known member of the deterministic boomerang family

    def run(self, network: TreeNetwork, profile: LocationProfile) -> LocationDistribution:
        raise NotImplementedError

    def deviations(self, network, profile, i, points):
        """The outputs with agent i at each of ``points``, one run per point."""
        return [self.run(network, profile.replace(network, i, p)) for p in points]

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class Dictator(Mechanism):
    boomerang = True

    def __init__(self, i: int):
        if i < 1:
            raise MechanismError(f"agent index {i} must be >= 1")
        self.i = i
        self.name = f"dictator:{i}"

    def run(self, network, profile):
        if self.i > len(profile):
            raise MechanismError(f"agent index {self.i} exceeds profile size {len(profile)}")
        return point_mass(profile[self.i - 1])

    def deviations(self, network, profile, i, points):
        if i == self.i - 1:
            return [point_mass(p) for p in points]
        return [self.run(network, profile)] * len(points) if points else []


class KthLocation(Mechanism):
    """Point mass at the k-th smallest coordinate on a line; k='n' means the
    rightmost agent."""

    boomerang = True

    def __init__(self, k):
        if k != "n" and (not isinstance(k, int) or k < 1):
            raise MechanismError(f"order statistic {k!r} must be >= 1 or 'n'")
        self.k = k
        self.name = f"kth:{k}"

    def run(self, network, profile):
        agents = _sorted_agents(network, profile)
        n = len(agents)
        k = n if self.k == "n" else self.k
        if k > n:
            raise MechanismError(f"order statistic {k} exceeds profile size {n}")
        return point_mass(agents[k - 1][1])


class TreeMedian(Mechanism):
    """Descend from node 0 into any branch holding strictly more than half
    the agents; stop when none does."""

    boomerang = True
    name = "median"

    def run(self, network, profile):
        return point_mass(median_point(network, profile))

    def deviations(self, network, profile, i, points):
        need = len(profile) // 2 + 1
        return [point_mass(y) for y, in deviated_medians(network, profile, i, points, need, [None])]


class DGM(Mechanism):
    """Dictatorial generalized median: walk from agent i's report into any
    branch holding at least ceil(q n) of the agents (q > 1/2, so at most one
    branch ever qualifies)."""

    boomerang = True

    def __init__(self, i: int, q: Fraction):
        q = Fraction(q)
        if not (Fraction(1, 2) < q <= 1):
            raise MechanismError(f"q={q} must satisfy 1/2 < q <= 1")
        if i < 1:
            raise MechanismError(f"agent index {i} must be >= 1")
        self.i = i
        self.q = q
        self.name = f"dgm:{i}:{q}"

    def run(self, network, profile):
        if self.i > len(profile):
            raise MechanismError(f"agent index {self.i} exceeds profile size {len(profile)}")
        need = math.ceil(self.q * len(profile))
        return point_mass(generalized_medians(network, profile, need, [self.i - 1])[0])

    def deviations(self, network, profile, i, points):
        if self.i > len(profile):  # every run raises MechanismError
            return super().deviations(network, profile, i, points)
        need = math.ceil(self.q * len(profile))
        return [point_mass(y) for y, in deviated_medians(network, profile, i, points, need,
                                                          [self.i - 1])]


def _compose(network, ys, weights):
    """The paper's composition: each y_i with probability w_i / 2, and the
    weighted average of the y_i with probability 1/2."""
    pairs = [(y, 0.5 * w) for y, w in zip(ys, weights)]
    pairs.append((weighted_average(network, ys, weights), 0.5))
    return make_distribution(pairs)


def _compose_each(network, yss, weights):
    """_compose of each member tuple in yss, each distinct tuple once."""
    memo = {}
    out = []
    for ys in map(tuple, yss):
        if ys not in memo:
            memo[ys] = _compose(network, ys, weights)
        out.append(memo[ys])
    return out


class PB(Mechanism):
    """Composition over boomerang members: each member's output with half its
    weight, and the weighted average of all outputs with probability 1/2."""

    def __init__(self, members, weights):
        for m in members:
            if not isinstance(m, Mechanism) or not m.boomerang:
                raise MechanismError(
                    f"{getattr(m, 'name', m)!r} is not a recognized boomerang mechanism"
                )
        _check_weights(weights, len(members))
        self.members = list(members)
        self.weights = list(weights)
        self.name = "pb:[{}]:[{}]".format(
            ",".join(m.name for m in members),
            ",".join(str(w) for w in weights),
        )

    def run(self, network, profile):
        ys = [m.run(network, profile).the_point() for m in self.members]
        return _compose(network, ys, self.weights)

    def deviations(self, network, profile, i, points):
        sweeps = zip(*[m.deviations(network, profile, i, points) for m in self.members])
        return _compose_each(network, ([d.the_point() for d in ds] for ds in sweeps), self.weights)


class LRM(Mechanism):
    """Leftmost agent 1/4, rightmost agent 1/4, their midpoint 1/2."""

    name = "lrm"

    def run(self, network, profile):
        agents = _sorted_agents(network, profile)
        lo, hi = agents[0], agents[-1]
        return make_distribution([
            (lo[1], 0.25),
            (hi[1], 0.25),
            (_midpoint(network, lo, hi), 0.5),
        ])


class RandomDictator(Mechanism):
    name = "rd"

    def run(self, network, profile):
        n = len(profile)
        return make_distribution((x, 1.0 / n) for x in profile)


class HalfAvgHalfRD(Mechanism):
    """The composition over the n dictators with uniform weights: the
    average location with probability 1/2, each agent with 1/(2n)."""

    name = "half-avg-rd"

    def run(self, network, profile):
        n = len(profile)
        return _compose(network, profile, [1.0 / n] * n)


class RandomizedDGM(Mechanism):
    """PB over the n dictatorial generalized medians with uniform weights."""

    def __init__(self, q: Fraction):
        q = Fraction(q)
        if not (Fraction(1, 2) < q <= Fraction(2, 3)):
            raise MechanismError(f"q={q} must satisfy 1/2 < q <= 2/3")
        self.q = q
        self.name = f"rdgm:{q}"

    def member_points(self, network, profile):
        """The n generalized-median outputs y_1..y_n."""
        n = len(profile)
        return generalized_medians(network, profile, math.ceil(self.q * n), range(n))

    def run(self, network, profile):
        n = len(profile)
        return _compose(network, self.member_points(network, profile), [1.0 / n] * n)

    def deviations(self, network, profile, i, points):
        n = len(profile)
        yss = deviated_medians(network, profile, i, points, math.ceil(self.q * n), range(n))
        return _compose_each(network, yss, [1.0 / n] * n)


class ConsecutiveMidpoints(Mechanism):
    """Extreme agents with probability 1/(2n) each; the midpoint of every
    consecutive sorted pair with probability 1/n."""

    name = "midpoints"

    def run(self, network, profile):
        agents = _sorted_agents(network, profile)
        n = len(agents)
        if n < 2:
            raise MechanismError("needs at least two agents")
        pairs = [(agents[0][1], 0.5 / n), (agents[-1][1], 0.5 / n)]
        for a, b in zip(agents, agents[1:]):
            pairs.append((_midpoint(network, a, b), 1.0 / n))
        return make_distribution(pairs)


class Mixture(Mechanism):
    """Fixed probability mixture of mechanisms."""

    def __init__(self, components):
        probs = [p for _, p in components]
        _check_weights(probs, len(probs))
        for m, _ in components:
            if not isinstance(m, Mechanism):
                raise MechanismError("mixture components must be mechanisms")
        self.components = list(components)
        self.name = "mix:[{}]".format(
            ",".join(f"({m.name},{p})" for m, p in components)
        )

    def _mix(self, outputs):
        return make_distribution([(y, p * q) for (_, p), dist in zip(self.components, outputs)
                                  for y, q in dist])

    def run(self, network, profile):
        return self._mix([m.run(network, profile) for m, _ in self.components])

    def deviations(self, network, profile, i, points):
        sweeps = zip(*[m.deviations(network, profile, i, points) for m, _ in self.components])
        return [self._mix(outputs) for outputs in sweeps]


class AverageOnly(Mechanism):
    """Point mass at the sum-of-squares optimum.  Not strategyproof; kept as
    the negative control for the checkers."""

    name = "avg-only"

    def run(self, network, profile):
        point, _ = optimal_location(network, profile, Objective.MINISOS)
        return point_mass(point)


# -- textual mechanism specs -----------------------------------------------


def _split_top(text, sep=","):
    """Split on sep at bracket depth zero; MechanismError when the brackets
    do not balance."""
    parts, closers, cur = [], [], []
    for ch in text:
        if ch in "[(":
            closers.append("]" if ch == "[" else ")")
        elif ch in "])" and (not closers or closers.pop() != ch):
            raise MechanismError("unbalanced brackets")
        if ch == sep and not closers:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if closers:
        raise MechanismError("unbalanced brackets")
    parts.append("".join(cur))
    return parts


def _items(text, brackets="[]"):
    """The comma-separated items of text, which must be wrapped in brackets."""
    text = text.strip()
    if not (text.startswith(brackets[0]) and text.endswith(brackets[1])):
        raise MechanismError(f"{text!r} must be wrapped in {brackets}")
    return _split_top(text[1:-1])


def _parse_fraction(text) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise MechanismError(f"bad rational {text!r}") from None


# Spec head -> (number of ':'-separated arguments, builder taking them).
_FAMILIES = {
    **{cls.name: (0, cls) for cls in (TreeMedian, RandomDictator, LRM, HalfAvgHalfRD,
                                       ConsecutiveMidpoints, AverageOnly)},
    "dictator": (1, lambda i: Dictator(int(i))),
    "kth": (1, lambda k: KthLocation("n" if k == "n" else int(k))),
    "dgm": (2, lambda i, q: DGM(int(i), _parse_fraction(q))),
    "rdgm": (1, lambda q: RandomizedDGM(_parse_fraction(q))),
    "pb": (2, lambda ms, ws: PB([_parse(m) for m in _items(ms)],
                                [float(_parse_fraction(w)) for w in _items(ws)])),
    "mix": (1, lambda cs: Mixture([(_parse(m), float(_parse_fraction(p)))
                                   for m, p in (_items(c, "()") for c in _items(cs))])),
}


def _parse(text):
    """parse_mechanism without its error prefix: a nested spec's error
    rises unwrapped."""
    head, *args = _split_top(text.strip(), ":")
    if head not in _FAMILIES:
        raise MechanismError(f"unknown mechanism {head!r}")
    arity, build = _FAMILIES[head]
    if len(args) != arity:
        raise MechanismError(f"{head} takes {arity} argument(s), got {len(args)}")
    return build(*args)


def parse_mechanism(text: str) -> Mechanism:
    """Parse a mechanism spec string.

    Grammar: "dictator:3", "kth:1", "kth:n", "median", "dgm:3:2/3", "rd",
    "lrm", "half-avg-rd", "rdgm:2/3", "midpoints", "avg-only",
    "pb:[kth:1,kth:n]:[1/2,1/2]", "mix:[(median,1/2),(rd,1/2)]".  Each head
    takes exactly its arguments, and brackets must balance.
    """
    try:
        return _parse(text)
    except RecursionError:
        raise MechanismError(f"bad mechanism spec {text.strip()!r}: nested too deeply") from None
    except (ValueError, OverflowError) as exc:  # a weight too large for a float
        raise MechanismError(f"bad mechanism spec {text.strip()!r}: {exc}") from None
