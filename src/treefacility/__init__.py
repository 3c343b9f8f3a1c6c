"""Strategyproof facility location on continuous tree networks.

Mechanisms output exact finite-support distributions; expected costs and
approximation ratios are computed as exact sums, so the worst-case bounds can
be certified numerically at desk scale.
"""

from .network import (
    BranchId,
    LocationProfile,
    Point,
    TreeNetwork,
)
from .objectives import (
    LocationDistribution,
    Objective,
    expected_agent_cost,
    expected_social_cost,
    make_distribution,
    optimal_location,
    point_mass,
    social_cost,
    verify_wavg_condition,
    weighted_average,
)
from .mechanisms import (
    DGM,
    PB,
    LRM,
    AverageOnly,
    ConsecutiveMidpoints,
    Dictator,
    HalfAvgHalfRD,
    KthLocation,
    Mixture,
    RandomDictator,
    RandomizedDGM,
    TreeMedian,
    parse_mechanism,
)
from .generators import GeneratorConfig, generate

__version__ = "0.1.0"
