"""Strategyproof facility location on continuous tree networks.

Mechanisms output exact finite-support distributions; expected costs and
approximation ratios are computed as exact sums, so the worst-case bounds can
be certified numerically at desk scale.  The root exports only
``__version__``: import from the submodules ``network``, ``objectives``,
``mechanisms``, ``verify``, ``generators`` and ``cli``.
"""

__version__ = "0.1.0"
