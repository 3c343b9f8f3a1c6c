import os
import random
import resource
import subprocess
import sys

import pytest

from treefacility.network import LocationProfile, Point, TreeNetwork


def line_net(*lengths):
    """Path network 0-1-2-... with the given edge lengths."""
    if not lengths:
        return TreeNetwork(1, [])
    return TreeNetwork(len(lengths) + 1, [(i, i + 1, w) for i, w in enumerate(lengths)])


def star_net(k, length=1.0):
    """Star with center node 0 and k unit leaves."""
    return TreeNetwork(k + 1, [(0, i, length) for i in range(1, k + 1)])


def profile(net, *points):
    return LocationProfile(net, points)


def child_env():
    """The environment of a child Python that imports what this one does."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))


def run_capped(code, timeout=300):
    """Run Python source in a child process whose address space is capped
    at 1 GiB, so code that allocates without bound fails with MemoryError
    instead of exhausting the machine.  A child still running after timeout
    seconds is killed and subprocess.TimeoutExpired raised."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    return subprocess.run([sys.executable, "-c", code], preexec_fn=cap, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture
def unit_line3():
    """Path 0-1-2 with unit edges (coordinates 0..2)."""
    return line_net(1.0, 1.0)


@pytest.fixture
def rng():
    return random.Random(20240817)


def assert_dist_close(net, da, db, tol=1e-9):
    """Two finite-support distributions agree up to point tolerance."""
    rest = list(db)
    for p, prob in da:
        matched = 0.0
        keep = []
        for q, prob2 in rest:
            if net.distance(p, q) <= tol:
                matched += prob2
            else:
                keep.append((q, prob2))
        rest = keep
        assert abs(matched - prob) <= tol, (p, prob, matched)
    assert not rest, rest
