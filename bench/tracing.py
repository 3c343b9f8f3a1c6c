"""Span tracing of treefacility's layers, applied from outside the program.

The tracer wraps the functions listed in ``TARGETS`` while it is installed.
treefacility's modules import functions by name (``from .objectives import
optimal_location``), so a wrapper replaces every module attribute that
refers to the original, not only the one in the defining module.  Spans are
kept in memory as flat arrays (name, parent, start, end) and written out when
the run ends; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter

# Mechanism class -> family name used in ``mechanisms.run.<family>``.
FAMILIES = {
    "Dictator": "dictator",
    "KthLocation": "kth",
    "TreeMedian": "median",
    "DGM": "dgm",
    "PB": "pb",
    "LRM": "lrm",
    "RandomDictator": "rd",
    "HalfAvgHalfRD": "half-avg-rd",
    "RandomizedDGM": "rdgm",
    "ConsecutiveMidpoints": "midpoints",
    "Mixture": "mix",
    "AverageOnly": "avg-only",
}

# (module, attribute path, span name); methods are "Class.method".
TARGETS = [
    ("network", "TreeNetwork.__init__", "network.TreeNetwork"),
    ("network", "TreeNetwork.node_distances", "network.node_distances"),
    ("network", "TreeNetwork.distance", "network.distance"),
    ("network", "TreeNetwork.path", "network.path"),
    ("network", "TreeNetwork.branch_of", "network.branch_of"),
    ("network", "TreeNetwork.point_at_coordinate", "network.point_at_coordinate"),
    ("network", "subdivide", "network.subdivide"),
    *[("mechanisms", f"{cls}.run", f"mechanisms.run.{fam}") for cls, fam in FAMILIES.items()],
    ("objectives", "optimal_location", "objectives.optimal_location"),
    ("objectives", "expected_social_cost", "objectives.expected_social_cost"),
    ("objectives", "expected_agent_cost", "objectives.expected_agent_cost"),
    ("objectives", "weighted_average", "objectives.weighted_average"),
    ("objectives", "make_distribution", "objectives.make_distribution"),
    ("verify", "sp_check", "verify.sp_check"),
    ("verify", "deviation_points", "verify.deviation_points"),
    ("verify", "ratio_search", "verify.ratio_search"),
    ("verify", "approx_ratio", "verify.approx_ratio"),
    ("generators", "generate", "generators.generate"),
    ("cli", "main", "cli.main"),
]

OBJECTIVES = ("minisos", "minisum", "minimax")


def span_names():
    """Every span name the tracer can record, in report order."""
    out = []
    for _, _, name in TARGETS:
        if name == "objectives.optimal_location":
            out.extend(f"{name}.{o}" for o in OBJECTIVES)
        else:
            out.append(name)
    return out


class Tracer:
    """Records spans while installed and ``active``."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = Counter()
        self.active = False
        self._stack = []
        self._undo = []

    # -- recording ----------------------------------------------------------

    def _id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self, name_id):
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        tracer = self
        if name == "objectives.optimal_location":
            ids = {o: self._id(f"{name}.{o}") for o in OBJECTIVES}

            def name_of(args, kwargs):
                objective = args[2] if len(args) > 2 else kwargs.get("objective")
                return ids[objective.value if objective is not None else "minisos"]
        else:
            fixed = self._id(name)

            def name_of(args, kwargs):
                return fixed

        if name == "generators.generate":
            # A generator does its work while it is iterated: one span per
            # instance produced.
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if tracer.active:
                    tracer.counters["generators.generate.calls"] += 1
                it = fn(*args, **kwargs)
                while True:
                    if not tracer.active:
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        yield item
                        continue
                    idx = tracer._open(fixed)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    tracer.counters["generators.generate.instances"] += 1
                    yield item

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name_of(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if name == "verify.approx_ratio" and result.ratio is not None:
                tracer.counters["verify.approx_ratio.defined"] += 1
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self, *namespaces):
        """Wrap every target in treefacility and in the given modules."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "treefacility" or k.startswith("treefacility.")]
        modules.extend(namespaces)
        for mod_name, path, name in TARGETS:
            home = sys.modules[f"treefacility.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(original, name))
                self._undo.append((cls, attr, original))
                continue
            original = getattr(home, path)
            wrapper = self._wrap(original, name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def self_times(self):
        """{name: (calls, self seconds)} computed from the recorded spans."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_s[name] += (self.end[i] - self.start[i]) - child[i]
        return {name: (calls[name], self_s[name]) for name in calls}

    def write(self, path):
        """All spans as gzipped CSV: span, parent, name, start_s, end_s."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,parent,name,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.names[self.name_id[i]]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")
