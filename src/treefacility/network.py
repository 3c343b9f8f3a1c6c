"""Continuous tree networks: points, distances, paths, and subtree decomposition.

A network is a finite weighted tree; agents and facilities may sit at nodes or
anywhere in the interior of an edge.  All objects are immutable after
construction and all operations are pure, so everything here is safe to share
across workers.  Distances come from one BFS row per node, built the first
time it is read and then cached.
"""

from __future__ import annotations

import bisect
import hashlib
import json
from dataclasses import dataclass

# -- tolerances -------------------------------------------------------------
# The package's only tolerances: each float comparison with slack reads one.
# An offset this close to an edge's end is that end, agents this close on one
# edge share a position, and a search step this short has stopped moving.
ENDPOINT_SNAP = 1e-12
# Rounding slack on derived sums: probabilities and weights that total 1, a
# distance along a path, the lemma identities, and a zero-cost output.
ROUND_TOL = 1e-9
# Default regret (or boomerang violation) a misreport may show in a check.
SP_TOL = 1e-7
# Slack before a searched or reported ratio counts as above its paper bound.
BOUND_TOL = 1e-6


class NetworkError(ValueError):
    """A malformed network, point, profile or input file."""


class NotALineError(NetworkError):
    """A line-only operation was asked of a network that is not a path."""


@dataclass(frozen=True)
class Point:
    """A location on a tree network.

    Either a node (``node`` set) or the interior of an edge (``edge`` and
    ``offset`` set, with 0 < offset < length).  Canonical form never stores an
    endpoint offset as an interior point; use the ``TreeNetwork`` factories to
    get canonical points.
    """

    node: int | None = None
    edge: int | None = None
    offset: float = 0.0

    @property
    def is_node(self) -> bool:
        return self.node is not None

    @staticmethod
    def at_node(i: int) -> "Point":
        return Point(node=i)

    def to_json(self):
        if self.is_node:
            return {"node": self.node}
        return {"edge": self.edge, "offset": self.offset}


def point_sort_key(p: Point):
    """Deterministic ordering for distribution supports and reports."""
    if p.is_node:
        return (0, p.node, 0.0)
    return (1, p.edge, p.offset)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _parse_edge(edge):
    """(u, v, length) from a raw edge entry, or NetworkError if malformed."""
    if not (isinstance(edge, (list, tuple)) and len(edge) == 3
            and _is_int(edge[0]) and _is_int(edge[1]) and _is_number(edge[2])):
        raise NetworkError(f"edge {edge!r} must be [u, v, length] with integer ends and a numeric length")
    try:
        return edge[0], edge[1], float(edge[2])
    except OverflowError:  # an integer length past the largest float
        raise NetworkError(f"edge ({edge[0]}, {edge[1]}) has a length too large for a float") from None


class TreeNetwork:
    """An immutable weighted tree on nodes 0..node_count-1."""

    __slots__ = ("node_count", "edges", "parent", "parent_edge", "order", "adjacency",
                 "_total", "_rows", "_line")

    def __init__(self, node_count: int, edges):
        if not _is_int(node_count) or node_count < 1:
            raise NetworkError(f"node_count must be a positive integer, got {node_count!r}")
        edges = tuple(_parse_edge(edge) for edge in edges)
        if len(edges) >= node_count:
            raise NetworkError(
                f"{len(edges)} edges on {node_count} nodes: the graph contains a cycle or duplicate edge (a tree has node_count - 1 edges)"
            )
        if len(edges) < node_count - 1:
            raise NetworkError(
                f"{len(edges)} edges cannot connect {node_count} nodes (a tree has node_count - 1 edges)"
            )
        seen = set()
        total = 0.0  # added left to right: sum() compensates from Python 3.12 on
        for u, v, w in edges:
            if not (0 <= u < node_count) or not (0 <= v < node_count):
                raise NetworkError(f"edge ({u}, {v}) references a node outside 0..{node_count - 1}")
            if u == v:
                raise NetworkError(f"self-loop at node {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise NetworkError(f"duplicate edge between {u} and {v}")
            seen.add(key)
            if not 0.0 < w < float("inf"):
                raise NetworkError(f"edge ({u}, {v}) has length {w}: a length must be finite and positive")
            total += w
        if total * total == float("inf"):
            raise NetworkError(f"total edge length {total:g} is too large: its square overflows")
        self.node_count = node_count
        self.edges = edges
        self._total = total
        adj = [[] for _ in range(node_count)]
        for idx, (u, v, w) in enumerate(edges):
            adj[u].append((v, idx))
            adj[v].append((u, idx))
        self.adjacency = adj
        # Root the tree at node 0 once; the walk doubles as the
        # connectivity check.  parent[0] and parent_edge[0] are None.
        parent = [None] * node_count
        parent_edge = [None] * node_count
        order = [0]
        for u in order:
            for v, e in adj[u]:
                if parent[v] is None and v != 0:
                    parent[v] = u
                    parent_edge[v] = e
                    order.append(v)
        if len(order) < node_count:
            raise NetworkError(f"{len(edges)} edges do not connect {node_count} nodes")
        self.parent = parent
        self.parent_edge = parent_edge
        self.order = order
        self._rows = [None] * node_count
        self._line = None

    # -- basic structure ----------------------------------------------------

    def total_length(self) -> float:
        return self._total

    def _bfs(self, source: int):
        """Distances from node ``source`` to every node, and the nodes in the
        order reached."""
        dist = [-1.0] * self.node_count
        dist[source] = 0.0
        reached = [source]
        for u in reached:
            du = dist[u]
            for v, e in self.adjacency[u]:
                if dist[v] < 0:
                    dist[v] = du + self.edges[e][2]
                    reached.append(v)
        return dist, reached

    def node_distances(self, source: int):
        """Distances from node ``source`` to every node: its BFS row, built on
        first use and cached."""
        row = self._rows[source]
        if row is None:
            row = self._rows[source] = self._bfs(source)[0]
        return row

    # -- points -------------------------------------------------------------

    def point_on_edge(self, edge_index: int, offset: float) -> Point:
        """Canonical point at ``offset`` from endpoint u of the given edge."""
        if not (0 <= edge_index < len(self.edges)):
            raise NetworkError(f"edge index {edge_index} out of range")
        u, v, w = self.edges[edge_index]
        offset = float(offset)
        if offset != offset:
            raise NetworkError("offset is NaN")
        if offset <= ENDPOINT_SNAP:
            if offset < -ENDPOINT_SNAP:
                raise NetworkError(f"offset {offset} is negative")
            return Point.at_node(u)
        if offset >= w - ENDPOINT_SNAP:
            if offset > w + ENDPOINT_SNAP:
                raise NetworkError(f"offset {offset} exceeds edge length {w}")
            return Point.at_node(v)
        return Point(edge=edge_index, offset=offset)

    def check_point(self, p: Point) -> Point:
        if p.is_node:
            if not (0 <= p.node < self.node_count):
                raise NetworkError(f"node {p.node} not in 0..{self.node_count - 1}")
            return p
        if p.edge is None or not (0 <= p.edge < len(self.edges)):
            raise NetworkError(f"edge index {p.edge} out of range")
        w = self.edges[p.edge][2]
        if not (0.0 < p.offset < w):
            raise NetworkError(f"offset {p.offset} not interior to edge {p.edge} of length {w}")
        return p

    def distances_from(self, y: Point, points):
        """[d(y, x) for x in points].  Checks y; the points must already be
        checked, as a profile's are.

        A path from y leaves through an end of y's edge and enters x's edge
        through one of its ends, so d(y, x) is the least sum of the two
        offsets and one entry of the row of y's end; x on y's edge is the
        offset difference.  A node y is an edge of length 0 with both ends
        at y, so only the rows of y's ends are read.
        """
        self.check_point(y)
        if y.is_node:
            ra = rb = self.node_distances(y.node)
            ta = tb = 0.0
        else:
            a, b, w = self.edges[y.edge]
            ra, rb = self.node_distances(a), self.node_distances(b)
            ta, tb = y.offset, w - y.offset
        edges = self.edges
        out = []
        for x in points:
            k = x.node
            if k is not None:
                out.append(min(ta + ra[k], tb + rb[k]))
            elif x.edge == y.edge:
                out.append(abs(y.offset - x.offset))
            else:
                u, v, w = edges[x.edge]
                t = x.offset
                out.append(min(min(ta + ra[u], tb + rb[u]) + t,
                               min(ta + ra[v], tb + rb[v]) + (w - t)))
        return out

    def distance(self, a: Point, b: Point) -> float:
        self.check_point(b)
        return self.distances_from(a, (b,))[0]

    def _node_path(self, a: int, b: int):
        """Node ids along the unique path from a to b, inclusive: up from a
        to the first ancestor it shares with b, then down to b."""
        up = [a]
        while up[-1] != 0:
            up.append(self.parent[up[-1]])
        up_index = {x: i for i, x in enumerate(up)}
        down = [b]
        while down[-1] not in up_index:
            down.append(self.parent[down[-1]])
        return up[:up_index[down[-1]]] + down[::-1]

    def child_end(self, e: int) -> int:
        """The end of edge e farther from node 0."""
        u, v, _ = self.edges[e]
        return v if self.parent[v] == u else u

    def path(self, a: Point, b: Point):
        """Points along the unique simple path from a to b.

        Endpoints are a and b themselves; every intermediate entry is a node.
        An interior point sits between the two ends of its edge, so the path
        leaves it through the child end when the node path from that end
        goes down, and through the parent end when it goes up.
        """
        self.check_point(a)
        self.check_point(b)
        if a == b:
            return [a]
        if not a.is_node and not b.is_node and a.edge == b.edge:
            return [a, b]
        ka = a.node if a.is_node else self.child_end(a.edge)
        kb = b.node if b.is_node else self.child_end(b.edge)
        nodes = self._node_path(ka, kb)
        if not a.is_node and len(nodes) > 1 and nodes[1] == self.parent[ka]:
            nodes = nodes[1:]
        if not b.is_node and len(nodes) > 1 and nodes[-2] == self.parent[kb]:
            nodes = nodes[:-1]
        pts = [Point.at_node(x) for x in nodes]
        if not a.is_node:
            pts = [a] + pts
        if not b.is_node:
            pts = pts + [b]
        return pts

    def _edge_of(self, p: Point, q: Point) -> int:
        """The edge carrying two consecutive points of a path."""
        if not p.is_node:
            return p.edge
        if not q.is_node:
            return q.edge
        a, b = p.node, q.node
        return self.parent_edge[b] if self.parent[b] == a else self.parent_edge[a]

    def _offset_on(self, e: int, p: Point) -> float:
        """Offset of p from endpoint u of edge e; p lies on e or at one of its ends."""
        if not p.is_node:
            return p.offset
        u, _, w = self.edges[e]
        return 0.0 if p.node == u else w

    def point_along_path(self, a: Point, b: Point, dist: float) -> Point:
        """The point at the given distance from a along path(a, b)."""
        total = self.distance(a, b)
        if dist < -ROUND_TOL or dist > total + ROUND_TOL:
            raise NetworkError(f"distance {dist} outside [0, {total}]")
        pts = self.path(a, b)
        acc = 0.0
        for p, q in zip(pts, pts[1:]):
            e = self._edge_of(p, q)
            start, end = self._offset_on(e, p), self._offset_on(e, q)
            seg = abs(end - start)
            if acc + seg >= dist - ENDPOINT_SNAP:
                t = dist - acc
                return self.point_on_edge(e, start + t if end >= start else start - t)
            acc += seg
        return pts[-1]

    # -- subtree decomposition ---------------------------------------------

    def branch_of(self, p: Point, x: Point):
        """The branch of T(G, p) containing x, named by the neighbour node
        of p it leads to (an end of p's edge when p is interior); None when
        x coincides with p.  A node's neighbours are distinct, as are an
        edge's two ends, so the node names one branch."""
        if x == p:
            return None
        step = self.path(p, x)[1]
        e = self._edge_of(p, step)
        u, v, _ = self.edges[e]
        return u if self._offset_on(e, step) < self._offset_on(e, p) else v

    # -- line helpers -------------------------------------------------------

    def _line_walk(self):
        """(coordinates, nodes, xs): every node's coordinate, measured from
        the origin endpoint (node 0 when it is an endpoint), the nodes in
        path order from there, and their coordinates in that order.  The
        only check that a line-only operation runs on a path."""
        if self._line is None:
            if any(len(nbrs) > 2 for nbrs in self.adjacency):
                raise NotALineError("network is not a line: a node has more than two neighbours")
            ends = [i for i in range(self.node_count) if len(self.adjacency[i]) == 1]
            coords, nodes = self._bfs(0 if not ends or 0 in ends else min(ends))
            self._line = (coords, nodes, [coords[i] for i in nodes])
        return self._line

    def coordinate_of(self, p: Point) -> float:
        coords = self._line_walk()[0]
        if p.is_node:
            return coords[p.node]
        u, v, _ = self.edges[p.edge]
        if coords[u] <= coords[v]:
            return coords[u] + p.offset
        return coords[u] - p.offset

    def point_at_coordinate(self, c: float) -> Point:
        """Inverse of coordinate_of: the lowest-numbered node within
        ENDPOINT_SNAP of c, else the point of the edge whose coordinates
        enclose c."""
        coords, nodes, xs = self._line_walk()
        k = bisect.bisect_left(xs, c)
        # xs is sorted, so the nodes within ENDPOINT_SNAP of c are adjacent in it.
        lo, hi = k, k
        while lo > 0 and c - xs[lo - 1] <= ENDPOINT_SNAP:
            lo -= 1
        while hi < len(xs) and xs[hi] - c <= ENDPOINT_SNAP:
            hi += 1
        if lo < hi:
            return Point.at_node(min(nodes[lo:hi]))
        if not 0 < k < len(xs):
            raise NetworkError(f"coordinate {c} outside the network")
        u, v = nodes[k - 1], nodes[k]
        e = next(e for w, e in self.adjacency[u] if w == v)
        return self.point_on_edge(e, c - coords[u] if self.edges[e][0] == u else coords[v] - c)

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return {"nodes": self.node_count, "edges": [[u, v, w] for u, v, w in self.edges]}

    def __repr__(self):
        return f"TreeNetwork(nodes={self.node_count}, edges={len(self.edges)})"


class LocationProfile(tuple):
    """Ordered reported locations of the n agents: a tuple of points, each
    checked on one network."""

    __slots__ = ()

    def __new__(cls, network: TreeNetwork, locations):
        locs = tuple(network.check_point(p) for p in locations)
        if not locs:
            raise NetworkError("a profile needs at least one agent")
        return tuple.__new__(cls, locs)

    def __reduce__(self):  # copy and unpickle without a network: the points are checked
        return tuple.__new__, (LocationProfile, tuple(self))

    def replace(self, network: TreeNetwork, i: int, p: Point) -> "LocationProfile":
        """The profile with agent i at p; only p needs checking."""
        locs = list(self)
        locs[i] = network.check_point(p)
        return tuple.__new__(LocationProfile, locs)

    def to_json(self):
        return [p.to_json() for p in self]


# -- subdivision -----------------------------------------------------------


def subdivide(network: TreeNetwork, anchors):
    """Insert every anchor point as a node; distances are preserved exactly.

    Returns (augmented, anchor_nodes, origin): anchors[k] sits at augmented
    node anchor_nodes[k], and origin[v] is the original Point of augmented
    node v.  An interior anchor within ENDPOINT_SNAP of the previous kept
    offset on its edge shares that offset's node.
    """
    anchor_nodes = [p.node for p in anchors]  # interior anchors filled in below
    interior = [[] for _ in network.edges]
    for k, p in enumerate(anchors):
        network.check_point(p)
        if not p.is_node:
            interior[p.edge].append((p.offset, k))
    origin = [Point.at_node(i) for i in range(network.node_count)]
    new_edges = []
    for e, (u, v, w) in enumerate(network.edges):
        prev, at = u, 0.0  # last node placed along the edge, and its offset
        for off, k in sorted(interior[e]):
            if prev == u or off - at > ENDPOINT_SNAP:
                new_edges.append((prev, len(origin), off - at))
                prev, at = len(origin), off
                origin.append(Point(edge=e, offset=off))
            anchor_nodes[k] = prev
        new_edges.append((prev, v, w - at))
    return TreeNetwork(len(origin), new_edges), anchor_nodes, origin


# -- file formats ----------------------------------------------------------


def read_json(path):
    """The JSON document in the file at path.  A file that is not JSON or not
    UTF-8, a document nested deeper than the decoder's stack, or an integer
    longer than int() reads (4300 digits from Python 3.11 on), is a
    NetworkError that names the path."""

    def parse_int(text):
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"an integer of {len(text)} characters is too long") from None

    with open(path) as fh:
        try:
            return json.load(fh, parse_int=parse_int)
        except RecursionError:
            raise NetworkError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:
            raise NetworkError(f"{path}: {exc}") from None


def network_from_json(doc) -> TreeNetwork:
    if not isinstance(doc, dict) or "nodes" not in doc or "edges" not in doc:
        raise NetworkError("tree document must have 'nodes' and 'edges'")
    if not isinstance(doc["edges"], list):
        raise NetworkError("'edges' must be a list of [u, v, length] entries")
    return TreeNetwork(doc["nodes"], doc["edges"])


def point_from_json(network: TreeNetwork, doc, where="point") -> Point:
    if isinstance(doc, dict) and "node" in doc:
        i = doc["node"]
        if not _is_int(i):
            raise NetworkError(f"{where}: node id {i!r} is not an integer")
        return network.check_point(Point.at_node(i))
    if isinstance(doc, dict) and "edge" in doc:
        e, t = doc["edge"], doc.get("offset")
        if not _is_int(e):
            raise NetworkError(f"{where}: edge id {e!r} is not an integer")
        if not (0 <= e < len(network.edges)):
            raise NetworkError(f"{where}: edge index {e} out of range")
        w = network.edges[e][2]
        if not _is_number(t) or not (0.0 < t < w):
            raise NetworkError(f"{where}: offset {t!r} must lie strictly inside (0, {w})")
        return network.point_on_edge(e, t)
    raise NetworkError(f"{where}: expected {{'node': id}} or {{'edge': e, 'offset': t}}")


def profile_from_json(doc, base_dir=".") -> tuple[TreeNetwork, LocationProfile]:
    if not isinstance(doc, dict) or "locations" not in doc:
        raise NetworkError("profile document must have 'network' and 'locations'")
    if not isinstance(doc["locations"], list):
        raise NetworkError("'locations' must be a list of points")
    net_doc = doc.get("network")
    if isinstance(net_doc, str):
        import os

        if "\0" in net_doc:  # open() raises a bare ValueError on it
            raise NetworkError("'network' path contains a NUL character")
        net_doc = read_json(os.path.join(base_dir, net_doc))
    network = network_from_json(net_doc)
    pts = [
        point_from_json(network, loc, where=f"locations[{i}]")
        for i, loc in enumerate(doc["locations"])
    ]
    return network, LocationProfile(network, pts)


def instance_to_json(network: TreeNetwork, profile: LocationProfile):
    return {"network": network.to_json(), "locations": profile.to_json()}


def instance_digest(network: TreeNetwork, profile: LocationProfile) -> str:
    return hashlib.sha256(
        json.dumps(instance_to_json(network, profile), sort_keys=True).encode()
    ).hexdigest()[:12]
