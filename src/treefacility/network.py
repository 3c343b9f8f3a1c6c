"""Continuous tree networks: points, distances, paths, and subtree decomposition.

A network is a finite weighted tree; agents and facilities may sit at nodes or
anywhere in the interior of an edge.  All objects are immutable after
construction and all operations are pure, so everything here is safe to share
across workers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

# Offsets within this distance of an edge endpoint collapse to the endpoint
# node; derived-distance comparisons elsewhere use the looser 1e-9.
ENDPOINT_SNAP = 1e-12


class NetworkError(ValueError):
    """Base class for malformed-network errors."""


class CyclicError(NetworkError):
    pass


class DisconnectedError(NetworkError):
    pass


class NonPositiveLengthError(NetworkError):
    pass


class BadNodeIdError(NetworkError):
    pass


class PointInvalidError(ValueError):
    """A point does not belong to the network it is used with."""


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

    def __repr__(self):
        if self.is_node:
            return f"Point(node={self.node})"
        return f"Point(edge={self.edge}, offset={self.offset:.6g})"

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
    return edge[0], edge[1], float(edge[2])


class TreeNetwork:
    """An immutable weighted tree on nodes 0..node_count-1."""

    __slots__ = ("node_count", "edges", "parent", "order", "_adj", "_dist", "_line_coords")

    def __init__(self, node_count: int, edges):
        if not _is_int(node_count) or node_count < 1:
            raise BadNodeIdError(f"node_count must be a positive integer, got {node_count!r}")
        edges = tuple(_parse_edge(edge) for edge in edges)
        if len(edges) >= node_count:
            raise CyclicError(
                f"{len(edges)} edges on {node_count} nodes: the graph contains a cycle or duplicate edge (a tree has node_count - 1 edges)"
            )
        seen = set()
        for u, v, w in edges:
            if not (0 <= u < node_count) or not (0 <= v < node_count):
                raise BadNodeIdError(f"edge ({u}, {v}) references a node outside 0..{node_count - 1}")
            if u == v:
                raise CyclicError(f"self-loop at node {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise CyclicError(f"duplicate edge between {u} and {v}")
            seen.add(key)
            if not (w > 0.0) or w != w or w == float("inf"):
                raise NonPositiveLengthError(f"edge ({u}, {v}) has non-positive length {w}")
        self.node_count = node_count
        self.edges = edges
        adj = [[] for _ in range(node_count)]
        for idx, (u, v, w) in enumerate(edges):
            adj[u].append((v, idx))
            adj[v].append((u, idx))
        self._adj = adj
        # Root the tree at node 0 once; the walk doubles as the
        # connectivity check.  parent[0] is None.
        parent = [None] * node_count
        order = [0]
        for u in order:
            for v, _ in adj[u]:
                if parent[v] is None and v != 0:
                    parent[v] = u
                    order.append(v)
        if len(order) < node_count:
            raise DisconnectedError(f"{len(edges)} edges do not connect {node_count} nodes")
        self.parent = parent
        self.order = order
        self._dist = None
        self._line_coords = None

    # -- basic structure ----------------------------------------------------

    @property
    def adjacency(self):
        return self._adj

    def edge_length(self, edge_index: int) -> float:
        return self.edges[edge_index][2]

    def total_length(self) -> float:
        return sum(w for _, _, w in self.edges)

    def _bfs(self, source: int):
        dist = [-1.0] * self.node_count
        dist[source] = 0.0
        stack = [source]
        while stack:
            u = stack.pop()
            du = dist[u]
            for v, e in self._adj[u]:
                if dist[v] < 0:
                    dist[v] = du + self.edges[e][2]
                    stack.append(v)
        return dist

    def node_distances(self):
        """All-pairs node distance table (list of rows)."""
        if self._dist is None:
            self._dist = [self._bfs(s) for s in range(self.node_count)]
        return self._dist

    # -- points -------------------------------------------------------------

    def point_at_node(self, i: int) -> Point:
        if not (0 <= i < self.node_count):
            raise PointInvalidError(f"node {i} not in 0..{self.node_count - 1}")
        return Point.at_node(i)

    def point_on_edge(self, edge_index: int, offset: float) -> Point:
        """Canonical point at ``offset`` from endpoint u of the given edge."""
        if not (0 <= edge_index < len(self.edges)):
            raise PointInvalidError(f"edge index {edge_index} out of range")
        u, v, w = self.edges[edge_index]
        offset = float(offset)
        if offset != offset:
            raise PointInvalidError("offset is NaN")
        if offset <= ENDPOINT_SNAP:
            if offset < -ENDPOINT_SNAP:
                raise PointInvalidError(f"offset {offset} is negative")
            return Point.at_node(u)
        if offset >= w - ENDPOINT_SNAP:
            if offset > w + ENDPOINT_SNAP:
                raise PointInvalidError(f"offset {offset} exceeds edge length {w}")
            return Point.at_node(v)
        return Point(edge=edge_index, offset=offset)

    def check_point(self, p: Point) -> Point:
        if p.is_node:
            if not (0 <= p.node < self.node_count):
                raise PointInvalidError(f"node {p.node} not in 0..{self.node_count - 1}")
            return p
        if p.edge is None or not (0 <= p.edge < len(self.edges)):
            raise PointInvalidError(f"edge index {p.edge} out of range")
        w = self.edges[p.edge][2]
        if not (0.0 < p.offset < w):
            raise PointInvalidError(
                f"offset {p.offset} not interior to edge {p.edge} of length {w}"
            )
        return p

    def _anchors(self, p: Point):
        """(node, distance) pairs through which any path leaving p must pass."""
        if p.is_node:
            return ((p.node, 0.0),)
        u, v, w = self.edges[p.edge]
        return ((u, p.offset), (v, w - p.offset))

    def point_node_distances(self, p: Point):
        """Distances from p to every node, as a list."""
        dm = self.node_distances()
        if p.is_node:
            return dm[p.node]
        u, v, w = self.edges[p.edge]
        du, dv = dm[u], dm[v]
        t, s = p.offset, w - p.offset
        return [min(t + du[i], s + dv[i]) for i in range(self.node_count)]

    def distance(self, a: Point, b: Point) -> float:
        self.check_point(a)
        self.check_point(b)
        if a == b:
            return 0.0
        if not a.is_node and not b.is_node and a.edge == b.edge:
            return abs(a.offset - b.offset)
        dm = self.node_distances()
        return min(
            da + dm[na][nb] + db
            for na, da in self._anchors(a)
            for nb, db in self._anchors(b)
        )

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

    def path(self, a: Point, b: Point):
        """Points along the unique simple path from a to b.

        Endpoints are a and b themselves; every intermediate entry is a node.
        """
        self.check_point(a)
        self.check_point(b)
        if a == b:
            return [a]
        if not a.is_node and not b.is_node and a.edge == b.edge:
            return [a, b]
        dm = self.node_distances()
        best = None
        for na, da in self._anchors(a):
            for nb, db in self._anchors(b):
                d = da + dm[na][nb] + db
                if best is None or d < best[0] - 1e-15:
                    best = (d, na, nb)
        _, na, nb = best
        pts = [Point.at_node(x) for x in self._node_path(na, nb)]
        if not a.is_node:
            pts = [a] + pts
        if not b.is_node:
            pts = pts + [b]
        return pts

    def point_along_path(self, a: Point, b: Point, dist: float) -> Point:
        """The point at the given distance from a along path(a, b)."""
        total = self.distance(a, b)
        if dist < -1e-9 or dist > total + 1e-9:
            raise PointInvalidError(f"distance {dist} outside [0, {total}]")
        pts = self.path(a, b)
        acc = 0.0
        for p, q in zip(pts, pts[1:]):
            seg = self.distance(p, q)
            if acc + seg >= dist - 1e-12:
                t = dist - acc
                # Locate the edge carrying segment p-q.
                if p.is_node and q.is_node:
                    for v, e in self._adj[p.node]:
                        if v == q.node:
                            eu = self.edges[e][0]
                            off = t if eu == p.node else self.edges[e][2] - t
                            return self.point_on_edge(e, off)
                e = q.edge if p.is_node else p.edge
                u, _, w = self.edges[e]
                start = 0.0 if (p.is_node and p.node == u) else (
                    p.offset if not p.is_node else w
                )
                endward = 1.0
                if not q.is_node:
                    endward = 1.0 if q.offset >= start else -1.0
                elif q.node == u:
                    endward = -1.0
                return self.point_on_edge(e, start + endward * t)
            acc += seg
        return pts[-1]

    # -- subtree decomposition ---------------------------------------------

    def branch_of(self, p: Point, x: Point):
        """Identify the branch of T(G, p) containing x, as a BranchId.

        Returns None when x coincides with p.
        """
        if x == p:
            return None
        pts = self.path(p, x)
        step = pts[1]
        if step.is_node:
            if p.is_node:
                for v, e in self._adj[p.node]:
                    if v == step.node:
                        return BranchId(anchor=p, toward=step.node, via_edge=e)
                raise PointInvalidError("path step not adjacent to anchor")
            return BranchId(anchor=p, toward=step.node, via_edge=p.edge)
        # First step lands inside an edge.
        e = step.edge
        u, v, _ = self.edges[e]
        if p.is_node:
            toward = v if p.node == u else u
            return BranchId(anchor=p, toward=toward, via_edge=e)
        toward = u if step.offset < p.offset else v
        return BranchId(anchor=p, toward=toward, via_edge=e)

    def branches_at(self, p: Point):
        """All branches of T(G, p), in deterministic order."""
        self.check_point(p)
        if p.is_node:
            return [
                BranchId(anchor=p, toward=v, via_edge=e)
                for v, e in sorted(self._adj[p.node])
            ]
        u, v, _ = self.edges[p.edge]
        return [
            BranchId(anchor=p, toward=u, via_edge=p.edge),
            BranchId(anchor=p, toward=v, via_edge=p.edge),
        ]

    # -- line helpers -------------------------------------------------------

    def is_line(self) -> bool:
        return all(len(nbrs) <= 2 for nbrs in self._adj)

    def _build_line_coords(self):
        if not self.is_line():
            raise NetworkError("network is not a path")
        if self.node_count == 1:
            self._line_coords = [0.0]
            return
        endpoints = [i for i in range(self.node_count) if len(self._adj[i]) == 1]
        origin = 0 if 0 in endpoints else min(endpoints)
        self._line_coords = self._bfs(origin)

    def line_coordinates(self):
        """Coordinate of every node along the path, measured from the origin
        endpoint (node 0 when it is an endpoint)."""
        if self._line_coords is None:
            self._build_line_coords()
        return self._line_coords

    def coordinate_of(self, p: Point) -> float:
        coords = self.line_coordinates()
        if p.is_node:
            return coords[p.node]
        u, v, _ = self.edges[p.edge]
        if coords[u] <= coords[v]:
            return coords[u] + p.offset
        return coords[u] - p.offset

    def point_at_coordinate(self, c: float) -> Point:
        """Inverse of coordinate_of, snapping to nodes within 1e-12."""
        coords = self.line_coordinates()
        for i, ci in enumerate(coords):
            if abs(c - ci) <= ENDPOINT_SNAP:
                return Point.at_node(i)
        for e, (u, v, w) in enumerate(self.edges):
            lo, hi = sorted((coords[u], coords[v]))
            if lo < c < hi:
                off = c - coords[u] if coords[u] < coords[v] else coords[u] - c
                return self.point_on_edge(e, off)
        raise PointInvalidError(f"coordinate {c} outside the network")

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return {"nodes": self.node_count, "edges": [[u, v, w] for u, v, w in self.edges]}

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_json(), sort_keys=True).encode()
        ).hexdigest()[:12]

    def __eq__(self, other):
        return (
            isinstance(other, TreeNetwork)
            and self.node_count == other.node_count
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.node_count, self.edges))

    def __repr__(self):
        return f"TreeNetwork(nodes={self.node_count}, edges={len(self.edges)})"


@dataclass(frozen=True)
class BranchId:
    """One component of G minus a point, identified by its first edge step."""

    anchor: Point
    toward: int
    via_edge: int


@dataclass(frozen=True)
class LocationProfile:
    """Ordered reported locations of the n agents, canonical on one network."""

    locations: tuple

    def __init__(self, network: TreeNetwork, locations):
        locs = tuple(network.check_point(p) for p in locations)
        if not locs:
            raise NetworkError("a profile needs at least one agent")
        object.__setattr__(self, "locations", locs)

    def __len__(self):
        return len(self.locations)

    def __iter__(self):
        return iter(self.locations)

    def __getitem__(self, i):
        return self.locations[i]

    def replace(self, network: TreeNetwork, i: int, p: Point) -> "LocationProfile":
        """The profile with agent i at p; only p needs checking."""
        locs = list(self.locations)
        locs[i] = network.check_point(p)
        out = object.__new__(LocationProfile)
        object.__setattr__(out, "locations", tuple(locs))
        return out

    def to_json(self):
        return [p.to_json() for p in self.locations]


# -- subdivision -----------------------------------------------------------


class PointMap:
    """Invertible mapping between a network and its subdivision."""

    def __init__(self, original, augmented, edge_breaks, node_origin):
        self.original = original
        self.augmented = augmented
        # edge_breaks[e] = list of (offset, aug_node, aug_edge_before_next)
        self._breaks = edge_breaks
        self._node_origin = node_origin  # aug node -> original Point

    def to_augmented(self, p: Point) -> Point:
        if p.is_node:
            return p
        offs = self._breaks[p.edge]
        for i, (off, node, seg_edge) in enumerate(offs):
            if abs(p.offset - off) <= ENDPOINT_SNAP:
                return Point.at_node(node)
            if p.offset < off:
                prev_off, _, seg = offs[i - 1]
                return self.augmented.point_on_edge(seg, p.offset - prev_off)
        raise PointInvalidError(f"offset {p.offset} beyond edge {p.edge}")

    def to_original(self, p: Point) -> Point:
        if p.is_node:
            orig = self._node_origin[p.node]
            return orig
        # Interior of an augmented segment: shift back by the segment start.
        e_orig, start = self._seg_origin[p.edge]
        return self.original.point_on_edge(e_orig, start + p.offset)

    @property
    def _seg_origin(self):
        # aug edge index -> (original edge, start offset); built lazily.
        if not hasattr(self, "_seg_origin_cache"):
            cache = {}
            for e, breaks in enumerate(self._breaks):
                for off, _, seg in breaks[:-1]:
                    cache[seg] = (e, off)
            self._seg_origin_cache = cache
        return self._seg_origin_cache


def subdivide(network: TreeNetwork, anchors) -> tuple[TreeNetwork, PointMap]:
    """Insert every anchor point as a node; distances are preserved exactly."""
    interior = [[] for _ in network.edges]
    for p in anchors:
        network.check_point(p)
        if not p.is_node:
            interior[p.edge].append(p.offset)
    next_node = network.node_count
    new_edges = []
    edge_breaks = []
    node_origin = {i: Point.at_node(i) for i in range(network.node_count)}
    for e, (u, v, w) in enumerate(network.edges):
        offs = sorted(set(interior[e]))
        merged = []
        for off in offs:
            if merged and off - merged[-1] <= ENDPOINT_SNAP:
                continue
            merged.append(off)
        breaks = [(0.0, u, None)]
        for off in merged:
            node_origin[next_node] = Point(edge=e, offset=off)
            breaks.append((off, next_node, None))
            next_node += 1
        breaks.append((w, v, None))
        rows = []
        for (o1, n1, _), (o2, n2, _) in zip(breaks, breaks[1:]):
            seg_idx = len(new_edges)
            new_edges.append((n1, n2, o2 - o1))
            rows.append((o1, n1, seg_idx))
        rows.append((w, v, None))
        edge_breaks.append(rows)
    augmented = TreeNetwork(next_node, new_edges)
    return augmented, PointMap(network, augmented, edge_breaks, node_origin)


# -- file formats ----------------------------------------------------------


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
            raise PointInvalidError(f"{where}: node id {i!r} is not an integer")
        return network.point_at_node(i)
    if isinstance(doc, dict) and "edge" in doc:
        e, t = doc["edge"], doc.get("offset")
        if not _is_int(e):
            raise PointInvalidError(f"{where}: edge id {e!r} is not an integer")
        if not (0 <= e < len(network.edges)):
            raise PointInvalidError(f"{where}: edge index {e} out of range")
        w = network.edges[e][2]
        if not _is_number(t) or not (0.0 < t < w):
            raise PointInvalidError(
                f"{where}: offset {t!r} must lie strictly inside (0, {w})"
            )
        return network.point_on_edge(e, t)
    raise PointInvalidError(f"{where}: expected {{'node': id}} or {{'edge': e, 'offset': t}}")


def profile_from_json(doc, base_dir=".") -> tuple[TreeNetwork, LocationProfile]:
    if not isinstance(doc, dict) or "locations" not in doc:
        raise NetworkError("profile document must have 'network' and 'locations'")
    net_doc = doc.get("network")
    if isinstance(net_doc, str):
        import os

        with open(os.path.join(base_dir, net_doc)) as fh:
            net_doc = json.load(fh)
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
