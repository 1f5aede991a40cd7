"""Weighted digraphs describing who hears whom in a multi-agent network."""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .records import record


@record(eq=False)
class WeightedDigraph:
    """Directed graph on nodes 1..n with strictly positive arc weights.

    An arc ``(j, i)`` points from transmitter ``j`` to receiver ``i``;
    self-loops are rejected. The graph is its read-only arc arrays, sorted
    by (transmitter, receiver): ``arc_rows`` / ``arc_cols`` /
    ``arc_weights`` hold the 0-based receiver, the 0-based transmitter and
    the weight of each arc, and ``in_degrees`` the number of in-arcs of
    each node. ``arc_order``, ``arcs`` and ``weights`` are views of the
    arrays built on each call. Build a graph with ``graph_from_arcs``,
    ``graph_from_ends``, ``complete_graph`` or ``ring_graph``, which
    validate the arcs.
    Instances are immutable and safe to share between concurrent readers.
    """

    n: int
    arc_rows: np.ndarray
    arc_cols: np.ndarray
    arc_weights: np.ndarray
    in_degrees: np.ndarray

    @property
    def arc_order(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip((self.arc_cols + 1).tolist(), (self.arc_rows + 1).tolist()))

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.arc_order)

    @property
    def weights(self) -> Mapping[tuple[int, int], float]:
        return MappingProxyType(dict(zip(self.arc_order, self.arc_weights.tolist())))


def graph_from_arcs(n: int, arcs: Iterable[tuple[int, int, float]]) -> WeightedDigraph:
    """Build a graph from ``(j, i, weight)`` triples in any order.

    All or nothing: a repeated arc is reported first, else the first
    self-loop, out-of-range id or weight that is not positive and finite.
    """
    transmitters, receivers, weights = tuple(zip(*arcs)) or ((), (), ())
    return graph_from_ends(n, (transmitters, receivers), weights)


def complete_graph(n: int, weight: float = 1.0) -> WeightedDigraph:
    """Fully connected digraph: an arc between every ordered pair of distinct nodes."""
    ends = np.array(np.nonzero(~np.eye(n, dtype=bool)))
    ends += 1
    return graph_from_ends(n, ends, np.full(ends.shape[1], float(weight)))


def ring_graph(n: int, weight: float = 1.0) -> WeightedDigraph:
    """Directed ring 1 -> 2 -> ... -> n -> 1."""
    if n < 2:
        raise ValueError("ring needs at least 2 nodes")
    nodes = np.arange(1, n + 1)
    return graph_from_ends(n, (nodes, nodes % n + 1), np.full(n, float(weight)))


def graph_from_ends(n, ends, weights) -> WeightedDigraph:
    """The one validation of a graph's arcs, given as the 1-based ids of
    their transmitters and of their receivers (the rows of ``ends``) and
    their weights, in any order: the graph, or a ``ValueError`` for the
    first fault ``graph_from_arcs`` names."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"node count must be a positive integer, got {n!r}")
    try:
        ends = np.asarray(ends, dtype=np.int64)
    except OverflowError:  # ids beyond int64 are compared as Python ints
        ends = np.array(ends, dtype=object)
    weights = np.asarray(weights, dtype=float)
    outside = ~((ends >= 1) & (ends <= n)).astype(bool, copy=False)
    # 0-based ids inside 1..n; each distinct id outside gets its own code
    # from n on, so the packed keys are equal exactly for equal arcs.
    codes = np.where(outside, 1, ends).astype(np.int64, copy=False)
    codes -= 1
    strange, rank = np.unique(ends[outside], return_inverse=True)
    codes[outside] = n + rank
    keys = codes[0] * (n + strange.size)
    keys += codes[1]
    order = None if (keys[1:] > keys[:-1]).all() else np.argsort(keys, kind="stable")
    if order is not None and (repeated := keys[order[1:]] == keys[order[:-1]]).any():
        j, i = ends[:, order[1:][repeated].min()].tolist()
        raise ValueError(f"duplicate arc ({j}, {i})")
    fault = (codes[0] == codes[1]) | outside.any(axis=0) | ~(weights > 0.0) | ~np.isfinite(weights)
    if fault.any():
        k = int(fault.argmax())
        (j, i), w = ends[:, k].tolist(), weights[k].item()
        if j == i:
            raise ValueError(f"self-loop ({j}, {i}) is not allowed")
        if not (1 <= j <= n and 1 <= i <= n):
            raise ValueError(f"arc ({j}, {i}) outside node range 1..{n}")
        if not w > 0.0:
            raise ValueError(f"arc ({j}, {i}) must have a positive weight, got {w}")
        raise ValueError(f"arc ({j}, {i}) must have a finite weight, got {w}")
    cols, rows = codes if order is None else codes[:, order]
    arrays = (rows, cols, weights if order is None else weights[order], np.bincount(rows, minlength=n))
    for array in arrays:
        array.setflags(write=False)
    return WeightedDigraph(n, *arrays)


def is_strongly_connected(g: WeightedDigraph) -> bool:
    """True iff a directed path joins every ordered pair of distinct nodes:
    a search from node 1 along the arcs and one against them each reach
    every node. O(n + |E|)."""
    by_receiver = np.argsort(g.arc_rows, kind="stable")
    out_degrees = np.bincount(g.arc_cols, minlength=g.n)
    return _reaches_all(out_degrees, g.arc_rows) and _reaches_all(g.in_degrees, g.arc_cols[by_receiver])


def _reaches_all(degrees: np.ndarray, neighbors: np.ndarray) -> bool:
    """Whether a depth-first search from node 0 reaches every node, where
    node ``v``'s neighbors are the ``degrees[v]`` entries of ``neighbors``
    after those of the nodes before it."""
    n = len(degrees)
    starts = memoryview(np.concatenate(([0], np.cumsum(degrees))))
    neighbors = memoryview(neighbors)
    seen = bytearray(n)
    seen[0], stack, count = 1, [0], 1
    while stack and count < n:
        v = stack.pop()
        for u in neighbors[starts[v] : starts[v + 1]]:
            if not seen[u]:
                seen[u] = 1
                stack.append(u)
                count += 1
    return count == n


def step_size_bound(g: WeightedDigraph) -> float:
    """Exclusive upper bound on the consensus step size: 1 / max in-weight sum,
    each sum taken in arc order.

    Raises if the graph has no arcs (the bound is undefined).
    """
    heaviest = float(np.bincount(g.arc_rows, weights=g.arc_weights, minlength=g.n).max())
    if heaviest <= 0.0:
        raise ValueError("graph has no arcs; step size bound is undefined")
    return 1.0 / heaviest
