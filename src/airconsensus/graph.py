"""Weighted digraphs describing who hears whom in a multi-agent network."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

Arc = tuple[int, int]


@dataclass(frozen=True)
class WeightedDigraph:
    """Directed graph on nodes 1..n with strictly positive arc weights.

    An arc ``(j, i)`` points from transmitter ``j`` to receiver ``i``;
    its weight is looked up with ``weight(j, i)``. Self-loops are
    rejected. Instances are immutable after construction and safe to
    share between concurrent readers.

    Read-only arrays built once: ``arc_rows`` / ``arc_cols`` /
    ``arc_weights`` hold the 0-based receiver, the 0-based transmitter and
    the weight of each arc in ``arc_order``, and ``in_degrees`` the number
    of in-arcs of each node.
    """

    n: int
    weights: Mapping[Arc, float]

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"node count must be a positive integer, got {self.n!r}")
        frozen: dict[Arc, float] = {}
        for arc, w in self.weights.items():
            j, i = arc
            if j == i:
                raise ValueError(f"self-loop ({j}, {i}) is not allowed")
            if not (1 <= j <= self.n and 1 <= i <= self.n):
                raise ValueError(f"arc ({j}, {i}) outside node range 1..{self.n}")
            if not w > 0.0:
                raise ValueError(f"arc ({j}, {i}) must have a positive weight, got {w}")
            if not math.isfinite(w):
                raise ValueError(f"arc ({j}, {i}) must have a finite weight, got {w}")
            frozen[(int(j), int(i))] = float(w)
        object.__setattr__(self, "weights", MappingProxyType(frozen))
        order = tuple(sorted(frozen))
        object.__setattr__(self, "_arc_order", order)
        ends = np.fromiter(chain.from_iterable(order), np.intp, 2 * len(order)).reshape(-1, 2)
        cols, rows = np.ascontiguousarray(ends.T) - 1
        weights = np.fromiter((frozen[arc] for arc in order), float, len(order))
        degrees = np.bincount(rows, minlength=self.n)
        arrays = (("arc_rows", rows), ("arc_cols", cols), ("arc_weights", weights), ("in_degrees", degrees))
        for name, array in arrays:
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def arcs(self) -> frozenset[Arc]:
        return frozenset(self.weights)

    @property
    def arc_order(self) -> tuple[Arc, ...]:
        """All arcs in a fixed canonical (sorted) order."""
        return self._arc_order

    def in_neighbors(self, i: int) -> frozenset[int]:
        """Nodes with an arc into ``i``; never contains ``i`` itself."""
        self._check_node(i)
        return frozenset((self.arc_cols[self.arc_rows == i - 1] + 1).tolist())

    def in_degree(self, i: int) -> int:
        self._check_node(i)
        return int(self.in_degrees[i - 1])

    def weight(self, j: int, i: int) -> float:
        """Weight of the arc from transmitter ``j`` to receiver ``i``."""
        try:
            return self.weights[(j, i)]
        except KeyError:
            raise ValueError(f"no arc ({j}, {i}) in graph") from None

    def has_arc(self, j: int, i: int) -> bool:
        return (j, i) in self.weights

    def _check_node(self, i: int) -> None:
        if not (1 <= i <= self.n):
            raise ValueError(f"node id {i} outside range 1..{self.n}")


def graph_from_arcs(n: int, arcs: Iterable[tuple[int, int, float]]) -> WeightedDigraph:
    """Build a graph from ``(j, i, weight)`` triples; duplicate arcs are rejected."""
    weights: dict[Arc, float] = {}
    for j, i, w in arcs:
        if (j, i) in weights:
            raise ValueError(f"duplicate arc ({j}, {i})")
        weights[(j, i)] = w
    return WeightedDigraph(n, weights)


def complete_graph(n: int, weight: float = 1.0) -> WeightedDigraph:
    """Fully connected digraph: an arc between every ordered pair of distinct nodes."""
    return WeightedDigraph(
        n, {(j, i): weight for j in range(1, n + 1) for i in range(1, n + 1) if j != i}
    )


def ring_graph(n: int, weight: float = 1.0) -> WeightedDigraph:
    """Directed ring 1 -> 2 -> ... -> n -> 1."""
    if n < 2:
        raise ValueError("ring needs at least 2 nodes")
    return WeightedDigraph(n, {(v, v % n + 1): weight for v in range(1, n + 1)})


def is_strongly_connected(g: WeightedDigraph) -> bool:
    """True iff a directed path joins every ordered pair of distinct nodes."""
    if g.n == 1:
        return True
    forward: dict[int, list[int]] = {v: [] for v in range(1, g.n + 1)}
    backward: dict[int, list[int]] = {v: [] for v in range(1, g.n + 1)}
    for j, i in g.weights:
        forward[j].append(i)
        backward[i].append(j)
    return _reaches_all(forward, g.n) and _reaches_all(backward, g.n)


def _reaches_all(adj: dict[int, list[int]], n: int) -> bool:
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def step_size_bound(g: WeightedDigraph) -> float:
    """Exclusive upper bound on the consensus step size: 1 / max in-weight sum,
    each sum taken in arc order.

    Raises if the graph has no arcs (the bound is undefined).
    """
    heaviest = float(np.bincount(g.arc_rows, weights=g.arc_weights, minlength=g.n).max())
    if heaviest <= 0.0:
        raise ValueError("graph has no arcs; step size bound is undefined")
    return 1.0 / heaviest
