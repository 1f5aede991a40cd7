"""Shared test helpers: random graph generators and independent oracles.

The oracles here deliberately take the dumbest correct route (explicit
matrix powers, transitive closure, characteristic polynomial) so they
stay independent of the library code they check.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import airconsensus
from airconsensus import protocol
from airconsensus.channel import _CHANNEL_STREAM, TIME_INVARIANT, ConstantLaw, UniformLaw
from airconsensus.graph import WeightedDigraph, graph_from_arcs
from airconsensus.linalg import perron_operator
from airconsensus.textfmt import TraceRows


#: Absolute tolerance of the in-weight vs out-weight balance check.
BALANCE_TOL = 1e-12


def is_balanced(g: WeightedDigraph, tol: float = BALANCE_TOL) -> bool:
    """True iff every node's total incoming weight equals its total outgoing weight."""
    net = np.bincount(g.arc_rows, weights=g.arc_weights, minlength=g.n)
    net -= np.bincount(g.arc_cols, weights=g.arc_weights, minlength=g.n)
    return bool((np.abs(net) <= tol).all())


def laplacian(g: WeightedDigraph) -> np.ndarray:
    """Graph Laplacian: degree matrix minus adjacency, so every row sums to zero.

    Entry ``(i, j)`` is ``-weight(j, i)`` for an arc ``(j, i)`` and the
    diagonal holds each node's total in-weight. The diagonal is assembled
    as the exact negation of the off-diagonal row sum.
    """
    L = np.zeros((g.n, g.n))
    L[g.arc_rows, g.arc_cols] = -g.arc_weights
    diag = -L.sum(axis=1)
    L[np.diag_indices(g.n)] = diag
    return L


def same_zero_pattern(A: np.ndarray, B: np.ndarray) -> bool:
    """True iff the two nonnegative matrices have zeros in the same positions."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    return bool(np.array_equal(A == 0, B == 0))


def dict_graph(n, weights):
    """The graph of a mapping of each arc ``(j, i)`` to its weight."""
    return graph_from_arcs(n, [(j, i, w) for (j, i), w in weights.items()])


def random_strongly_connected(rng, n, extra_prob=0.35, w_lo=0.5, w_hi=10.0):
    """Random spanning cycle (guarantees strong connectivity) plus extra arcs."""
    return dict_graph(n, random_strongly_connected_weights(rng, n, extra_prob, w_lo, w_hi))


def random_strongly_connected_weights(rng, n, extra_prob=0.35, w_lo=0.5, w_hi=10.0):
    """``random_strongly_connected``'s arcs and weights, in the order drawn:
    the cycle's arcs, then the extra arcs by transmitter and receiver."""
    order = rng.permutation(n) + 1
    weights = {}
    for t in range(n):
        j, i = int(order[t]), int(order[(t + 1) % n])
        weights[(j, i)] = float(rng.uniform(w_lo, w_hi))
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            if j != i and (j, i) not in weights and rng.random() < extra_prob:
                weights[(j, i)] = float(rng.uniform(w_lo, w_hi))
    return weights


@st.composite
def strongly_connected_digraphs(draw, max_n=10):
    """Hypothesis strategy: a spanning cycle in random node order plus any
    subset of the remaining arcs, with weights in [0.5, 10]."""
    n = draw(st.integers(2, max_n))
    cycle = draw(st.permutations(range(1, n + 1)))
    arcs = {(cycle[t], cycle[(t + 1) % n]) for t in range(n)}
    pairs = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1) if j != i]
    arcs |= set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
    weights = draw(st.lists(st.floats(0.5, 10.0), min_size=len(arcs), max_size=len(arcs)))
    return dict_graph(n, dict(zip(sorted(arcs), weights)))


def channel_laws():
    """Hypothesis strategy: the uniform law U(0, 10), or a constant law in [0.1, 10]."""
    return st.one_of(st.just(UniformLaw(0.0, 10.0)), st.floats(0.1, 10.0).map(ConstantLaw))


def mixing_weights(n):
    """Hypothesis strategy: one mixing weight in [0.01, 0.99], or one per agent of ``n``."""
    weights = st.floats(0.01, 0.99)
    return st.one_of(weights, st.lists(weights, min_size=n, max_size=n))


def random_digraph(rng, n, arc_prob=0.3, w_lo=0.5, w_hi=10.0):
    """Arbitrary random digraph; may be disconnected or even arc-free."""
    weights = {}
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            if j != i and rng.random() < arc_prob:
                weights[(j, i)] = float(rng.uniform(w_lo, w_hi))
    return dict_graph(n, weights)


def random_balanced(rng, n, w_lo=0.5, w_hi=10.0):
    """Union of two random full-length cycles, each with one constant weight.

    Every node gains equal in- and out-weight from each cycle, so the
    result is balanced (and strongly connected) by construction.
    """
    weights: dict[tuple[int, int], float] = {}
    for _ in range(2):
        order = rng.permutation(n) + 1
        w = float(rng.uniform(w_lo, w_hi))
        for t in range(n):
            arc = (int(order[t]), int(order[(t + 1) % n]))
            weights[arc] = weights.get(arc, 0.0) + w
    return dict_graph(n, weights)


def closure_strongly_connected(g: WeightedDigraph) -> bool:
    """Transitive-closure oracle: boolean powers of (I + adjacency) up to n."""
    n = g.n
    reach = np.eye(n, dtype=bool)
    adj = np.zeros((n, n), dtype=bool)
    adj[g.arc_cols, g.arc_rows] = True
    for _ in range(n):
        reach = reach | (reach @ adj)
    return bool(reach.all())


def primitive_by_explicit_powers(A: np.ndarray) -> bool:
    """Primitivity oracle: form every power up to the bound (n-1)^2 + 1."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    pattern = (A > 0).astype(float)
    power = pattern.copy()
    for _ in range((n - 1) ** 2 + 1):
        if (power > 0).all():
            return True
        power = (power @ pattern > 0).astype(float)
    return bool((power > 0).all())


def charpoly_moduli(A: np.ndarray) -> np.ndarray:
    """Eigenvalue moduli (descending) via Faddeev-LeVerrier characteristic
    polynomial coefficients and polynomial root finding; a route through
    trace recursions rather than an eigendecomposition of A itself.

    Recursion: M_1 = A, c_k = -tr(M_k) / k, M_{k+1} = A (M_k + c_k I).
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    coeffs = [1.0]
    M = A.copy()
    for k in range(1, n + 1):
        c = -np.trace(M) / k
        coeffs.append(c)
        M = A @ (M + c * np.eye(n))
    return np.sort(np.abs(np.roots(coeffs)))[::-1]


def symmetric_doubly_stochastic(rng, n):
    """Random convex mix of exactly symmetric doubly stochastic parts
    (identity, equal-share complete graph, symmetrized cycle)."""
    cycle = np.zeros((n, n))
    for v in range(n):
        cycle[v, (v + 1) % n] = 1.0
    parts = [np.eye(n), (np.ones((n, n)) - np.eye(n)) / (n - 1), (cycle + cycle.T) / 2]
    coeffs = rng.uniform(0.1, 1.0, 3)
    coeffs /= coeffs.sum()
    return sum(c * part for c, part in zip(coeffs, parts))


def random_primitive_posdiag(rng, n, density=0.4):
    """Random primitive nonnegative matrix with a strictly positive diagonal.

    A strongly connected zero pattern plus a positive diagonal is always
    primitive.
    """
    A = np.zeros((n, n))
    for j, i in random_strongly_connected_weights(rng, n, extra_prob=density):
        A[i - 1, j - 1] = rng.uniform(0.1, 2.0)
    A[np.diag_indices(n)] = rng.uniform(0.1, 2.0, n)
    return A


def ring_with_chords(rng, n, chords, blocks=1, cross=0):
    """Directed ring 1 -> 2 -> ... -> n -> 1 plus ``chords`` random distinct
    in-arcs per node, ``cross`` of them from outside the node's community
    (``blocks`` equal communities of consecutive nodes), all of weight 1.

    With two communities and one cross chord per node the update matrix
    has one slow inter-community mode; with one community and a few
    chords the top of its spectrum is a dense cluster of complex pairs.
    """
    size = n // blocks
    arcs = {}
    for i in range(1, n + 1):
        pred = (i - 2) % n + 1
        arcs[(pred, i)] = 1.0
        others = np.array([j for j in range(1, n + 1) if j != i and j != pred])
        outside = (others - 1) // size != (i - 1) // size
        picked = list(rng.choice(others[outside], cross, replace=False))
        picked += list(rng.choice(others[~outside], chords - cross, replace=False))
        arcs.update({(int(j), i): 1.0 for j in picked})
    return dict_graph(n, arcs)


def strict_json(text):
    """``json.loads`` that fails on ``Infinity``, ``-Infinity`` and ``NaN``,
    which RFC 8259 JSON does not have."""

    def reject(name):
        raise ValueError(f"{name} is not RFC 8259 JSON")

    return json.loads(text, parse_constant=reject)


def child_seed(base, key):
    """Reference ``channel.derive_seed``: the first 64-bit word of numpy's
    own ``SeedSequence(entropy=base, spawn_key=(key,))``."""
    return int(np.random.SeedSequence(entropy=base, spawn_key=(key,)).generate_state(1, np.uint64)[0])


def stream(seed):
    """The channel generator of ``seed`` at the start of its stream, seeded
    through numpy's own ``SeedSequence``."""
    seeds = np.random.SeedSequence(entropy=seed, spawn_key=(_CHANNEL_STREAM,))
    return np.random.Generator(np.random.PCG64DXSM(seeds))


def stream_draw(model, k):
    """Reference draw of step ``k``: ``Generator.uniform`` on the law's bounds
    from output ``k * |E|`` of the seed's stream (output 0 for a
    time-invariant channel); exact zeros redrawn the same way from output
    ``2**127 + k * 2**63`` (right after the draw for a time-invariant
    channel)."""
    size = model.topology.arc_weights.size
    if isinstance(model.law, ConstantLaw):
        return np.full(size, model.law.value)
    rng = stream(model.seed)
    if model.mode == TIME_INVARIANT:
        return generator_uniform_draw(model.law, rng, size)
    rng.bit_generator.advance(k * size)
    values = rng.uniform(model.law.lo, model.law.hi, size)
    rng.bit_generator.advance(2**127 + k * 2**63 - (k + 1) * size)
    return redraw_zeros(model.law, rng, values)


def generator_uniform_draw(law, rng, size):
    """Reference uniform draw: ``Generator.uniform`` on the law's bounds,
    exact zeros redrawn the same way."""
    return redraw_zeros(law, rng, rng.uniform(law.lo, law.hi, size))


def redraw_zeros(law, rng, values):
    """``values`` with each exact zero redrawn by ``Generator.uniform`` on
    the law's bounds from ``rng``, in order, until none is left."""
    while True:
        zero = values <= 0.0
        if not zero.any():
            return values
        values[zero] = rng.uniform(law.lo, law.hi, int(zero.sum()))


def run_child(code, *argv):
    """Run ``code`` in a fresh interpreter that imports this package, with
    ``argv`` as its arguments."""
    src = str(Path(airconsensus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True)


def take_block_step(topology, config, x, values=None):
    """One update of ``config`` on each row of the ``(R, n)`` states ``x``,
    with ``values`` the ``(R, |E|)`` channel coefficients (none for the
    classical protocol): each arc's transmitted state picked by its own
    index with ``np.take``, the sums per receiver by one ``np.bincount`` in
    arc order, then the update's formula."""
    rows, n = x.shape
    index = (np.arange(rows)[:, None] * n + topology.arc_rows).ravel()

    def per_receiver(weights):
        return np.bincount(index, weights=weights.ravel(), minlength=rows * n).reshape(rows, n)

    weighted = np.take(x, topology.arc_cols, axis=1)
    if config.variant == protocol.CLASSICAL:
        perron = perron_operator(topology, config.step_size)
        return perron.diagonal * x + per_receiver(weighted * perron.weights)
    received = per_receiver(weighted * values)
    if config.variant == protocol.SUPERPOSITION:
        m = np.asarray(config.mixing, dtype=float)
        return (1.0 - m) * x + m * (received / per_receiver(values))
    return (x + received) / (topology.in_degrees + 1.0)


def write_trace_per_step(path, trace):
    """Reference ``trace.csv`` writer: ``step,agent,x`` rows, one per agent
    and step, each step's rows formatted by one Python ``%`` with ``%.17g``."""
    agents = [f",{agent},%.17g\n" for agent in range(1, trace.states.shape[1] + 1)]
    with open(path, "w") as fh:
        fh.write("step,agent,x\n")
        for step, x in enumerate(trace.states):
            prefix = str(step)
            fh.write(prefix + prefix.join(agents) % tuple(x.tolist()))


def write_trace_chunked(path, trace):
    """``trace.csv`` of a whole trace through the streaming writer,
    ``textfmt.TraceRows``, fed chunks of whole steps of about
    ``protocol.CHUNK_VALUES`` values, as a recorded run feeds it."""
    n = trace.states.shape[1]
    rows, size = TraceRows(n), max(1, protocol.CHUNK_VALUES // n)
    with open(path, "wb") as fh:
        fh.write(b"step,agent,x\n")
        for first_step in range(0, len(trace.states), size):
            fh.write(rows(trace.states[first_step : first_step + size], first_step))


def reference_graph(n, arcs):
    """``graph_from_arcs`` the dict way, as the arrays were first built: the
    arcs checked one by one into a dict, then sorted as tuples. Returns
    ``(arc_rows, arc_cols, arc_weights, in_degrees)`` or raises the
    builder's ``ValueError``."""
    weights = {}
    for j, i, w in arcs:
        if (j, i) in weights:
            raise ValueError(f"duplicate arc ({j}, {i})")
        weights[(j, i)] = w
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"node count must be a positive integer, got {n!r}")
    for (j, i), w in weights.items():
        if j == i:
            raise ValueError(f"self-loop ({j}, {i}) is not allowed")
        if not (1 <= j <= n and 1 <= i <= n):
            raise ValueError(f"arc ({j}, {i}) outside node range 1..{n}")
        if not w > 0.0:
            raise ValueError(f"arc ({j}, {i}) must have a positive weight, got {w}")
        if not math.isfinite(w):
            raise ValueError(f"arc ({j}, {i}) must have a finite weight, got {w}")
    order = sorted(weights)
    rows = np.array([i - 1 for _, i in order], np.intp)
    cols = np.array([j - 1 for j, _ in order], np.intp)
    values = np.array([float(weights[arc]) for arc in order], float)
    return rows, cols, values, np.bincount(rows, minlength=n)


def reference_strongly_connected(n, arcs):
    """Strong connectivity of the arcs ``(j, i, weight)`` on nodes 1..n by a
    depth-first search from node 1 over dicts of adjacency lists, forward
    and backward."""
    forward = {v: [] for v in range(1, n + 1)}
    backward = {v: [] for v in range(1, n + 1)}
    for j, i, _ in arcs:
        forward[j].append(i)
        backward[i].append(j)
    return all(_reference_reach(adj) == n for adj in (forward, backward))


def _reference_reach(adj):
    seen, stack = {1}, [1]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen)
