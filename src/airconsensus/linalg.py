"""Dense matrix kernel of the analysis paths: stochasticity and
primitivity predicates, Perron matrices, and dominant eigen-structure.

Inputs are dense n x n matrices, practical up to a few hundred nodes;
the simulation steps work on arc lists and reach sparse n in the
thousands. ``dominant_left_eigenvector`` is a power iteration kept as an
independent reference; the consensus prediction of a run
(``analysis.predicted_consensus``) solves for the same vector directly.
Tolerances default to the table below and every predicate takes an
explicit ``tol`` where a tolerance is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import WeightedDigraph, laplacian, step_size_bound

# Tolerance / iteration defaults, in one place.
DEFAULT_TOL = 1e-12
POWER_MAX_ITER = 100_000


class PowerIterationError(RuntimeError):
    """Power iteration failed to reach the requested residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (final residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class EigenPair:
    """Dominant eigenvalue and its left eigenvector, normalized to sum 1."""

    value: float
    left_vector: np.ndarray


def _as_square(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A


def is_row_stochastic(A: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff all entries are >= -tol and every row sums to 1 within tol."""
    A = _as_square(A)
    if (A < -tol).any():
        return False
    return bool(np.all(np.abs(A.sum(axis=1) - 1.0) <= tol))


def is_primitive(A: np.ndarray) -> bool:
    """True iff some power of the nonnegative matrix ``A`` is entrywise positive.

    Works on the boolean zero pattern with repeated squaring, so only
    powers of two are formed; a positive power at or past the Wielandt
    bound (n-1)^2 + 1 exists iff one exists at all, because a primitive
    matrix has no zero row or column and positivity then persists under
    further multiplication.
    """
    A = _as_square(A)
    if (A < 0).any():
        raise ValueError("primitivity is defined for nonnegative matrices only")
    n = A.shape[0]
    B = (A > 0).astype(float)
    if (B.sum(axis=0) == 0).any() or (B.sum(axis=1) == 0).any():
        return False
    bound = (n - 1) ** 2 + 1
    power = 1
    while power < bound:
        if B.all():
            return True
        B = (B @ B) > 0
        B = B.astype(float)
        power *= 2
    return bool(B.all())


def same_zero_pattern(A: np.ndarray, B: np.ndarray) -> bool:
    """True iff the two nonnegative matrices have zeros in the same positions."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    return bool(np.array_equal(A == 0, B == 0))


def perron_matrix(g: WeightedDigraph, step_size: float) -> np.ndarray:
    """One-step consensus operator ``I - step_size * laplacian(g)``.

    Row-stochastic with a strictly positive diagonal for any step size in
    the open interval (0, step_size_bound(g)); primitive whenever the
    graph is strongly connected.
    """
    if g.arcs:
        bound = step_size_bound(g)
        if not (0.0 < step_size < bound):
            raise ValueError(
                f"step size must lie in (0, {bound}), got {step_size}"
            )
    elif not step_size > 0.0:
        raise ValueError(f"step size must be positive, got {step_size}")
    return np.eye(g.n) - step_size * laplacian(g)


def graph_from_stochastic(P: np.ndarray, step_size: float) -> WeightedDigraph:
    """Recover the weighted digraph whose Perron matrix with ``step_size`` is ``P``.

    Off-diagonal entries become arc weights ``P[i, j] / step_size``; the
    diagonal must be strictly positive.
    """
    P = _as_square(P)
    if not step_size > 0.0:
        raise ValueError(f"step size must be positive, got {step_size}")
    diag = np.diag(P)
    if (diag <= 0.0).any():
        raise ValueError("matrix must have a strictly positive diagonal")
    if not is_row_stochastic(P, tol=1e-9):
        raise ValueError("matrix must be row-stochastic")
    n = P.shape[0]
    weights = {
        (j + 1, i + 1): P[i, j] / step_size
        for i in range(n)
        for j in range(n)
        if i != j and P[i, j] > 0.0
    }
    return WeightedDigraph(n, weights)


def dominant_left_eigenvector(
    A: np.ndarray, tol: float = DEFAULT_TOL, max_iter: int = POWER_MAX_ITER
) -> EigenPair:
    """Left eigenvector of the dominant eigenvalue of a primitive row-stochastic matrix.

    Power iteration on the transpose with 1-norm renormalization each
    step; for primitive input the dominant eigenvalue is simple, so the
    iteration converges geometrically at the second eigenvalue modulus.

    Returns a vector ``w > 0`` with ``sum(w) == 1`` and residual
    ``max |w'A - value * w'| <= tol``. Raises ``PowerIterationError`` if
    the residual is not met within ``max_iter`` steps.
    """
    A = _as_square(A)
    if (A < 0).any():
        raise ValueError("expected a nonnegative matrix")
    n = A.shape[0]
    At = A.T.copy()
    w = np.full(n, 1.0 / n)
    residual = np.inf
    for _ in range(max_iter):
        w_next = At @ w
        total = w_next.sum()
        if total <= 0.0:
            raise PowerIterationError("iterate collapsed to zero", np.inf)
        w_next /= total
        residual = float(np.max(np.abs(w_next @ A - total * w_next)))
        w = w_next
        if residual <= tol:
            return EigenPair(value=float(total), left_vector=w)
    raise PowerIterationError(
        f"no convergence after {max_iter} iterations", residual
    )


def second_eigenvalue_modulus(A: np.ndarray) -> float:
    """Second-largest eigenvalue modulus; strictly below 1 for primitive
    row-stochastic matrices, where it governs the consensus convergence rate."""
    A = _as_square(A)
    if A.shape[0] < 2:
        return 0.0
    moduli = np.sort(np.abs(np.linalg.eigvals(A)))
    return float(moduli[-2])
