"""Matrix kernel of the analysis paths: stochasticity and primitivity
predicates, Perron matrices, and dominant eigen-structure.

The predicates and the power iteration take dense n x n matrices and
serve as references. ``ArcOperator`` holds an update matrix as its
diagonal plus one weight per arc, so its products cost O(n + |E|); its
``dense()`` is the one place a dense update matrix is assembled.
``top_eigenpair`` is a restarted Arnoldi method on such products: the
predictions of a run (``left_perron_vector``, ``subdominant_modulus``)
reach sparse n in the thousands without forming an n x n array.
Tolerances default to the table below and every predicate takes an
explicit ``tol`` where a tolerance is meaningful.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .graph import WeightedDigraph, graph_from_arcs, step_size_bound
from .records import record

# Tolerance / iteration defaults, in one place.
DEFAULT_TOL = 1e-12
POWER_MAX_ITER = 100_000
#: Restarted Arnoldi: basis size, Ritz vectors kept at a restart, most
#: restarts, and the Ritz residual (relative to the norm of the projected
#: matrix) at which the top pair counts as converged.
KRYLOV_BASIS = 40
KRYLOV_KEEP = 16
KRYLOV_MAX_RESTARTS = 500
KRYLOV_TOL = 1e-14


class PowerIterationError(RuntimeError):
    """Power iteration failed to reach the requested residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (final residual {residual:.3e})")
        self.residual = residual


class ArnoldiError(RuntimeError):
    """Restarted Arnoldi ran out of restarts, or reached an invariant
    subspace, before its top Ritz pair converged (``restarts`` and the
    final ``residual`` say how far it got), or returned a value its
    operator cannot have."""

    def __init__(self, message: str, restarts: int = 0, residual: float = np.nan):
        super().__init__(message)
        self.restarts = restarts
        self.residual = residual


@record
class EigenPair:
    """Dominant eigenvalue and its left eigenvector, normalized to sum 1."""

    value: float
    left_vector: np.ndarray


@record
class ArcOperator:
    """An n x n matrix held as its diagonal plus one weight per off-diagonal
    entry: ``weights[e]`` sits at ``(rows[e], cols[e])``. Each product with
    a vector is one ``np.bincount``, O(n + |E|)."""

    diagonal: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_dense(cls, A: np.ndarray) -> ArcOperator:
        """The diagonal and the off-diagonal nonzeros of a dense matrix."""
        A = _as_square(A)
        off = A.copy()
        np.fill_diagonal(off, 0.0)
        rows, cols = np.nonzero(off)
        return cls(np.diag(A).copy(), rows, cols, off[rows, cols])

    @property
    def n(self) -> int:
        return len(self.diagonal)

    def dense(self) -> np.ndarray:
        """The n x n matrix itself, zero off the diagonal and the arcs."""
        A = np.zeros((self.n, self.n))
        A[self.rows, self.cols] = self.weights
        np.fill_diagonal(A, self.diagonal)
        return A

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x``."""
        return self.diagonal * x + np.bincount(
            self.rows, weights=self.weights * x[self.cols], minlength=self.n
        )

    def offdiagonal_rmatvec(self, y: np.ndarray) -> np.ndarray:
        """``y @ (A - diag(A))``."""
        return np.bincount(self.cols, weights=self.weights * y[self.rows], minlength=self.n)

    def offdiagonal_row_sums(self) -> np.ndarray:
        """Row sums of ``A - diag(A)``: ``1 - diag(A)`` for a row-stochastic
        ``A``, summed without that subtraction's cancellation."""
        return np.bincount(self.rows, weights=self.weights, minlength=self.n)


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


def perron_matrix(g: WeightedDigraph, step_size: float) -> np.ndarray:
    """One-step consensus operator ``I - step_size * L``, with ``L`` the
    graph Laplacian of ``g`` (in-weight degree matrix minus adjacency), the
    dense form of ``perron_operator(g, step_size)``.

    Row-stochastic with a strictly positive diagonal for any step size in
    the open interval (0, step_size_bound(g)); primitive whenever the
    graph is strongly connected.
    """
    return perron_operator(g, step_size).dense()


def perron_operator(g: WeightedDigraph, step_size: float) -> ArcOperator:
    """The Perron matrix as an ``ArcOperator``: ``step_size`` times the weight
    of each arc and the diagonal ``1 -`` the sum of its row's arc entries."""
    if g.arc_weights.size:
        bound = step_size_bound(g)
        if not (0.0 < step_size < bound):
            raise ValueError(f"step size must lie in (0, {bound}), got {step_size}")
    elif not step_size > 0.0:
        raise ValueError(f"step size must be positive, got {step_size}")
    weights = step_size * g.arc_weights
    in_weights = np.bincount(g.arc_rows, weights=weights, minlength=g.n)
    return ArcOperator(1.0 - in_weights, g.arc_rows, g.arc_cols, weights)


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
    transmitters, receivers = np.nonzero((P.T > 0.0) & ~np.eye(len(P), dtype=bool))
    weights = P[receivers, transmitters] / step_size
    return graph_from_arcs(len(P), zip((transmitters + 1).tolist(), (receivers + 1).tolist(), weights.tolist()))


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


def top_eigenpair(matvec: Callable[[np.ndarray], np.ndarray], n: int) -> tuple[complex, np.ndarray]:
    """Largest-modulus eigenvalue of a real linear operator on R^n and a
    unit eigenvector (complex for a complex eigenvalue).

    Thick-restart Arnoldi (Stewart, SIAM J. Matrix Anal. Appl. 23(3),
    2001; Saad, Numerical Methods for Large Eigenvalue Problems, ch. 6-7)
    with a basis of ``KRYLOV_BASIS`` vectors, each orthogonalized by two
    passes of classical Gram-Schmidt. A cycle that does not converge
    restarts on an orthonormal basis of the real and imaginary parts of
    the ``KRYLOV_KEEP`` largest-modulus Ritz vectors, so a complex pair
    is kept whole. The run stops when the top Ritz pair's residual
    ``|A x - theta x|``, computed with the operator itself, is at most
    ``KRYLOV_TOL`` times the norm of the projected matrix, or times 1 if
    that norm is smaller: the tolerance is meant for operators of
    spectral radius at most about 1, as both callers' are. A basis that
    spans an invariant subspace (always so once it holds n vectors) ends
    the run too: a new vector is taken as rounding noise when its norm is
    at most ``KRYLOV_TOL`` times that of the product it came from. The
    start vector is fixed, so the result is deterministic. Raises
    ``ArnoldiError`` if the top pair fails its residual on an invariant
    subspace or after ``KRYLOV_MAX_RESTARTS`` restarts.
    """
    m = min(KRYLOV_BASIS, n)
    V = np.empty((n, m + 1))
    H = np.zeros((m + 1, m))
    start = 1.0 + 0.5 * np.sin(np.arange(1.0, n + 1.0))
    V[:, 0] = start / np.linalg.norm(start)
    kept, residual = 0, np.inf
    for restart in range(KRYLOV_MAX_RESTARTS + 1):
        end = m
        for j in range(kept, m):
            w = matvec(V[:, j])
            scale = np.linalg.norm(w)
            for _ in range(2):
                h = V[:, : j + 1].T @ w
                w -= V[:, : j + 1] @ h
                H[: j + 1, j] += h
            H[j + 1, j] = np.linalg.norm(w)
            # All of A v but rounding noise lies in the basis: invariant.
            if H[j + 1, j] <= KRYLOV_TOL * scale:
                end = j + 1
                break
            V[:, j + 1] = w / H[j + 1, j]
        theta, Y = np.linalg.eig(H[:end, :end])
        order = np.argsort(-np.abs(theta), kind="stable")
        x = V[:, :end] @ Y[:, order[0]]
        residual = float(np.linalg.norm(matvec(x.real) + 1j * matvec(x.imag) - theta[order[0]] * x))
        # The floor of 1 admits an operator whose output is rounding noise
        # (a rank-one D, deflated): its noise-level top pair is the answer.
        if residual <= KRYLOV_TOL * max(np.linalg.norm(H[:end, :end]), 1.0):
            return complex(theta[order[0]]), x
        if end < m or m == n:
            break
        wanted = Y[:, order[:KRYLOV_KEEP]]
        # A real Ritz vector has a zero imaginary part and the two members
        # of a conjugate pair span one plane: drop those null directions.
        U, s, _ = np.linalg.svd(np.hstack([wanted.real, wanted.imag]), full_matrices=False)
        Q = U[:, s > 1e-8 * s[0]]
        kept = Q.shape[1]
        T, b = Q.T @ H[:m, :m] @ Q, H[m, m - 1] * Q[-1]
        V[:, :kept] = V[:, :m] @ Q
        V[:, kept] = V[:, m]
        H[:] = 0.0
        H[:kept, :kept], H[kept, :kept] = T, b
    raise ArnoldiError(
        f"restarted Arnoldi did not converge after {restart} restarts (final residual {residual:.3e})",
        restart,
        residual,
    )


def left_perron_vector(A: ArcOperator) -> np.ndarray:
    """Left eigenvector ``w`` of the eigenvalue 1 of a primitive row-stochastic
    ``A``, with ``sum(w) == 1``.

    With ``s`` the off-diagonal row sums of ``A`` (``1 - diag(A)``, summed
    without cancellation), ``w' A = w'`` is exactly ``pi' G = pi'`` for
    ``pi = s * w`` and the row-stochastic chain ``G = (A - diag(A)) / s``
    (rows scaled). So ``w`` is found as ``pi / s``, with ``pi`` the top
    eigenvector of the lazy chain ``y -> (y + y G) / 2``, whose eigenvalue
    1 is simple and alone on the unit circle. For the superposition
    update ``G`` holds the channel shares ``h_ij / sum_l h_il`` alone: the
    mixing weights enter only through the final scaling, and a small
    weight does not crowd the spectrum towards 1 and degrade the solve.
    Raises ``np.linalg.LinAlgError`` if a row has no off-diagonal weight,
    so that the eigenvalue 1 is not simple.
    """
    scale = A.offdiagonal_row_sums()
    if not (scale > 0.0).all():
        raise np.linalg.LinAlgError("a row has no off-diagonal weight; the eigenvalue 1 is not simple")
    _, pi = top_eigenpair(lambda y: 0.5 * (y + A.offdiagonal_rmatvec(y / scale)), A.n)
    w = pi.real / scale
    return w / w.sum()


def subdominant_modulus(A: ArcOperator) -> float:
    """Second-largest eigenvalue modulus of a row-stochastic ``A``, O(|E|)
    per product: the top Ritz modulus of ``x -> Ax - mean(Ax)``, which has
    ``A``'s spectrum with the eigenvalue 1 of ``A 1 = 1`` moved to 0.
    Raises ``ArnoldiError`` rather than return a modulus above
    ``1 + DEFAULT_TOL``, which no row-stochastic matrix has."""

    def deflated(x):
        y = A.matvec(x)
        return y - y.mean()

    modulus = abs(top_eigenpair(deflated, A.n)[0])
    if modulus > 1.0 + DEFAULT_TOL:
        raise ArnoldiError(f"second eigenvalue modulus {modulus:.6g} exceeds 1 for a row-stochastic matrix")
    return modulus
