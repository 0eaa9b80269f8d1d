"""Irreducibility/primitivity checks and dense oracles for stochastic matrices.

Everything here works on the positivity pattern of a non-negative matrix.
Irreducibility is strong connectivity of the pattern digraph, decided on
the sparse pattern by one linear-time strongly-connected-components pass
(``scipy.sparse.csgraph``), so the K x K block indicator matrix is never
made dense.  Primitivity is decided by the dense Wielandt power test: a
non-negative k x k matrix is primitive exactly when its pattern raised to
k^2 - 2k + 2 is entrywise positive.  Magnitudes never enter, so repeated
boolean squaring is exact and overflow-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .decomp import IndicatorMatrix
from .errors import CapExceededError, ConvergenceError, DimensionError

__all__ = [
    "CheckReport",
    "dense_stationary",
    "is_irreducible",
    "is_primitive",
    "teleportation_free_check",
]

PRIMITIVITY_CAP = 512
STATIONARY_CAP = 2000


@dataclass(frozen=True)
class CheckReport:
    """Verdict on whether ranking without teleportation is well-defined.

    ``blocking_components`` lists the block-graph SCCs when reducible
    (empty otherwise).
    """

    irreducible: bool
    scc_count: int
    blocking_components: tuple[tuple[int, ...], ...]

    @property
    def primitive_guarantee(self) -> bool:
        """Always ``irreducible``: by the paper's theorem an irreducible block
        indicator matrix makes the full surfing operator primitive, and a
        reducible one makes it not, so the verdict needs no second field."""
        return self.irreducible


def _positive_pattern(m) -> sparse.csr_array:
    """The positivity pattern of a non-negative square matrix (dense, bool or
    sparse) as a boolean CSR; stored zeros are dropped, since csgraph would
    read them as edges."""
    shape = np.shape(m)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionError(f"matrix of shape {shape} is not square")
    m = sparse.csr_array(m)
    if np.isnan(m.data).any():
        raise ValueError("matrix must not contain NaN")
    if (m.data < 0).any():
        raise ValueError("matrix must be non-negative")
    return m > 0


def is_irreducible(m) -> tuple[bool, list[list[int]]]:
    """Whether the pattern digraph of ``m`` is strongly connected.

    Returns the verdict together with the condensation components, members
    sorted ascending and components ordered by their smallest member.  A
    single vertex counts as strongly connected even without a self-loop,
    matching the graph-theoretic reading of the pattern.
    """
    _, labels = csgraph.connected_components(
        _positive_pattern(m), directed=True, connection="strong")
    # name each node's component by its smallest member
    smallest = np.unique(labels, return_index=True)[1][labels]
    order = np.argsort(smallest, kind="stable")  # by component, then by node id
    members = order.tolist()
    starts = np.flatnonzero(np.diff(smallest[order], prepend=-1)).tolist()
    components = [members[a:b] for a, b in zip(starts, starts[1:] + [len(members)])]
    return len(components) == 1, components


def _bool_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.astype(np.float64) @ b.astype(np.float64)) > 0


def _bool_power(pattern: np.ndarray, exponent: int) -> np.ndarray:
    """Positivity pattern of ``pattern ** exponent`` by repeated squaring."""
    result: np.ndarray | None = None
    base = pattern
    e = exponent
    while e:
        if e & 1:
            result = base if result is None else _bool_matmul(result, base)
        e >>= 1
        if e:
            base = _bool_matmul(base, base)
    return result


def is_primitive(m, cap: int = PRIMITIVITY_CAP) -> bool:
    """Wielandt power test for primitivity of a non-negative square matrix.

    Dense oracle: refuses orders above ``cap``.  Equivalent to irreducible
    with period 1; also the ground truth the cheap irreducible-plus-positive-
    diagonal shortcut must agree with.
    """
    positive = _positive_pattern(m)
    k = positive.shape[0]
    if k > cap:
        raise CapExceededError(f"primitivity oracle refused for order {k} (cap {cap})")
    exponent = k * k - 2 * k + 2
    return bool(_bool_power(positive.toarray(), exponent).all())


def teleportation_free_check(w: IndicatorMatrix) -> CheckReport:
    """Decide admissibility of no-teleportation ranking from the indicator matrix."""
    irreducible, components = is_irreducible(w.matrix)
    return CheckReport(
        irreducible=irreducible,
        scc_count=len(components),
        blocking_components=()
        if irreducible
        else tuple(tuple(comp) for comp in components),
    )


def dense_stationary(
    p: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    cap: int = STATIONARY_CAP,
) -> np.ndarray:
    """Stationary vector of a dense row-stochastic matrix by power iteration.

    Starts from the uniform vector and renormalizes each step; returns a
    probability vector whose residual ``||x @ p - x||_1`` is at most ``tol``.
    Raises :class:`ConvergenceError` (carrying the final residual) when
    ``max_iter`` steps do not reach the tolerance.
    """
    dense = np.asarray(p, dtype=np.float64)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise DimensionError(f"matrix of shape {dense.shape} is not square")
    n = dense.shape[0]
    if n > cap:
        raise CapExceededError(f"dense stationary oracle refused for order {n} (cap {cap})")
    if not np.isfinite(dense).all():
        raise ValueError("matrix entries must be finite")
    if dense.size and dense.min() < 0:
        raise ValueError("matrix must be non-negative")
    row_err = np.abs(dense.sum(axis=1) - 1.0).max()
    if row_err > 1e-10:
        raise ValueError(f"rows must sum to 1 (max deviation {row_err:.3e})")

    x = np.full(n, 1.0 / n)
    residual = np.inf
    for _ in range(max_iter):
        y = x @ dense
        y /= y.sum()
        residual = float(np.abs(y - x).sum())
        x = y
        if residual <= tol:
            return x
    raise ConvergenceError(
        f"no convergence within {max_iter} iterations (residual {residual:.3e})",
        residual=residual,
    )
