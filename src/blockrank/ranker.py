"""Ranking vectors by sparse power iteration on the factored surfing operator.

The iteration step is ``x' = eta * (x @ H) + mu * ((x @ R) @ A) + t * v``
with ``t = 1 - eta - mu``; neither the dense proximity matrix nor the
explicit ``OWN_BLOCK`` dangling rows are formed, and ``H``, ``R`` and ``A``
are applied through transposed views built once, so a step costs
O(nnz(G) + n + nnz(Q) + nnz(R) + nnz(A)) with ``Q`` the dangling operator's
signature-by-dangling-node matrix (``HyperlinkOperator.reach``).  A PageRank
baseline and a small comparison report round out the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decomp import ProximityFactors, indicator
from .errors import ConfigurationError, DimensionError, ReducibleModelError
from .graph import HyperlinkOperator, hyperlink_apply
from .spectra import teleportation_free_check

__all__ = [
    "ComparisonReport",
    "RankParams",
    "RankResult",
    "compare",
    "pagerank",
    "rank",
]

WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class RankParams:
    """Weights and iteration controls for :func:`rank`.

    ``teleport`` is derived as ``1 - eta - mu`` (clamped to exactly 0 when
    within 1e-12).  Whenever it is positive the personalization vector must
    be strictly positive; ``None`` means uniform.
    """

    eta: float = 0.85
    mu: float = 0.15
    personalization: np.ndarray | None = None
    tol: float = 1e-9
    max_iter: int = 1000
    teleport: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ConfigurationError(f"eta must be in (0, 1], got {self.eta}")
        if not 0.0 <= self.mu < 1.0:
            raise ConfigurationError(f"mu must be in [0, 1), got {self.mu}")
        rest = 1.0 - self.eta - self.mu
        if rest < -WEIGHT_TOL:
            raise ConfigurationError(f"eta + mu exceeds 1 by {-rest:.3e}")
        object.__setattr__(self, "teleport", 0.0 if abs(rest) <= WEIGHT_TOL else rest)
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ConfigurationError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigurationError("max_iter must be at least 1")


@dataclass(frozen=True)
class RankResult:
    """Probability vector over node ids plus convergence diagnostics."""

    scores: np.ndarray
    iterations: int
    residual: float
    converged: bool


@dataclass(frozen=True)
class ComparisonReport:
    """L1 distance and top-k agreement between two rankings."""

    l1: float
    overlap: float
    top_a: tuple[str, ...]
    top_b: tuple[str, ...]
    k: int
    clipped: bool


def order_by_score(scores: np.ndarray, labels) -> list[int]:
    """Node ids by descending score, ties broken by ascending label."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    order.sort(key=(-np.asarray(scores)).tolist().__getitem__)  # stable: ties keep label order
    return order


def _validate_personalization(v: np.ndarray | None, n: int) -> np.ndarray:
    if v is None:
        return np.full(n, 1.0 / n)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (n,):
        raise DimensionError(f"personalization has shape {v.shape}, expected ({n},)")
    if v.min() <= 0.0:
        raise ConfigurationError("personalization must be entrywise positive")
    if abs(v.sum() - 1.0) > 1e-9:
        raise ConfigurationError("personalization must sum to 1")
    return v


def _power_iteration(step, n: int, tol: float, max_iter: int) -> RankResult:
    # Uniform start; renormalize each step to counter rounding drift.
    x = np.full(n, 1.0 / n)
    residual = np.inf
    for it in range(1, max_iter + 1):
        y = step(x)
        y /= y.sum()
        residual = float(np.abs(y - x).sum())
        x = y
        if residual <= tol:
            return RankResult(scores=x, iterations=it, residual=residual, converged=True)
    return RankResult(scores=x, iterations=max_iter, residual=residual, converged=False)


def rank(
    h: HyperlinkOperator,
    f: ProximityFactors,
    params: RankParams,
    strict: bool = True,
) -> RankResult:
    """Ranking vector of the block-aware surfing operator.

    With ``teleport == 0`` and ``strict`` (the default) the admissibility
    check runs first and a reducible indicator matrix raises
    :class:`ReducibleModelError` carrying the blocking block components;
    pass ``strict=False`` to proceed anyway and get an honest convergence
    report.  Non-convergence is reported, not raised.
    """
    n = h.n
    if f.n != n:
        raise DimensionError(f"factors are for {f.n} nodes but the operator has {n}")

    v = None
    if params.teleport > 0.0:
        v = _validate_personalization(params.personalization, n)
    elif strict:
        report = teleportation_free_check(indicator(f))
        if not report.irreducible:
            raise ReducibleModelError(
                "indicator matrix is reducible; ranking without teleportation "
                f"is not well-defined ({report.scc_count} block components)",
                components=report.blocking_components,
            )

    eta, mu, teleport = params.eta, params.mu, params.teleport
    R_t, A_t = f.R.T, f.A.T  # built once: x @ R is R.T @ x, same kernel

    def step(x: np.ndarray) -> np.ndarray:
        y = eta * hyperlink_apply(h, x)
        if mu != 0.0:
            y += mu * (A_t @ (R_t @ x))
        if teleport != 0.0:
            y += teleport * v
        return y

    return _power_iteration(step, n, params.tol, params.max_iter)


def pagerank(
    h: HyperlinkOperator,
    alpha: float = 0.85,
    v: np.ndarray | None = None,
    tol: float = 1e-9,
    max_iter: int = 1000,
) -> RankResult:
    """PageRank baseline: stationary vector of ``alpha * H + (1 - alpha) * e v^T``.

    Runs the same iteration scheme as :func:`rank`.  ``alpha = 0`` returns
    the personalization vector itself; ``alpha = 1`` is rejected because
    convergence is not guaranteed without teleportation.
    """
    if not 0.0 <= alpha < 1.0:
        raise ConfigurationError(f"alpha must be in [0, 1), got {alpha}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigurationError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ConfigurationError("max_iter must be at least 1")
    n = h.n
    v = _validate_personalization(v, n)
    one_minus_alpha = 1.0 - alpha

    def step(x: np.ndarray) -> np.ndarray:
        return alpha * hyperlink_apply(h, x) + one_minus_alpha * v

    return _power_iteration(step, n, tol, max_iter)


def compare(a: RankResult, b: RankResult, k: int, labels) -> ComparisonReport:
    """L1 distance and top-k overlap of two rankings over the same nodes.

    Top-k lists order by descending score with ties broken by ascending
    label; ``k`` larger than the node count is clipped (flagged in the
    report).
    """
    labels = tuple(labels)
    n = len(labels)
    if a.scores.shape != (n,) or b.scores.shape != (n,):
        raise DimensionError("rankings and labels must cover the same node universe")
    if k < 1:
        raise ConfigurationError(f"k must be a positive integer, got {k}")
    clipped = k > n
    k_eff = min(k, n)

    top_a, top_b = (tuple(labels[i] for i in order_by_score(scores, labels)[:k_eff])
                    for scores in (a.scores, b.scores))
    overlap = len(set(top_a) & set(top_b)) / k_eff
    l1 = float(np.abs(a.scores - b.scores).sum())
    return ComparisonReport(
        l1=l1, overlap=overlap, top_a=top_a, top_b=top_b, k=k_eff, clipped=clipped
    )
