"""Ranking vectors by sparse power iteration on the factored surfing operator.

The iteration step is ``x' = eta * (x @ H) + mu * ((x @ R) @ A) + t * v``
with ``t = 1 - eta - mu``; neither the dense proximity matrix nor the
explicit ``OWN_BLOCK`` dangling rows are formed, and ``H``, ``R`` and ``A``
are applied through transposed views built once, so a step costs
O(nnz(G) + n + nnz(Q) + nnz(R) + nnz(A)) with ``Q`` the dangling operator's
signature-by-dangling-node matrix (``HyperlinkOperator.reach``).

Without teleportation the iteration contracts at ``|lambda_2(P)|``, which
tends to 1 as the blocks decouple (the nearly completely decomposable
regime).  There, :func:`rank` rescales ``x`` before each step so that the
mass of each aggregate (the nodes whose lowest block is the same) matches
the stationary vector of the small coupled chain between aggregates
(iterative aggregation-disaggregation, Koury, McAllister & Stewart 1984).
The stop rule and the returned vector are those of the plain step that
follows, so ``|x @ P - x|_1 <= tol`` holds as without corrections.  Whether
corrections run is decided once from the input (:func:`block_aggregation`).
A PageRank baseline and a small comparison report round out the module.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .decomp import ProximityFactors, indicator
from .errors import ConfigurationError, DimensionError, ReducibleModelError
from .graph import DanglingPolicy, HyperlinkOperator, hyperlink_apply
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
# Largest block leak (probability that one step from the uniform vector
# leaves the walker's aggregate) at which aggregation-disaggregation
# corrections run.  On a coupling sweep (K = 8, n = 8000) corrected runs
# cost as much wall time as plain ones near a leak of 0.22; half of that
# leaves room for blocks that mix more slowly inside.
LEAK = 0.1
RATE_WINDOW = 5  # residual ratios averaged into RankResult.rate


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
    """Probability vector over node ids plus convergence diagnostics.

    ``corrections`` counts the aggregation-disaggregation corrections that
    ran; ``rate`` is the geometric mean of the last few residual ratios
    (the observed contraction per step; NaN after a single step).
    """

    scores: np.ndarray
    iterations: int
    residual: float
    converged: bool
    corrections: int = 0
    rate: float = math.nan

    def steps_to(self, tol: float) -> float:
        """Further steps the observed rate needs to bring the residual to
        ``tol``: 0 when it is there already, inf when it is not shrinking."""
        if self.residual <= tol:
            return 0
        if not 0.0 <= self.rate < 1.0:
            return math.inf
        if self.rate == 0.0:
            return 1
        return math.ceil(math.log(tol / self.residual) / math.log(self.rate))


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
    if not np.isfinite(v).all():
        raise ConfigurationError("personalization must be finite")
    if v.min() <= 0.0:
        raise ConfigurationError("personalization must be entrywise positive")
    if abs(v.sum() - 1.0) > 1e-9:
        raise ConfigurationError("personalization must sum to 1")
    return v


@dataclass(frozen=True)
class BlockAggregation:
    """Aggregation-disaggregation corrector for the teleport-free operator
    ``P = eta * H + mu * R @ A``.

    Node ``u`` belongs to aggregate ``agg[u]``, the renumbered lowest block
    containing it; ``E`` is the matching ``n x k`` 0/1 matrix.  ``rows``,
    ``slot`` and ``data`` list the entries ``(u, j)`` of ``eta * H E`` at
    slot ``agg[u] * k + j``, then the entries ``(u, b)`` of ``R`` at slot
    ``k * k + agg[u] * K + b``, so one ``bincount`` gives both
    ``E^T Diag(x) eta H E`` and ``E^T Diag(x) R``.  The proximity term stays
    factored, since for a cover ``R @ A E`` can hold ``n x k`` entries:
    ``ae`` is the dense ``K x k`` matrix ``mu * A E``.  Under ``UNIFORM_ALL``
    the dangling rows of ``eta * H E`` are all ``spread`` and enter as an
    outer product.  ``leak`` is the probability that one step from the
    uniform vector leaves the walker's aggregate.
    """

    agg: np.ndarray
    rows: np.ndarray
    slot: np.ndarray
    data: np.ndarray
    ae: np.ndarray
    leak: float
    dangling: np.ndarray | None = None
    spread: np.ndarray | None = None

    def correct(self, x: np.ndarray) -> np.ndarray | None:
        """``x`` with each aggregate's mass set to the stationary vector of the
        coupled ``k x k`` chain ``C = Diag(1/xi) E^T Diag(x) P E``, ``xi = E^T x``;
        ``None`` when the coarse solve fails or gives a non-positive vector."""
        K, k = self.ae.shape
        xi = np.bincount(self.agg, weights=x, minlength=k)
        if not (xi > 0.0).all():
            return None
        flat = np.bincount(self.slot, weights=x[self.rows] * self.data, minlength=k * (k + K))
        coupled = flat[:k * k].reshape(k, k) + flat[k * k:].reshape(k, K) @ self.ae
        if self.dangling is not None:
            mass = np.bincount(self.agg[self.dangling], weights=x[self.dangling], minlength=k)
            coupled += np.outer(mass, self.spread)
        # pi (C - I) = 0 with the last equation replaced by sum(pi) = 1
        system = coupled.T / xi - np.eye(k)
        system[-1] = 1.0
        rhs = np.zeros(k)
        rhs[-1] = 1.0
        try:
            pi = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            scale = pi / xi
        if not ((pi > 0.0).all() and np.isfinite(scale).all()):
            return None
        y = x * scale[self.agg]
        y /= y.sum()
        return y


def block_aggregation(
    h: HyperlinkOperator, f: ProximityFactors, params: RankParams
) -> BlockAggregation | None:
    """The corrector :func:`rank` uses, or ``None`` where corrections would
    not pay.

    Corrections run only for the teleport-free operator with ``mu > 0``, at
    least two aggregates, ``K^2 <= n`` blocks (no dense coarse matrix is
    larger than a score vector), and a block leak of at most :data:`LEAK`:
    with strong coupling the plain iteration is fast already and a
    correction costs more than it saves.  The decision costs
    O(nnz(G) + nnz(R) + n) and keeps nothing when it says no.
    """
    n, K = h.n, f.K
    if params.teleport != 0.0 or params.mu == 0.0 or K * K > n:
        return None
    lowest = f.A.T.tocsr()  # row u: the blocks containing u, ascending
    first = lowest.indices[lowest.indptr[:-1]]
    used = np.bincount(first, minlength=K) > 0
    k = int(used.sum())
    if k < 2:
        return None
    agg = (np.cumsum(used) - 1)[first]  # aggregates numbered in block order

    # leak = 1 - trace(E^T P E) / n, from the diagonal terms alone; the links
    # decide most refusals before the proximity term is formed
    eta, mu = params.eta, params.mu
    base, dangling = h.base, h.dangling
    size = np.bincount(agg, minlength=k)
    stay = base.data[agg[base.indices] == np.repeat(agg, np.diff(base.indptr))].sum()
    if h.policy is DanglingPolicy.OWN_BLOCK:  # the union of u's blocks holds u's aggregate
        stay += (h.share * size[agg[dangling]]).sum()
    else:
        stay += size[agg[dangling]].sum() / n
    leak = eta * (1.0 - stay / n)
    if leak > LEAK:
        return None
    R, A = f.R, f.A
    r_rows = np.repeat(np.arange(n), np.diff(R.indptr))
    r_slot = agg[r_rows] * K + R.indices
    a_rows = np.repeat(np.arange(K), np.diff(A.indptr))
    ae = np.bincount(a_rows * k + agg[A.indices], weights=A.data, minlength=K * k).reshape(K, k)
    reached = np.bincount(r_slot, weights=R.data, minlength=k * K).reshape(k, K)
    leak += mu * (1.0 - (reached * ae.T).sum() / n)
    if leak > LEAK:
        return None

    # H E: the links through one sparse product.  Nodes with one signature
    # share their aggregate, so OWN_BLOCK dangling node i sends share[i] *
    # (nodes of signature s) to aggregate agg(s) for each signature s its row
    # reaches; UNIFORM_ALL dangling rows are all size / n.
    he = base @ sparse.csr_array((np.ones(n), agg, np.arange(n + 1)), shape=(n, k))
    if h.policy is DanglingPolicy.OWN_BLOCK:
        sig_agg = np.empty(h.reach.shape[0], dtype=np.int64)
        sig_agg[h.signature] = agg
        reach = h.reach.tocoo()
        he = he + sparse.csr_array((h.share[reach.col] * np.bincount(h.signature)[reach.row],
                                    (dangling[reach.col], sig_agg[reach.row])), shape=(n, k))
    uniform = h.policy is DanglingPolicy.UNIFORM_ALL and dangling.size > 0
    he_rows = np.repeat(np.arange(n), np.diff(he.indptr))
    return BlockAggregation(
        agg=agg,
        rows=np.concatenate([he_rows, r_rows]),
        slot=np.concatenate([agg[he_rows] * k + he.indices, k * k + r_slot]),
        data=np.concatenate([eta * he.data, R.data]),
        ae=mu * ae,
        leak=leak,
        dangling=dangling if uniform else None,
        spread=eta * size / n if uniform else None,
    )


def _rate(history: deque) -> float:
    if len(history) < 2:
        return math.nan
    if history[0] == 0.0:
        return 0.0
    return (history[-1] / history[0]) ** (1.0 / (len(history) - 1))


def power_iteration(
    step, n: int, tol: float, max_iter: int, coarse: BlockAggregation | None = None
) -> RankResult:
    """Power iteration from the uniform vector, renormalized each step to
    counter rounding drift, stopping at an L1 change ``<= tol``.

    With ``coarse``, ``x`` is corrected before each step until a correction
    fails or a corrected step contracts the residual by less than
    ``1 - coarse.leak``; from then on the steps are plain.
    """
    x = np.full(n, 1.0 / n)
    residual = np.inf
    history: deque = deque(maxlen=RATE_WINDOW + 1)
    corrections = 0
    for it in range(1, max_iter + 1):
        if coarse is not None:
            corrected = coarse.correct(x)
            if corrected is None:
                coarse = None
            else:
                x = corrected
                corrections += 1
        y = step(x)
        y /= y.sum()
        previous, residual = residual, float(np.abs(y - x).sum())
        x = y
        history.append(residual)
        if residual <= tol:
            return RankResult(scores=x, iterations=it, residual=residual, converged=True,
                              corrections=corrections, rate=_rate(history))
        if coarse is not None and residual > (1.0 - coarse.leak) * previous:
            coarse = None
    return RankResult(scores=x, iterations=max_iter, residual=residual, converged=False,
                      corrections=corrections, rate=_rate(history))


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
    report.  Non-convergence is reported, not raised.  Weakly coupled
    blocks get aggregation-disaggregation corrections
    (:func:`block_aggregation` decides); the result satisfies the same
    stop rule either way.
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

    return power_iteration(step, n, params.tol, params.max_iter,
                           block_aggregation(h, f, params))


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

    return power_iteration(step, n, tol, max_iter)


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
