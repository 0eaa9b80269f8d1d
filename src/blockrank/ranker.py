"""Ranking vectors by sparse power iteration on the factored surfing operator.

The step ``x' = eta * (x @ H) + mu * ((x @ R) @ A) + t / n``, with
``t = 1 - eta - mu`` (teleportation is uniform), forms neither the dense
proximity matrix nor the ``OWN_BLOCK`` dangling rows.  It reads ``H^T`` and ``R^T`` row-wise in
CSR, as stored: a row gather beats a column scatter and sums in the same
order.  ``A`` is stored as CSR rows, one per block, and its part is
applied through the CSC view ``A.T``, a column scatter of each block's
mass over its members.  A step costs O(nnz(G) + n + nnz(Q) + nnz(R) +
nnz(A)), ``Q`` being ``HyperlinkOperator.reach``.

Without teleportation the iteration contracts at ``|lambda_2(P)|``, near 1
when a block nearly decouples.  There :func:`rank` rescales ``x`` before
each step so that each aggregate (the nodes with one lowest block) carries
its mass in the stationary vector of the coupled chain between aggregates
(aggregation-disaggregation, Koury, McAllister & Stewart 1984; De Sterck et
al., SIAM J. Sci. Comput. 2008).  The stop rule and the returned vector are
those of the plain step that follows, so ``|x @ P - x|_1 <= tol`` holds as
without corrections.  A PageRank baseline and a comparison follow.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import tokens
from .decomp import ProximityFactors, indicator
from .errors import ConfigurationError, DimensionError, ReducibleModelError
from .graph import DanglingPolicy, HyperlinkOperator, hyperlink_apply
from .spectra import is_irreducible, teleportation_free_check

__all__ = [
    "ComparisonReport",
    "RankParams",
    "RankResult",
    "compare",
    "pagerank",
    "rank",
]

# The one weight tolerance: eta + mu may exceed 1 by this much, and a rest
# 1 - eta - mu within it of 0 is exactly 0, so the run is teleport-free.
WEIGHT_TOL = 1e-9
# Largest leak of the weakest aggregate (the probability that one step from
# the uniform vector on it leaves it) at which corrections run.  On a
# coupling sweep (K = 8, n = 8000) they break even near a leak of 0.22; half
# of that leaves room for blocks that mix more slowly inside.
LEAK = 0.1
# A sparse coarse solve stops once a power step changes it by at most
# COARSE_STOP times the fine residual, or after COARSE_STEPS steps.  On
# hosts-cover (K = 800) 1.0 / 0.3 / 0.1 took 255 / 55 / 50 fine steps.  With
# n = 20000, K = 200 and 1% of links leaving their block, caps of 20 / 100 /
# 200 / 500 / 1000 took 3000+ / 768 / 396 / 172 / 112 fine steps (76,085
# plain), and a cap of 1500 let corrections stall.
COARSE_STOP = 0.3
COARSE_STEPS = 200
RATE_WINDOW = 5  # residual ratios averaged into RankResult.rate


@dataclass(frozen=True)
class RankParams:
    """Weights and iteration controls for :func:`rank`.

    ``teleport`` is derived as ``1 - eta - mu`` (clamped to exactly 0 when
    within :data:`WEIGHT_TOL`), the weight of a uniform jump.
    """

    eta: float = 0.85
    mu: float = 0.15
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
        _check_stop_rule(self.tol, self.max_iter)


def _check_stop_rule(tol: float, max_iter: int) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigurationError(f"tol must be positive and finite, got {tol}")
    if not isinstance(max_iter, (int, np.integer)) or isinstance(max_iter, bool) or max_iter < 1:
        raise ConfigurationError(f"max_iter must be a positive integer, got {max_iter!r}")


@dataclass(frozen=True)
class RankResult:
    """Probability vector over node ids plus convergence diagnostics:
    ``corrections`` run, and ``rate``, the geometric mean of the last few
    residual ratios (NaN after a single step).
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


def fmt(x: float) -> str:
    """``x`` as scores are printed: 12 significant digits."""
    return format(float(x), ".12g")


def order_by_score(scores: np.ndarray, labels, k: int | None = None) -> np.ndarray:
    """The ids (an int array) of the ``k`` nodes (all by default) with the
    highest scores as printed (12 significant digits), by descending score,
    ties by ascending ``labels[id]``: the head of the full order.  Only
    scores within ``1e-11`` (relative) of a neighbour can print alike, so
    only those are keyed by their print, and only those within it of the
    k-th largest score are ordered."""
    scores = np.asarray(scores, dtype=np.float64)
    if k is not None and k < scores.size:
        kth = np.partition(scores, -k)[-k]
        order = np.flatnonzero(scores >= kth - 1e-11 * abs(kth))
        order = order[np.argsort(-scores[order], kind="stable")]
    else:
        order = np.argsort(-scores, kind="stable")
    keys = scores[order]
    near = np.diff(keys) >= -1e-11 * np.abs(keys[1:])  # exact ties too: they print alike
    tied = np.flatnonzero(np.append(near, False) | np.insert(near, 0, False))
    value = keys[tied]
    fresh = np.diff(value, prepend=np.nan) != 0  # each value printed once
    keys[tied] = np.array([float(fmt(x)) for x in value[fresh].tolist()])[np.cumsum(fresh) - 1]
    runs = np.flatnonzero(np.diff(np.concatenate(([False], keys[1:] == keys[:-1], [False]))))
    for lo, hi in zip(runs[0::2].tolist(), (runs[1::2] + 1).tolist()):  # of equal keys
        order[lo:hi] = sorted(order[lo:hi].tolist(), key=labels.__getitem__)
    return order[:k]


@dataclass(frozen=True)
class BlockAggregation:
    """Aggregation-disaggregation corrector for ``P = eta * H + mu * R @ A``.

    Node ``u`` belongs to aggregate ``agg[u]``, the renumbered lowest block
    containing it (``E`` is the ``n x k`` 0/1 matrix).  The coupled chain
    ``C = E^T Diag(x) P E`` stays factored as ``P`` does: ``C = L + Z (mu A
    E)``, with ``L = E^T Diag(x) eta H E`` and ``Z = E^T Diag(x) R`` (for a
    cover ``Z A E`` can hold ``k^2`` entries).  Under ``UNIFORM_ALL`` with
    some dangling node, the dangling rows are one more block of that form, a
    hub: ``Z`` gains a column of each aggregate's dangling mass and ``mu A
    E`` a row ``eta * size / n``.  ``f`` stacks ``L^T`` over ``Z^T`` on a
    fixed pattern whose entries each correction rewrites as ``runs @ x``,
    and ``ae_t`` is ``mu (A E)^T`` (with the hub's column), so ``C^T =
    f[:k] + ae_t @ f[k:]``.  ``leak`` is the weakest aggregate's.  With
    ``exact`` (``K^2 <= n``) ``C`` is formed and solved densely, else
    applied through the factors by power steps.  A correction costs
    O(nnz(H E) + nnz(R) + n) plus ``K^3`` or ``steps * (nnz(L) + nnz(Z) +
    nnz(A E))``.
    """

    agg: np.ndarray
    leak: float
    runs: sparse.csr_array
    f: sparse.csr_array
    ae_t: sparse.csr_array
    exact: bool

    def correct(self, x: np.ndarray, residual: float) -> np.ndarray | None:
        """``x``, each aggregate's mass set in place to the stationary vector
        of ``Diag(1/xi) C``, ``xi = E^T x``; or ``None``, ``x`` untouched,
        when that fails or is not positive.  ``residual`` is the L1 change
        of the last step."""
        xi = np.bincount(self.agg, weights=x)
        if not (xi > 0.0).all():
            return None
        self.coupled(x)
        pi = self._solve(xi) if self.exact else self._power_steps(xi, residual)
        if pi is None:
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            scale = pi / xi
        if not ((pi > 0.0).all() and np.isfinite(scale).all()):
            return None
        x *= scale[self.agg]
        x /= x.sum()
        return x

    def coupled(self, x: np.ndarray) -> sparse.csr_array:
        """``f``, ``L^T`` over ``Z^T``, at ``x``."""
        self.f.data[:] = self.runs @ x
        return self.f

    def _solve(self, xi):
        k = xi.size
        f = self.f.toarray()  # at most 2n + k entries: k <= K, K^2 <= n, and a hub row
        system = self.ae_t @ f[k:] + f[:k]
        # pi (Diag(1/xi) C - I) = 0 with the last equation replaced by sum(pi) = 1
        system = system / xi - np.eye(k)
        system[-1] = 1.0
        rhs = np.zeros(k)
        rhs[-1] = 1.0
        try:
            return np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            return None

    def _power_steps(self, xi, residual):
        """Power steps on the stochastic ``Diag(1/xi) C`` from ``xi`` (the
        last correction's ``pi`` carried through one step) until one moves
        ``pi`` by at most :data:`COARSE_STOP` times ``residual``, or
        :data:`COARSE_STEPS` of them."""
        k = xi.size
        pi, stop = xi, COARSE_STOP * residual
        for _ in range(COARSE_STEPS):
            v = self.f @ (pi / xi)
            new = self.ae_t @ v[k:] + v[:k]
            change = np.abs(new - pi).sum()
            pi = new
            if change <= stop:
                break
        return pi / pi.sum()


def _rows(indptr: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The row (int32) of each entry ``lo .. hi - 1`` of a CSR matrix."""
    first, last = np.searchsorted(indptr, (lo, hi - 1), side="right") - 1
    return np.repeat(np.arange(first, last + 1, dtype=np.int32),
                     np.diff(np.clip(indptr[first:last + 2], lo, hi)))


def _csr(data, rows, cols, shape) -> sparse.csr_array:
    """The CSR matrix of COO triples, with int32 indices."""
    return sparse.csr_array((data, (rows.astype(np.int32), cols.astype(np.int32))), shape=shape)


def _link_leaks(h: HyperlinkOperator, agg: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Each aggregate's leak under ``H`` (times ``eta``, a lower bound on
    the leak under ``P``), reading the links ``tokens.BATCH`` at a time.
    Each dangling node sends its ``share`` to every node of its aggregate."""
    base_t, dangling = h.base_t, h.dangling
    stay = np.zeros(size.size)
    for lo in range(0, base_t.nnz, tokens.BATCH):
        hi = min(lo + tokens.BATCH, base_t.nnz)
        to = agg[_rows(base_t.indptr, lo, hi)]
        np.add.at(stay, to, base_t.data[lo:hi] * (agg[base_t.indices[lo:hi]] == to))
    back = h.share * size[agg[dangling]]
    stay += np.bincount(agg[dangling], weights=back, minlength=size.size)
    return 1.0 - stay / size


def _aggregated_links(h: HyperlinkOperator, agg: np.ndarray, order: np.ndarray,
                      size: np.ndarray, eta: float) -> sparse.csr_array:
    """``eta (H E)^T`` as ``eta E^T H^T``.  ``OWN_BLOCK`` dangling node i
    sends ``share[i] * (nodes of signature s)`` to aggregate ``agg(s)`` for
    each signature s its row reaches; ``UNIFORM_ALL`` ones are left out."""
    n, k = h.n, size.size
    e_t = sparse.csr_array((np.ones(n), order, np.append(0, np.cumsum(size)).astype(np.int32)),
                           shape=(k, n))
    he_t = e_t @ h.base_t
    del e_t
    if h.policy is DanglingPolicy.OWN_BLOCK:
        sig_agg = np.empty(h.reach.shape[0], dtype=np.int32)
        sig_agg[h.signature] = agg
        reach = h.reach.tocoo()
        he_t = he_t + _csr(h.share[reach.col] * np.bincount(h.signature)[reach.row],
                           h.dangling[reach.col], sig_agg[reach.row], (n, k)).T
    he_t.data *= eta
    return he_t


def _runs(m: sparse.csr_array, order: np.ndarray, rank: np.ndarray, agg: np.ndarray, k: int):
    """The entries of ``m`` (CSR over nodes) in runs of one row and one
    aggregate, as the rows of a CSR matrix, nodes ascending, and the runs'
    keys ``row * k + aggregate``.  ``order`` lists the nodes by aggregate,
    then id; ``rank`` inverts it.  The runs take over ``m.data``, sorted in
    place, so ``m`` must be a temporary."""
    m = sparse.csr_array((m.data, rank[m.indices], m.indptr), shape=m.shape)
    m.sort_indices()
    nodes = order[m.indices]
    to = agg[nodes]
    start = np.empty(nodes.size, dtype=bool)
    start[:1] = True
    np.not_equal(to[1:], to[:-1], out=start[1:])
    start[m.indptr[:-1][m.indptr[:-1] < nodes.size]] = True
    start = np.flatnonzero(start)
    key = (np.searchsorted(m.indptr, start, side="right") - 1) * np.int64(k) + to[start]
    return sparse.csr_array((m.data, nodes, np.append(start, nodes.size).astype(np.int32)),
                            shape=(start.size, order.size)), key


def block_aggregation(
    h: HyperlinkOperator, f: ProximityFactors, params: RankParams
) -> BlockAggregation | None:
    """The corrector :func:`rank` uses, or ``None`` where it would not pay.

    It runs only for the teleport-free operator with ``mu > 0``, at least
    two aggregates and some aggregate that leaks at most :data:`LEAK`: a
    nearly closed aggregate makes the slow mode a coarse solve removes.
    The links' share of the leaks, a lower bound, decides most refusals
    first.  The decision takes O(nnz(G) + nnz(R) + nnz(A) + n) time, reads
    ``A`` and the links ``tokens.BATCH`` entries at a time (so a refusal
    takes O(n + batch) scratch memory, O(n + nnz(R)) after the links) and
    keeps nothing.  The corrector holds O(nnz(G) + nnz(Q) + nnz(R) +
    nnz(A) + n) entries with int32 indices, ``C`` being kept factored.  Its
    build stacks ``eta (H E)^T``, ``R^T`` and the ``UNIFORM_ALL`` hub's row
    and puts their entries in runs in one pass, so it takes scratch memory
    for O(n + nnz(R)) entries and one copy of ``H E``.
    """
    n, K = h.n, f.K
    if params.teleport != 0.0 or params.mu == 0.0:
        return None
    R, A = f.R, f.A
    first = np.full(n, K, dtype=np.int32)  # each node's lowest block
    for lo in range(0, A.nnz, tokens.BATCH):
        hi = min(lo + tokens.BATCH, A.nnz)
        np.minimum.at(first, A.indices[lo:hi], _rows(A.indptr, lo, hi))
    used = np.bincount(first, minlength=K) > 0
    k = int(used.sum())
    if k < 2:
        return None
    agg = (np.cumsum(used, dtype=np.int32) - 1)[first]  # aggregates numbered in block order
    eta, mu = params.eta, params.mu
    size = np.bincount(agg)
    leaks = eta * _link_leaks(h, agg, size)
    if leaks.min() > LEAK:
        return None
    # from the uniform vector on aggregate j, block b takes (R^T E)[b, j] / size[j]
    # and gives (A E)[b, j] of it back
    e = sparse.csr_array((np.ones(n), agg, np.arange(n + 1, dtype=np.int32)), shape=(n, k))
    ae = A @ e
    stay = ((R.T @ e) * ae).sum(axis=0)
    leaks += mu * (1.0 - stay / size)
    if leaks.min() > LEAK:
        return None

    # f's rows: L^T's, the link runs (j, i); Z^T's, the proximity runs (b, i);
    # and the hub's, the dangling nodes' runs; runs @ x writes f's entries in
    # that order
    order = e.T.tocsr().indices  # the nodes by aggregate, then id
    del e, first
    rank = np.empty(n, dtype=np.int32)
    rank[order] = np.arange(n, dtype=np.int32)
    ae.data *= mu
    hub = []
    if h.policy is DanglingPolicy.UNIFORM_ALL and h.dangling.size > 0:
        hub = [sparse.csr_array((np.ones(h.dangling.size), h.dangling,
                                 np.array([0, h.dangling.size], dtype=np.int32)), shape=(1, n))]
        ae = sparse.vstack((ae, sparse.csr_array(eta * size[None, :] / n)), format="csr")
    runs, key = _runs(sparse.vstack((_aggregated_links(h, agg, order, size, eta), R.T, *hub),
                                    format="csr"), order, rank, agg, k)
    return BlockAggregation(
        agg=agg,
        leak=float(leaks.min()),
        runs=runs,
        f=_csr(np.zeros(key.size), key // k, key % k, (k + ae.shape[0], k)),
        ae_t=ae.T.tocsr(),
        exact=K * K <= n,
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
    """Power iteration from the uniform vector, renormalized each step,
    stopping at an L1 change ``<= tol``.  With ``coarse``, ``x`` is
    corrected before each step until a correction fails or a corrected
    step contracts the residual by less than ``1 - coarse.leak``.
    ``step`` must return a new vector: ``x``, corrected in place, then
    takes the change, so two vectors live besides the step's temporaries.
    """
    x = np.full(n, 1.0 / n)
    residual = np.inf
    history: deque = deque(maxlen=RATE_WINDOW + 1)
    corrections = 0
    for it in range(1, max_iter + 1):
        if coarse is not None:
            if coarse.correct(x, residual) is None:
                coarse = None
            else:
                corrections += 1
        y = step(x)
        y /= y.sum()
        np.subtract(y, x, out=x)  # the last x, no longer read, holds the change
        previous, residual = residual, float(np.abs(x, out=x).sum())
        x = y
        history.append(residual)
        if residual <= tol:
            return RankResult(scores=x, iterations=it, residual=residual, converged=True,
                              corrections=corrections, rate=_rate(history))
        if coarse is not None and residual > (1.0 - coarse.leak) * previous:
            coarse = None
    return RankResult(scores=x, iterations=max_iter, residual=residual, converged=False,
                      corrections=corrections, rate=_rate(history))


def _surfing_step(h: HyperlinkOperator, eta: float, mu: float, teleport: float,
                  f: ProximityFactors | None = None):
    """The step ``x -> eta * (x @ H) + mu * ((x @ R) @ A) + teleport / n``
    without its zero terms."""
    if mu != 0.0:
        R_t, A_t = f.R.T, f.A.T
    jump = teleport * (1.0 / h.n)  # not teleport / n: times the uniform vector's entry

    def step(x: np.ndarray) -> np.ndarray:
        y = hyperlink_apply(h, x)
        y *= eta
        if mu != 0.0:
            proximity = A_t @ (R_t @ x)
            proximity *= mu
            y += proximity
        if teleport != 0.0:
            y += jump
        return y

    return step


def admissible(f: ProximityFactors, params: RankParams, names, strict: bool = True,
               h: HyperlinkOperator | None = None) -> bool:
    """The one admissibility gate: whether ranking without teleportation is
    well-defined, i.e. ``mu > 0`` and ``W`` is irreducible (the paper's
    theorem; at ``mu = 0`` the operator is ``H`` alone, which ``W`` does not
    decide).  Under ``h``'s ``UNIFORM_ALL`` policy a dangling row links to
    every node, so a reducible ``W`` also passes when every sink component
    of its condensation holds a block of a dangling node (every node
    reaches such a node, which reaches every node), that is, when ``W``
    plus a hub that each such block links to, and that links to every
    block, is irreducible.  Without ``h`` the verdict is the ``OWN_BLOCK``
    policy's.  When ``teleport > 0`` the result is the same verdict under
    ``h``'s policy, ``mu = 0`` included.  Under ``strict`` a teleport-free
    model that fails raises :class:`ReducibleModelError`, naming block
    ``b`` as ``names[b]``; an ``h`` over other nodes than ``f``
    raises :class:`DimensionError`."""
    if h is not None and h.n != f.n:
        raise DimensionError(f"factors are for {f.n} nodes but the operator has {h.n}")
    if params.teleport == 0.0 and params.mu == 0.0:
        if strict:
            raise ReducibleModelError(
                "mu = 0 without teleportation leaves the hyperlink chain alone, "
                "which the indicator matrix does not decide", components=())
        return False
    w = indicator(f)
    report = teleportation_free_check(w)
    verdict = report.irreducible
    if not verdict and h is not None and h.policy is DanglingPolicy.UNIFORM_ALL:
        dangling = np.zeros(f.n)
        dangling[h.dangling] = 1.0
        held = f.A @ dangling > 0
        verdict, _ = is_irreducible(sparse.bmat([[w.matrix, held[:, None]],
                                                 [np.ones((1, f.K)), None]]))
    if strict and params.teleport == 0.0 and not verdict:
        report.require_irreducible(names)
    return verdict


def rank(
    h: HyperlinkOperator,
    f: ProximityFactors,
    params: RankParams,
    strict: bool = True,
) -> RankResult:
    """Ranking vector of the block-aware surfing operator.

    With ``teleport == 0`` and ``strict`` (the default) a model that
    :func:`admissible` refuses raises :class:`ReducibleModelError`;
    ``strict=False`` proceeds and reports how the run converged.
    Non-convergence is reported, not raised.  Weakly coupled blocks get
    corrections (:func:`block_aggregation`) under the same stop rule.
    """
    n = h.n
    if f.n != n:
        raise DimensionError(f"factors are for {f.n} nodes but the operator has {n}")

    if params.teleport == 0.0 and strict:
        admissible(f, params, range(f.K), h=h)
    step = _surfing_step(h, params.eta, params.mu, params.teleport, f)
    return power_iteration(step, n, params.tol, params.max_iter,
                           block_aggregation(h, f, params))


def pagerank(
    h: HyperlinkOperator,
    alpha: float = 0.85,
    tol: float = RankParams.tol,
    max_iter: int = RankParams.max_iter,
) -> RankResult:
    """PageRank baseline: stationary vector of ``alpha * H + (1 - alpha) / n * e e^T``,
    by :func:`rank`'s step with ``mu = 0``.  ``alpha = 1`` is rejected: without
    teleportation convergence is not guaranteed.
    """
    if not 0.0 <= alpha < 1.0:
        raise ConfigurationError(f"alpha must be in [0, 1), got {alpha}")
    _check_stop_rule(tol, max_iter)
    return power_iteration(_surfing_step(h, alpha, 0.0, 1.0 - alpha), h.n, tol, max_iter)


def compare(a: RankResult, b: RankResult, k: int, labels) -> ComparisonReport:
    """L1 distance and top-k overlap of two rankings over the same nodes.

    Each top-k list is the labels of :func:`order_by_score`'s top ``k``,
    the head of the order ``rank`` prints; ``k`` above the node count is
    clipped (and flagged).
    """
    labels = tuple(labels)
    n = len(labels)
    if a.scores.shape != (n,) or b.scores.shape != (n,):
        raise DimensionError("rankings and labels must cover the same node universe")
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise ConfigurationError(f"k must be a positive integer, got {k!r}")
    k_eff = min(k, n)
    top_a, top_b = (tuple(labels[i] for i in order_by_score(r.scores, labels, k).tolist())
                    for r in (a, b))
    return ComparisonReport(l1=float(np.abs(a.scores - b.scores).sum()),
                            overlap=len(set(top_a) & set(top_b)) / k_eff,
                            top_a=top_a, top_b=top_b, k=k_eff, clipped=k > n)
