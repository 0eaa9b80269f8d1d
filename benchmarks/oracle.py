"""Independent correctness oracle for the blockrank CLI's outputs.

Builds the surfing operator ``P = eta * H + mu * R @ A + t * (1/n) 1 1^T``
straight from the generator's edge and block arrays, in factored form, and
checks printed outputs against it.  It imports nothing from ``blockrank``:

* ``H``: uniform over a node's distinct out-links; a dangling node's row is
  uniform over the union of its own blocks.  Dangling nodes with the same
  block set share one row, stored once.
* ``R @ A``: from node ``u``, pick one of its proximal blocks (its own and
  those of its out-neighbours) uniformly, then a member of it uniformly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from generate import Instance

PRINT_SLACK = 1e-11     # 12 significant digits per printed score, summed


class OutputRejected(Exception):
    """The CLI's output disagrees with the oracle."""


def _csr(rows, cols, vals, shape) -> sparse.csr_array:
    m = sparse.coo_array((vals, (rows, cols)), shape=shape).tocsr()
    m.sum_duplicates()
    return m


@dataclass
class Operator:
    """Factored ``P`` for one instance and one weighting."""

    n: int
    links: sparse.csr_array        # n x n, 1/outdeg on each distinct link
    dangling_group: np.ndarray     # group id of each dangling node
    dangling: np.ndarray           # dangling node ids
    group_rows: sparse.csr_array   # groups x n, uniform over each group's block union
    gamma: sparse.csr_array        # n x K, 1/N_u on each proximal block of u
    spread: sparse.csr_array       # K x n, 1/|D_k| on each member of block k
    eta: float
    mu: float

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``x @ P``."""
        mass = np.bincount(self.dangling_group, weights=x[self.dangling],
                           minlength=self.group_rows.shape[0])
        y = self.eta * (x @ self.links + mass @ self.group_rows)
        if self.mu:
            y += self.mu * ((x @ self.gamma) @ self.spread)
        teleport = 1.0 - self.eta - self.mu
        if teleport > 1e-12:
            y += teleport * x.sum() / self.n
        return y


def build_operator(inst: Instance, eta: float, mu: float) -> Operator:
    n, K = inst.n, inst.K
    outdeg = np.bincount(inst.src, minlength=n).astype(np.float64)
    links = _csr(inst.src, inst.dst, 1.0 / outdeg[inst.src], (n, n))

    member = _csr(inst.node, inst.block, np.ones(inst.node.size), (n, K))
    member.data[:] = 1.0
    sizes = np.asarray(member.sum(axis=0)).ravel()

    # Dangling rows: one row per distinct block set, uniform over its union.
    dangling = np.flatnonzero(outdeg == 0)
    signatures = [tuple(member.indices[member.indptr[u]:member.indptr[u + 1]]) for u in dangling]
    group_of: dict[tuple, int] = {}
    group = np.array([group_of.setdefault(s, len(group_of)) for s in signatures], dtype=np.int64)
    rows, cols = [], []
    member_t = member.T.tocsr()
    for sig, g in group_of.items():
        union = np.unique(np.concatenate(
            [member_t.indices[member_t.indptr[k]:member_t.indptr[k + 1]] for k in sig]))
        rows.append(np.full(union.size, g))
        cols.append(union)
    rows = np.concatenate(rows) if rows else np.empty(0, np.int64)
    cols = np.concatenate(cols) if cols else np.empty(0, np.int64)
    union_size = np.bincount(rows, minlength=len(group_of))
    group_rows = _csr(rows, cols, 1.0 / union_size[rows], (len(group_of), n))

    # Proximal blocks: own blocks plus the blocks of every out-neighbour.
    reach = _csr(np.concatenate([np.arange(n), inst.src]),
                 np.concatenate([np.arange(n), inst.dst]),
                 np.ones(n + inst.src.size), (n, n))
    gamma = (reach @ member).tocsr()
    gamma.data[:] = 1.0
    n_prox = np.diff(gamma.indptr)
    gamma.data = np.repeat(1.0 / n_prox, n_prox)
    spread = _csr(inst.block, inst.node, 1.0 / sizes[inst.block], (K, n))
    return Operator(n=n, links=links, dangling_group=group, dangling=dangling,
                    group_rows=group_rows, gamma=gamma, spread=spread, eta=eta, mu=mu)


def instance_sizes(inst: Instance) -> dict:
    """n, m, K and the nnz counts of the structures the paper's step touches."""
    op = build_operator(inst, 1.0, 0.0)
    groups = np.diff(op.group_rows.indptr)
    member = _csr(inst.block, inst.node, np.ones(inst.node.size), (inst.K, inst.n))
    w = (member @ op.gamma).tocsr()
    return {
        "n": inst.n, "m": int(inst.src.size), "K": inst.K,
        "dangling": int(op.dangling.size),
        "nnz_H_links": int(op.links.nnz),
        "nnz_H_dangling_rows": int(groups[op.dangling_group].sum()),
        "nnz_R": int(op.gamma.nnz),
        "nnz_A": int(op.spread.nnz),
        "nnz_W": int(w.nnz),
    }


@dataclass(frozen=True)
class Reference:
    scores: np.ndarray
    rate: float         # observed contraction per step near convergence

    def error_bound(self, tol: float) -> float:
        """L1 distance from the stationary vector that a ``tol`` stop allows."""
        return tol / (1.0 - self.rate) + 1e-12


def stationary(op: Operator, tol: float = 1e-13, max_iter: int = 200_000) -> Reference:
    """Stationary vector by power iteration to ``tol``, with its observed rate."""
    x = np.full(op.n, 1.0 / op.n)
    history = []
    for _ in range(max_iter):
        y = op.apply(x)
        y /= y.sum()
        history.append(float(np.abs(y - x).sum()))
        x = y
        if history[-1] <= tol:
            tail = np.array(history[-min(len(history), 50):])
            rate = float(np.exp(np.mean(np.log(tail[1:] / tail[:-1])))) if tail.size > 1 else 0.0
            return Reference(scores=x, rate=min(max(rate, 0.0), 0.999999))
    raise RuntimeError(f"oracle power iteration did not reach {tol} in {max_iter} steps")


def labels(n: int) -> list[str]:
    return [f"v{i}" for i in range(n)]


def check_verdict(stdout: str, K: int) -> None:
    """``check`` on an admissible-by-construction instance."""
    expected = f"blocks\t{K}\nscc_count\t1\nirreducible\ttrue\nadmissible\ttrue\n"
    if stdout != expected:
        raise OutputRejected(f"check verdict {stdout[:200]!r} differs from the construction")


def check_rank_tsv(stdout: str, op: Operator, tol: float) -> None:
    """Every label once, sorted, positive, summing to 1, residual within ``tol``."""
    rows = [line.split("\t") for line in stdout.splitlines()]
    if any(len(r) != 2 for r in rows):
        raise OutputRejected("rank output has a line that is not 'label<TAB>score'")
    names = [r[0] for r in rows]
    scores = np.array([float(r[1]) for r in rows])
    if len(names) != op.n or sorted(names) != sorted(labels(op.n)):
        raise OutputRejected(f"rank output covers {len(set(names))} labels, not each of {op.n} once")
    keys = list(zip((-scores).tolist(), names))
    if keys != sorted(keys):
        raise OutputRejected("rank output is not sorted by descending score, then label")
    if scores.min() <= 0.0:
        raise OutputRejected("an admissible model printed a non-positive score")
    if abs(scores.sum() - 1.0) > PRINT_SLACK:
        raise OutputRejected(f"scores sum to {scores.sum()!r}")
    x = np.empty(op.n)
    x[[int(s[1:]) for s in names]] = scores
    residual = float(np.abs(op.apply(x) - x).sum())
    if residual > tol + 2 * PRINT_SLACK:
        raise OutputRejected(f"L1 residual {residual:.3e} exceeds tol {tol:.1e}")


def _check_top(top: list, ref: Reference, k: int, slack: float, what: str) -> None:
    if len(top) != k or len(set(top)) != k or any(not (isinstance(s, str) and s[:1] == "v"
                                                       and s[1:].isdigit()) for s in top):
        raise OutputRejected(f"{what}: not {k} distinct node labels")
    ids = np.array([int(s[1:]) for s in top])
    if ids.max() >= ref.scores.size:
        raise OutputRejected(f"{what}: unknown label")
    listed = ref.scores[ids]
    # Swaps are allowed only between entries closer than the tolerance allows.
    if np.any(listed[1:] > listed[:-1] + slack):
        raise OutputRejected(f"{what}: order contradicts the reference beyond {slack:.1e}")
    rest = np.delete(ref.scores, ids)
    if rest.size and rest.max() > listed.min() + slack:
        raise OutputRejected(f"{what}: omits an entry ranked higher by the reference")


def check_compare_json(stdout: str, model: Reference, baseline: Reference,
                       tol: float, k: int = 10) -> None:
    """``compare --format json`` against reference rankings of both chains."""
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise OutputRejected(f"compare output is not JSON: {exc}") from None
    keys = {"l1", "overlap", "k", "clipped", "top_model", "top_baseline",
            "model_converged", "baseline_converged"}
    if not isinstance(out, dict) or set(out) != keys:
        raise OutputRejected(f"compare output has keys {sorted(out) if isinstance(out, dict) else out}")
    if out["k"] != k or out["clipped"] is not False:
        raise OutputRejected("compare output has the wrong k")
    if out["model_converged"] is not True or out["baseline_converged"] is not True:
        raise OutputRejected("compare reports non-convergence")
    e_model, e_base = model.error_bound(tol), baseline.error_bound(tol)
    _check_top(out["top_model"], model, k, e_model, "top_model")
    _check_top(out["top_baseline"], baseline, k, e_base, "top_baseline")
    overlap = len(set(out["top_model"]) & set(out["top_baseline"])) / k
    if abs(out["overlap"] - overlap) > 1e-12:
        raise OutputRejected(f"overlap {out['overlap']} but the lists share {overlap}")
    l1 = float(np.abs(model.scores - baseline.scores).sum())
    if abs(out["l1"] - l1) > e_model + e_base + PRINT_SLACK:
        raise OutputRejected(f"l1 {out['l1']} differs from the reference {l1:.12g}")
