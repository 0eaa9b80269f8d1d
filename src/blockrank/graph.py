"""Directed graphs in CSR form and the row-stochastic hyperlink operator."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np
from scipy import sparse

from . import tokens
from .errors import CapExceededError, ConfigurationError, DimensionError, ParseError
from .tokens import Interner, Tokens, codes, tokenize_pairs

if TYPE_CHECKING:
    from .decomp import Decomposition

__all__ = [
    "DanglingPolicy",
    "Graph",
    "HyperlinkOperator",
    "build_hyperlink",
    "hyperlink_apply",
    "parse_edge_list",
]

MATERIALIZE_CAP = 2000  # largest order of a dense debug view or oracle input


def require_dense(order: int) -> None:
    """Refuse (:class:`CapExceededError`) to build an ``order x order`` dense
    matrix above ``MATERIALIZE_CAP``."""
    if order > MATERIALIZE_CAP:
        raise CapExceededError(
            f"refusing to materialize {order} x {order} matrix (cap {MATERIALIZE_CAP})")


class DanglingPolicy(Enum):
    """How rows of nodes without outgoing edges are made stochastic."""

    OWN_BLOCK = "block"      # uniform over the union of the node's own blocks
    UNIFORM_ALL = "uniform"  # uniform over all nodes, PageRank style


@dataclass(frozen=True)
class Graph:
    """Immutable directed graph, its links stored by target.

    Node ids are dense integers in ``[0, n)``; ``labels[i]`` is node ``i``'s
    original label.  ``indptr`` and ``indices`` (int32) are the transposed
    adjacency in CSR: row ``v`` lists the sources of the links into ``v``,
    ascending, the pattern ``H^T`` shares.  Duplicate edges are collapsed,
    self-loops kept.
    """

    n: int
    labels: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def out_degree(self) -> np.ndarray:
        """Each node's number of out-links, counted on each access."""
        return np.bincount(self.indices, minlength=self.n)

    @classmethod
    def from_edges(cls, labels: Sequence[str], edges: Iterable[tuple[int, int]]) -> Graph:
        """Build a graph from node labels and (src_id, dst_id) pairs."""
        labels = tuple(map(str, labels))
        n = len(labels)
        if n == 0:
            raise ParseError("empty graph")
        if len(set(labels)) != n:
            raise ParseError("duplicate node labels")

        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if pairs.size and pairs.dtype.kind not in "iu":
            raise DimensionError(f"edge endpoints must be integer node ids, got {pairs.dtype}")
        pairs = pairs.astype(np.int64, copy=False).reshape(-1, 2)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            u, v = pairs[((pairs < 0) | (pairs >= n)).any(axis=1).argmax()]
            raise DimensionError(f"edge ({u}, {v}) outside node range [0, {n})")

        indptr, indices = _pattern(pairs.astype(np.int32, order="C"), n, row=1)
        return cls(n=n, labels=labels, indptr=indptr, indices=indices)

    @property
    def label_ids(self) -> dict[str, int]:
        """The inverse of ``labels``, built on each access for callers that
        look labels up one at a time; the parsers do not use it."""
        return dict(zip(self.labels, range(self.n)))


def _pattern(pairs: np.ndarray, nrows: int, row: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """``indptr`` and ``indices`` (int32) of the canonical 0/1 CSR matrix with
    a one at each pair of the C-contiguous ``m x 2`` int32 array ``pairs``,
    whose column ``row`` holds the row ids.

    ``pairs``, which must own its data, is consumed: each pair becomes its
    packed int64 key ``row << 32 | col`` (a batch at a time), the keys are
    sorted in place and equal neighbours dropped, the row starts found by
    binary search, and the keys' low halves moved to the front as the
    column indices, the buffer shrunk to them.  No other array per pair is
    made, unless there are duplicates to drop.
    """
    key, flat, step = pairs.view(np.int64).reshape(-1), pairs.reshape(-1), tokens.BATCH
    rows, cols = pairs[:, row], pairs[:, 1 - row]
    for lo in range(0, key.size, step):
        key[lo:lo + step] = rows[lo:lo + step].astype(np.int64) << 32 | cols[lo:lo + step]
    key.sort()
    new = np.empty(key.size, dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    m = int(np.count_nonzero(new))
    if m < key.size:
        key[:m] = key[new]
    del new
    indptr = np.searchsorted(key[:m], np.arange(nrows + 1, dtype=np.int64) << 32)
    for lo in range(0, m, step):  # a batch overwrites only keys already moved
        hi = min(lo + step, m)
        flat[lo:hi] = key[lo:hi] & 0xFFFFFFFF
    del key, flat, rows, cols
    pairs.resize(m, refcheck=False)
    return indptr.astype(np.int32 if m < 2**31 else np.int64), pairs


def ones(pairs: np.ndarray, shape: tuple[int, int]) -> sparse.csr_array:
    """The 0/1 CSR matrix with a one at each (row, col) pair of the ``m x
    2`` int32 array ``pairs``, which it consumes (see :func:`_pattern`)."""
    indptr, indices = _pattern(pairs, shape[0])
    return sparse.csr_array((np.ones(indices.size), indices, indptr), shape=shape)


def ones_at(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> sparse.csr_array:
    """The 0/1 CSR matrix with a one at each (row, col) pair, in canonical
    form."""
    pairs = np.empty((np.size(rows), 2), dtype=np.int32)
    pairs[:, 0], pairs[:, 1] = rows, cols
    return ones(pairs, shape)


def parse_edge_list(text: str | bytes, *, labels: Interner | None = None) -> Graph:
    """Parse edge-list text (``str``, or ``bytes`` of UTF-8) into a :class:`Graph`.

    One edge per line, ``src dst`` separated by whitespace; blank lines and
    lines starting with ``#`` are skipped.  Internal ids follow first
    appearance (src before dst within a line).  Duplicate edges collapse.

    Raises :class:`ParseError` on malformed lines (naming the line number)
    and on input without any edge ("empty graph").

    The text's UTF-8 bytes are tokenized and interned one window at a time
    (:func:`tokenize_pairs`, :class:`Interner`), and each token keeps only
    its int32 id, which the CSR build then packs in place into the edge's
    key; ``bytes`` are read without a copy.  Working memory is thus the
    text's bytes, the distinct labels, 4 bytes per token and one window's
    temporaries.

    The node labels are interned into ``labels``, an empty
    :class:`~blockrank.tokens.Interner` when given (a new one otherwise),
    in which node ``i`` then has id ``i``: a caller that passes one can
    hand it on to :func:`~blockrank.decomp.parse_blocks`.
    """
    text = codes(text)
    if labels is None:
        labels = Interner()
    ids = np.empty(len(text) // 2 + 1, dtype=np.int32)  # a token and a space per 2 bytes
    used = 0
    for window, _, error in tokenize_pairs(text, "src dst"):
        if error is not None:
            raise error
        ids[used:used + window.start.size] = labels.add(window)
        used += window.start.size
    if not len(labels):
        raise ParseError("empty graph")
    ids.resize((used // 2, 2), refcheck=False)  # gives the untouched tail back
    indptr, indices = _pattern(ids, len(labels), row=1)
    return Graph(n=len(labels), labels=tuple(labels.strings()), indptr=indptr, indices=indices)


@dataclass(frozen=True)
class HyperlinkOperator:
    """Row-stochastic surfing operator, applied as ``x -> x @ H``.

    ``base_t`` holds the normalized link rows (``1/d_u``; dangling rows are
    zero) transposed, in CSR on the graph's own pattern arrays: their part
    of ``x @ H`` is the row gather ``base_t @ x``.  The dangling rows are
    kept apart, dangling node ``dangling[i]`` sending ``share[i]``: under
    ``UNIFORM_ALL`` ``1/n`` to every node, a rank-one term; under
    ``OWN_BLOCK`` one over the size of the union of its blocks to every node
    ``v`` with ``reach[signature[v], i] == 1``, ``reach`` holding a row per
    distinct signature (a node's set of blocks, in first-appearance order)
    with a one wherever it meets the dangling node's blocks.
    """

    n: int
    policy: DanglingPolicy
    base_t: sparse.csr_array
    dangling: np.ndarray
    share: np.ndarray
    reach: sparse.csr_array | None = None
    signature: np.ndarray | None = None

    def to_dense(self) -> np.ndarray:
        """Materialize the full stochastic matrix (test/debug aid; refuses
        above ``MATERIALIZE_CAP`` nodes)."""
        require_dense(self.n)
        dense = self.base_t.T.toarray()
        if self.policy is DanglingPolicy.OWN_BLOCK:
            dense[self.dangling] = self.reach.toarray()[self.signature].T * self.share[:, None]
        else:
            dense[self.dangling] = self.share[:, None]
        return dense


def build_hyperlink(
    g: Graph,
    policy: DanglingPolicy = DanglingPolicy.OWN_BLOCK,
    decomp: Decomposition | None = None,
) -> HyperlinkOperator:
    """Build the hyperlink operator for ``g`` under the given dangling policy.

    Non-dangling rows carry ``1/d_u`` on the out-neighbors.  A dangling
    row is uniform over the union of the node's own blocks (``OWN_BLOCK``,
    which requires ``decomp``) or uniform over all nodes (``UNIFORM_ALL``).
    """
    if not isinstance(policy, DanglingPolicy):
        raise ConfigurationError(f"policy must be a DanglingPolicy, got {policy!r}")
    if policy is DanglingPolicy.OWN_BLOCK:
        if decomp is None:
            raise ConfigurationError("OWN_BLOCK dangling policy requires a decomposition")
        if decomp.n != g.n:
            raise ConfigurationError(
                f"decomposition covers {decomp.n} nodes but the graph has {g.n}"
            )

    n, degree = g.n, g.out_degree  # H^T's entry (v, u) is 1/d_u, on the graph's pattern
    base_t = sparse.csr_array(((1.0 / np.maximum(degree, 1))[g.indices], g.indices, g.indptr),
                              shape=(n, n))
    dangling = np.flatnonzero(degree == 0)
    if policy is not DanglingPolicy.OWN_BLOCK:
        return HyperlinkOperator(n=n, policy=policy, base_t=base_t, dangling=dangling,
                                 share=np.full(dangling.size, 1.0 / n))

    # v lies in the union of dangling u's blocks when their block sets meet,
    # which depends on v only through its signature, its row of B interned
    # as the little-endian bytes of its int32 block ids (4 per id).  The
    # union's size is then the number of nodes over the signatures that
    # meet u's blocks.
    B = decomp.B
    ids = np.concatenate((B.indices, [0, 0]), dtype="<i4", casting="unsafe").view(np.uint8)
    offset = np.multiply(B.indptr, 4, dtype=np.int64)
    rows = Tokens(ids, offset[:-1], offset[1:])
    signature = Interner().add(rows).astype(np.int64)  # indexes every step
    first = np.flatnonzero(np.diff(np.maximum.accumulate(signature), prepend=-1))
    reach = B[first] @ B[dangling].T
    reach.sum_duplicates()
    reach.data[:] = 1.0
    size = reach.T @ np.bincount(signature)
    return HyperlinkOperator(n=n, policy=policy, base_t=base_t, dangling=dangling,
                             share=1.0 / size, reach=reach, signature=signature)


def hyperlink_apply(h: HyperlinkOperator, x: np.ndarray) -> np.ndarray:
    """Compute ``x @ H`` without materializing the dense matrix.

    ``x`` must have length ``n`` with non-negative entries; the result is
    exactly what the dense row-stochastic matrix would produce.  The
    ``OWN_BLOCK`` dangling term adds, at each node, the same products
    ``share[i] * x[dangling[i]]`` in the same ascending order as a product
    with the explicit rows would.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (h.n,):
        raise DimensionError(f"vector of length {x.shape} against operator of order {h.n}")
    y = h.base_t @ x
    if h.dangling.size:
        if h.policy is DanglingPolicy.OWN_BLOCK:
            y += (h.reach @ (x[h.dangling] * h.share))[h.signature]
        else:
            y += x[h.dangling].sum() / h.n
    return y
