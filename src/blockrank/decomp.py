"""Block decompositions, sparse proximity factors, and the block indicator matrix.

A decomposition groups the nodes into non-empty blocks that jointly cover
the graph; it may be a partition or an overlapping cover.  From it we build
two sparse factors R (n x K) and A (K x n) whose product is the block
proximity matrix M: row u of M spreads mass evenly over the blocks adjacent
to u (its own plus those of its out-neighbors), then uniformly inside each
block.  Those adjacent blocks, u's proximal set, are the pattern of row u
of R.  The small K x K product W = A @ R records which blocks can reach
which in one proximity step; the admissibility check reads ``W > 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from .errors import ConfigurationError, CoverageError, ParseError
from .graph import Graph, ones, ones_at, require_dense
from .tokens import Interner, codes, tokenize_pairs

__all__ = [
    "Decomposition",
    "FactorForm",
    "IndicatorMatrix",
    "ProximityFactors",
    "build_factors",
    "indicator",
    "materialize_m",
    "parse_blocks",
]


class FactorForm(Enum):
    """The two shapes of a decomposition, and of its factors."""

    PARTITION = "partition"
    COVER = "cover"


@dataclass(frozen=True)
class Decomposition:
    """Indexed family of non-empty node blocks covering all ``n`` nodes.

    ``B`` is the ``n x K`` 0/1 membership matrix in canonical CSR form;
    ``kind`` is derived from it on each access.
    """

    block_labels: tuple[str, ...]
    B: sparse.csr_array

    @classmethod
    def from_members(cls, members: Sequence[Iterable[int]], n: int) -> Decomposition:
        """Build a decomposition from per-block node-id collections; block
        ``k`` is labelled ``B{k}``."""
        blocks = [np.asarray(list(block)) for block in members]
        for k, ids in enumerate(blocks):
            if not ids.size:
                raise CoverageError(f"block {k} is empty")
            if ids.dtype.kind not in "iu":
                raise CoverageError(f"block {k} holds node ids that are not integers")
            if ids.min() < 0 or ids.max() >= n:
                raise CoverageError(f"block {k} contains node ids outside [0, {n})")
        K = len(blocks)
        if K == 0:
            raise CoverageError("decomposition has no blocks")

        block_of = np.repeat(np.arange(K), [ids.size for ids in blocks])
        B = ones_at(np.concatenate(blocks), block_of, (n, K))
        uncovered = np.flatnonzero(np.diff(B.indptr) == 0)
        if uncovered.size:
            raise CoverageError(f"nodes not covered by any block: {uncovered.tolist()}")
        return cls(block_labels=tuple(f"B{k}" for k in range(K)), B=B)

    @property
    def n(self) -> int:
        return self.B.shape[0]

    @property
    def K(self) -> int:
        return self.B.shape[1]

    @property
    def kind(self) -> FactorForm:
        """PARTITION exactly when every node lies in one block."""
        single = (np.diff(self.B.indptr) == 1).all()
        return FactorForm.PARTITION if single else FactorForm.COVER


def parse_blocks(text: str | bytes, g: Graph, *, labels: Interner | None = None
                 ) -> Decomposition:
    """Parse block-membership text ("node_label block_label" per line;
    ``str``, or ``bytes`` of UTF-8).

    A node may appear on several lines, which declares an overlapping
    cover.  Unknown node labels and graph nodes missing from every block
    are hard errors.  Like :func:`~blockrank.graph.parse_edge_list`, it
    reads one window at a time.

    Node tokens are looked up in ``labels``, the table that
    ``parse_edge_list(..., labels=...)`` filled for ``g``, when given (and
    added to it); otherwise in one built from ``g.labels``.
    """
    text = codes(text)
    # The graph's labels are interned first and are distinct, so they hold
    # ids 0..n-1: a node token's id is its node's, or n and above for an
    # unknown label.
    nodes = Interner.of(g.labels) if labels is None else labels
    blocks = Interner()
    pairs = np.empty((len(text) // 4 + 1, 2), dtype=np.int32)  # a line per 4 bytes
    used = 0
    for tokens, line_nos, error in tokenize_pairs(text, "node_label block_label"):
        node = nodes.add(tokens[0::2])
        unknown = np.flatnonzero(node >= g.n)
        if unknown.size:
            i = unknown[0]
            label = tokens[2 * i:2 * i + 1].strings()[0]
            raise CoverageError(f"line {line_nos[i]}: node label {label!r} not in the graph")
        if error is not None:
            raise error
        pairs[used:used + node.size, 0] = node
        pairs[used:used + node.size, 1] = blocks.add(tokens[1::2])
        used += node.size
    if not len(blocks):
        raise ParseError("empty blocks file")

    pairs.resize((used, 2), refcheck=False)
    B = ones(pairs, (g.n, len(blocks)))
    missing = [g.labels[u] for u in np.flatnonzero(np.diff(B.indptr) == 0)]
    if missing:
        raise CoverageError(f"graph nodes missing from every block: {missing}")
    return Decomposition(block_labels=tuple(blocks.strings()), B=B)


@dataclass(frozen=True)
class ProximityFactors:
    """Sparse pair (R: n x K, A: K x n) whose product is the proximity matrix.

    ``R`` is the CSC view of the CSR ``R^T`` the surfing step reads; u has
    ``N_u = np.bincount(R.indices)[u]`` proximal blocks.  Partition form:
    ``[R]_{uJ} = 1/(N_u * |D_J|)`` on them and A has plain 0/1
    block-indicator rows.  Cover form: R rows carry ``1/N_u`` and A rows
    ``1/|D_k|``, both row-stochastic, as is R @ A in either form.
    """

    R: sparse.csc_array
    A: sparse.csr_array

    @property
    def n(self) -> int:
        return self.R.shape[0]

    @property
    def K(self) -> int:
        return self.R.shape[1]


@dataclass(frozen=True)
class IndicatorMatrix:
    """K x K non-negative sparse matrix whose positivity pattern encodes
    one-step block-to-block reachability of the proximity operator."""

    matrix: sparse.csr_array

    @property
    def W(self) -> np.ndarray:
        """Dense copy of ``matrix`` (test/debug aid; refuses above
        ``MATERIALIZE_CAP`` blocks)."""
        require_dense(self.matrix.shape[0])
        return self.matrix.toarray()


def build_factors(
    d: Decomposition,
    g: Graph,
    form: FactorForm | None = None,
) -> ProximityFactors:
    """Build the sparse factors of the proximity matrix for ``d`` over ``g``.

    ``form`` defaults to the decomposition's own kind.  A partition may be
    forced through the cover path (the products agree within 1e-14); an
    overlapping cover cannot take the partition path.
    """
    if d.n != g.n:
        raise ConfigurationError(f"decomposition covers {d.n} nodes but the graph has {g.n}")
    if form is None:
        form = d.kind
    elif not isinstance(form, FactorForm):
        raise ConfigurationError(f"form must be a FactorForm or None, got {form!r}")
    elif form is FactorForm.PARTITION and d.kind is not FactorForm.PARTITION:
        raise ConfigurationError("overlapping cover cannot use the partition factor form")

    n, K = g.n, d.K

    by_block = d.B.T.tocsr()  # B^T: block k's row lists its members
    # Gamma^T = B^T (I + G^T) on booleans; ones_at sorts its rows faster than sort_indices
    g_t = sparse.csr_array((np.ones(g.indices.size, bool), g.indices, g.indptr), shape=(n, n))
    b_t = by_block.astype(bool, copy=False)
    gamma_t = b_t @ g_t + b_t
    gamma_t = ones_at(np.repeat(np.arange(K), np.diff(gamma_t.indptr)), gamma_t.indices, (K, n))
    sizes = np.diff(by_block.indptr)
    r_data = (1.0 / np.bincount(gamma_t.indices, minlength=n))[gamma_t.indices]  # 1/N_u
    if form is FactorForm.PARTITION:
        # R = Gamma @ Diag(sizes)^-1: per-entry (1/N_u) * (1/|D_J|)
        r_data *= np.repeat(1.0 / sizes, np.diff(gamma_t.indptr))
        a_data = by_block.data
    else:
        a_data = np.repeat(1.0 / sizes, sizes)
    R_t = sparse.csr_array((r_data, gamma_t.indices, gamma_t.indptr), shape=(K, n))
    A = sparse.csr_array((a_data, by_block.indices, by_block.indptr), shape=(K, n))

    return ProximityFactors(R=R_t.T, A=A)


def materialize_m(f: ProximityFactors) -> np.ndarray:
    """Dense product ``R @ A`` (test/debug aid; refuses above ``MATERIALIZE_CAP`` nodes)."""
    require_dense(f.n)
    return (f.R @ f.A).toarray()


def indicator(f: ProximityFactors) -> IndicatorMatrix:
    """The K x K indicator matrix ``A @ R`` as ``(R^T A^T)^T``, kept sparse."""
    return IndicatorMatrix(matrix=(f.R.T @ f.A.T).T.tocsr())
