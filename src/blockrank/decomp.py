"""Block decompositions, sparse proximity factors, and the block indicator matrix.

A decomposition groups the nodes into non-empty blocks that jointly cover
the graph; it may be a partition or an overlapping cover.  From it we build
two sparse factors R (n x K) and A (K x n) whose product is the block
proximity matrix M: row u of M spreads mass evenly over the blocks adjacent
to u (its own plus those of its out-neighbors), then uniformly inside each
block.  The small K x K product W = A @ R records which blocks can reach
which in one proximity step.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from .errors import CapExceededError, ConfigurationError, CoverageError, ParseError
from .graph import Graph, intern, ones_at, pattern, tokenize_pairs

__all__ = [
    "DecompKind",
    "Decomposition",
    "FactorForm",
    "IndicatorMatrix",
    "ProximityFactors",
    "build_factors",
    "indicator",
    "materialize_m",
    "parse_blocks",
    "proximal_set",
]

MATERIALIZE_CAP = 2000


class DecompKind(Enum):
    PARTITION = "partition"
    COVER = "cover"


FactorForm = DecompKind  # build_factors' form names the same two shapes


@dataclass(frozen=True)
class Decomposition:
    """Indexed family of non-empty node blocks covering all ``n`` nodes.

    ``B`` is the ``n x K`` 0/1 membership matrix in canonical CSR form;
    ``members``, ``node_blocks`` and ``kind`` are derived from it on each access.
    """

    block_labels: tuple[str, ...]
    B: sparse.csr_array

    @classmethod
    def from_members(
        cls,
        members: Sequence[Iterable[int]],
        n: int,
        block_labels: Sequence[str] | None = None,
    ) -> Decomposition:
        """Build a decomposition from per-block node-id collections."""
        blocks = [np.fromiter(block, dtype=np.int64) for block in members]
        for k, ids in enumerate(blocks):
            if not ids.size:
                raise CoverageError(f"block {k} is empty")
            if ids.min() < 0 or ids.max() >= n:
                raise CoverageError(f"block {k} contains node ids outside [0, {n})")
        K = len(blocks)
        if K == 0:
            raise CoverageError("decomposition has no blocks")

        if block_labels is None:
            block_labels = tuple(f"B{k}" for k in range(K))
        else:
            block_labels = tuple(str(lab) for lab in block_labels)
            if len(block_labels) != K or len(set(block_labels)) != K:
                raise CoverageError("block labels must be unique, one per block")

        block_of = np.repeat(np.arange(K), [ids.size for ids in blocks])
        B = ones_at(np.concatenate(blocks), block_of, (n, K))
        uncovered = np.flatnonzero(np.diff(B.indptr) == 0)
        if uncovered.size:
            raise CoverageError(f"nodes not covered by any block: {uncovered.tolist()}")
        return cls(block_labels=block_labels, B=B)

    @property
    def n(self) -> int:
        return self.B.shape[0]

    @property
    def K(self) -> int:
        return self.B.shape[1]

    @property
    def kind(self) -> DecompKind:
        """PARTITION exactly when every node lies in one block."""
        single = (np.diff(self.B.indptr) == 1).all()
        return DecompKind.PARTITION if single else DecompKind.COVER

    @property
    def members(self) -> tuple[np.ndarray, ...]:
        """``members[k]``: block k's node ids, sorted ascending."""
        by_block = self.B.T.tocsr()
        return tuple(np.split(by_block.indices, by_block.indptr[1:-1]))

    @property
    def node_blocks(self) -> tuple[tuple[int, ...], ...]:
        """``node_blocks[u]``: the blocks containing node u, sorted."""
        indices, indptr = self.B.indices.tolist(), self.B.indptr.tolist()
        return tuple(tuple(indices[lo:hi]) for lo, hi in zip(indptr, indptr[1:]))

    def block_sizes(self) -> np.ndarray:
        return np.bincount(self.B.indices, minlength=self.K)


def parse_blocks(text: str | Iterable[str], g: Graph) -> Decomposition:
    """Parse block-membership text ("node_label block_label" per line).

    A node may appear on several lines, which declares an overlapping
    cover.  Unknown node labels and graph nodes missing from every block
    are hard errors.
    """
    tokens, line_nos, error = tokenize_pairs(text, "node_label block_label")
    node_labels = tokens[0::2]
    nodes = np.fromiter(map(g.label_ids.get, node_labels, repeat(-1)),
                        dtype=np.int64, count=len(node_labels))
    unknown = np.flatnonzero(nodes < 0)
    if unknown.size:
        i = unknown[0]
        raise CoverageError(f"line {line_nos[i]}: node label {node_labels[i]!r} not in the graph")
    if error is not None:
        raise error
    block_ids, blocks = intern(tokens[1::2])
    if not block_ids:
        raise ParseError("empty blocks file")

    B = ones_at(nodes, blocks, (g.n, len(block_ids)))
    missing = [g.labels[u] for u in np.flatnonzero(np.diff(B.indptr) == 0)]
    if missing:
        raise CoverageError(f"graph nodes missing from every block: {missing}")
    return Decomposition(block_labels=tuple(block_ids), B=B)


def proximal_set(d: Decomposition, g: Graph, u: int) -> set[int]:
    """Blocks containing ``u`` or any node ``u`` links to."""
    if not 0 <= u < g.n:
        raise IndexError(f"node id {u} outside [0, {g.n})")
    return set(d.B[np.append(g.out_neighbors(u), u)].indices.tolist())


@dataclass(frozen=True)
class ProximityFactors:
    """Sparse pair (R: n x K, A: K x n) whose product is the proximity matrix.

    Partition form: ``[R]_{uJ} = 1/(N_u * |D_J|)`` on the proximal blocks of
    u and A has plain 0/1 block-indicator rows.  Cover form: R rows carry
    ``1/N_u`` and A rows ``1/|D_k|``, both individually row-stochastic.
    The product R @ A is row-stochastic in either form.
    """

    R: sparse.csr_array
    A: sparse.csr_array
    N: np.ndarray
    form: FactorForm

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
        K = self.matrix.shape[0]
        if K > MATERIALIZE_CAP:
            raise CapExceededError(
                f"refusing to materialize {K} x {K} matrix (cap {MATERIALIZE_CAP})")
        return self.matrix.toarray()

    @property
    def zero_pattern(self) -> np.ndarray:
        """Dense positivity pattern ``W > 0`` (same cap as :attr:`W`)."""
        return self.W > 0


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
    elif form is FactorForm.PARTITION and d.kind is not DecompKind.PARTITION:
        raise ConfigurationError("overlapping cover cannot use the partition factor form")

    n, K = g.n, d.K
    sizes = d.block_sizes()

    # Gamma = pattern((I + G) @ B): row u marks u's proximal blocks.
    G = sparse.csr_array((np.ones(g.indices.size), g.indices, g.indptr), shape=(n, n))
    gamma = pattern(G @ d.B + d.B)
    N = np.diff(gamma.indptr)
    by_block = d.B.T.tocsr()  # B^T: block k's row lists its members
    if form is FactorForm.PARTITION:
        # R = Gamma @ Diag(sizes)^-1: per-entry (1/N_u) * (1/|D_J|)
        r_data = (1.0 / np.repeat(N, N)) * (1.0 / sizes[gamma.indices])
        a_data = by_block.data
    else:
        r_data = 1.0 / np.repeat(N, N)
        a_data = np.repeat(1.0 / sizes, sizes)
    R = sparse.csr_array((r_data, gamma.indices, gamma.indptr), shape=(n, K))
    A = sparse.csr_array((a_data, by_block.indices, by_block.indptr), shape=(K, n))

    return ProximityFactors(R=R, A=A, N=N, form=form)


def materialize_m(f: ProximityFactors, cap: int = MATERIALIZE_CAP) -> np.ndarray:
    """Dense product ``R @ A`` (test/debug aid; refuses above ``cap`` nodes)."""
    if f.n > cap:
        raise CapExceededError(f"refusing to materialize {f.n} x {f.n} matrix (cap {cap})")
    return (f.R @ f.A).toarray()


def indicator(f: ProximityFactors) -> IndicatorMatrix:
    """The K x K indicator matrix ``A @ R``, kept sparse."""
    return IndicatorMatrix(matrix=f.A @ f.R)
