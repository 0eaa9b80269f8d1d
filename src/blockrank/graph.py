"""Directed graphs in CSR form and the row-stochastic hyperlink operator."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, Sequence

import numpy as np
from scipy import sparse

from . import tokens
from .errors import CapExceededError, ConfigurationError, DimensionError, ParseError
from .tokens import Interner, Source, Tokens, _grow, tokenize_pairs

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
# H^T's rows are stored by length within windows of LENGTH_WINDOW rows, on
# graphs of at most LENGTH_ORDER_NODES nodes.  A window is wide enough for
# rows of one length to run together and narrow enough to keep the rows
# whose sources lie close in node order together.  Past 2^18 nodes x (8
# bytes a node) outgrows a core's 2 MiB cache: the product waits on memory
# in any row order, and the gather back into node order only adds to it.
LENGTH_WINDOW = 4096
LENGTH_ORDER_NODES = 1 << 18


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
    ascending: ``H^T``'s pattern, which :func:`build_hyperlink` shares or
    copies in length order.  Duplicate edges are collapsed,
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


def parse_edge_list(text: str | bytes | BinaryIO | Source, *, labels: Interner | None = None
                    ) -> Graph:
    """Parse edge-list text (``str``, or ``bytes`` of UTF-8 or a binary file
    of them, or a :class:`~blockrank.tokens.Source`) into a :class:`Graph`.

    One edge per line, ``src dst`` separated by whitespace; blank lines and
    lines starting with ``#`` are skipped.  Internal ids follow first
    appearance (src before dst within a line).  Duplicate edges collapse.

    Raises :class:`ParseError` on malformed lines (naming the line number)
    and on input without any edge ("empty graph").

    The text's UTF-8 bytes are read, tokenized and interned one window at a
    time (:func:`tokenize_pairs`, :class:`Interner`), and each token keeps
    only its int32 id, which the CSR build then packs in place into the
    edge's key.  Working memory is thus the distinct labels, 4 bytes per
    token (reserved at 2 bytes per byte of a source of known size, grown
    by doubling for a pipe) and one window's buffer and temporaries.

    The node labels are interned into ``labels``, an empty
    :class:`~blockrank.tokens.Interner` when given (a new one otherwise),
    in which node ``i`` then has id ``i``: a caller that passes one can
    hand it on to :func:`~blockrank.decomp.parse_blocks`.
    """
    source = Source.of(text)
    if labels is None:
        labels = Interner()
    # a token and a space per 2 bytes, or grown as read from a pipe
    ids = np.empty(0 if source.size is None else source.size // 2 + 1, dtype=np.int32)
    used = 0
    for window, _, error in tokenize_pairs(source, "src dst", numbered=False):
        if error is not None:
            raise error
        ids = _grow(ids, used + window.start.size)
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
    zero) transposed, in CSR: stored row ``row[v]`` lists the links into
    node ``v``, by ascending source, so their part of ``x @ H`` is the
    gather ``(base_t @ x)[row]``.  Within each window of ``LENGTH_WINDOW``
    rows the rows are stored stably by length, shortest first; ``row`` is
    ``None`` where they are stored in node order (see
    :func:`build_hyperlink`).  Other modules read the links through
    :func:`links_by_node` and :func:`grouped_links`, and ``UNIFORM_ALL``'s
    jump through :func:`jump_block`.  The dangling rows are
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
    row: np.ndarray | None
    dangling: np.ndarray
    share: np.ndarray
    reach: sparse.csr_array | None = None
    signature: np.ndarray | None = None

    def to_dense(self) -> np.ndarray:
        """Materialize the full stochastic matrix (test/debug aid; refuses
        above ``MATERIALIZE_CAP`` nodes)."""
        require_dense(self.n)
        dense = (self.base_t if self.row is None else self.base_t[self.row]).T.toarray()
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

    ``H^T``'s rows are the graph's pattern rows, by ascending source.  On
    at most ``LENGTH_ORDER_NODES`` nodes they are stored by length within
    windows (see :func:`_by_length`) in arrays of ``base_t``'s own, and on
    more in node order on the graph's own arrays: either way the graph
    can be dropped after, and the links are held once.
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

    n, degree = g.n, g.out_degree  # H^T's entry (v, u) is 1/d_u
    indptr, indices, row = (g.indptr, g.indices, None) if n > LENGTH_ORDER_NODES else _by_length(g)
    base_t = sparse.csr_array(((1.0 / np.maximum(degree, 1))[indices], indices, indptr),
                              shape=(n, n))
    dangling = np.flatnonzero(degree == 0)
    if policy is not DanglingPolicy.OWN_BLOCK:
        return HyperlinkOperator(n=n, policy=policy, base_t=base_t, row=row, dangling=dangling,
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
    return HyperlinkOperator(n=n, policy=policy, base_t=base_t, row=row, dangling=dangling,
                             share=1.0 / size, reach=reach, signature=signature)


def _by_length(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The graph's pattern rows, stored stably by length within each window
    of ``LENGTH_WINDOW`` rows, as ``indptr``, ``indices`` and each node's
    stored row.  A window's links keep their span, so they are copied a
    window at a time, with scratch for one window's links."""
    n, length = g.n, np.diff(g.indptr)
    row = np.empty(n, dtype=np.intp)
    indptr, indices = g.indptr.copy(), np.empty_like(g.indices)
    for lo in range(0, n, LENGTH_WINDOW):
        hi = min(lo + LENGTH_WINDOW, n)
        nodes = length[lo:hi].astype(np.int64) << 32  # by length, then id: a stable order
        nodes |= np.arange(lo, hi)
        nodes.sort()
        nodes &= 0xFFFFFFFF  # the nodes of stored rows lo .. hi - 1
        row[nodes] = np.arange(lo, hi)
        links = length[nodes]
        np.cumsum(links, out=indptr[lo + 1:hi + 1])
        indptr[lo + 1:hi + 1] += indptr[lo]
        at = np.arange(indptr[lo], indptr[hi])  # each link's place in g
        at += np.repeat(g.indptr[nodes] - indptr[lo:hi], links)
        indices[indptr[lo]:indptr[hi]] = np.take(g.indices, at)
    return indptr, indices, row


def hyperlink_apply(h: HyperlinkOperator, x: np.ndarray) -> np.ndarray:
    """Compute ``x @ H`` without materializing the dense matrix.

    ``x`` must have length ``n`` with non-negative entries; the result is
    exactly what the dense row-stochastic matrix would produce.  The links'
    part is ``(base_t @ x)[row]``: each stored row sums its links in
    ascending source order, as a node-ordered ``H^T`` would, and the gather
    puts the sums back in node order.  Rows of one length run together, so
    the product's loop over a row's links ends where the branch predictor
    expects.  Rows stored in node order (``row`` ``None``) need no gather.
    The ``OWN_BLOCK`` dangling term adds, at each node, the same products
    ``share[i] * x[dangling[i]]`` in the same ascending order as a product
    with the explicit rows would.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (h.n,):
        raise DimensionError(f"vector of length {x.shape} against operator of order {h.n}")
    y = h.base_t @ x
    if h.row is not None:
        y = y[h.row]
    if h.dangling.size:
        if h.policy is DanglingPolicy.OWN_BLOCK:
            y += (h.reach @ (x[h.dangling] * h.share))[h.signature]
        else:
            y += x[h.dangling].sum() / h.n
    return y


def links_by_node(h: HyperlinkOperator, step: int, label: np.ndarray
                  ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``H^T``'s links in node order (by target, then source), ``step`` at a
    time, whatever order ``base_t`` stores its rows in: for each batch,
    each link's target and source mapped through ``label``, and its
    weight, a copy the caller may overwrite.  Scratch: 8 bytes a node, and
    16 a link of the batch."""
    base_t = h.base_t
    ptr, shift = base_t.indptr, None
    if h.row is not None:  # node v's links: from ptr[v] in node order, ptr[v] + shift[v] as stored
        shift = base_t.indptr[:-1][h.row]
        ptr = np.zeros(h.n + 1, dtype=shift.dtype)
        np.take(base_t.indptr[1:], h.row, out=ptr[1:], mode="clip")  # clip: no buffered copy
        ptr[1:] -= shift
        np.cumsum(ptr, out=ptr)
        shift -= ptr[:-1]
    for lo in range(0, base_t.nnz, step):
        hi = min(lo + step, base_t.nnz)
        first, last = np.searchsorted(ptr, (lo, hi - 1), side="right") - 1
        links = np.diff(np.clip(ptr[first:last + 2], lo, hi))
        if shift is None:
            source, weight = label[base_t.indices[lo:hi]], base_t.data[lo:hi].copy()
        else:
            at = np.repeat(shift[first:last + 1], links)
            at += np.arange(lo, hi, dtype=at.dtype)
            # np.take gathers 2.5 times as fast as [] by int32 indices, but it
            # makes an int64 copy of them: [] on the weights keeps the scratch small
            source, weight = np.take(base_t.indices, at), base_t.data[at]
            del at
            source = label[source]
        yield np.repeat(label[first:last + 1], links), source, weight
        del source, weight  # before the next batch's, if the caller has dropped them


def grouped_links(h: HyperlinkOperator, members: np.ndarray, bounds: np.ndarray
                  ) -> sparse.csr_array:
    """``E^T H^T`` without ``UNIFORM_ALL``'s dangling rows (see
    :func:`jump_block`), ``E^T``'s row ``k`` having ones at the nodes
    ``members[bounds[k]:bounds[k + 1]]`` (``bounds`` int32), groups that
    partition the nodes and hold each signature whole, as the nodes'
    lowest blocks do.  A link entry adds its terms in the order the nodes
    are listed, whatever order ``base_t`` stores its rows in; an
    ``OWN_BLOCK`` dangling node ``i`` sends ``share[i] * (nodes of
    signature s)`` to the group of each signature ``s`` its row reaches."""
    n, k = h.n, bounds.size - 1
    rows = members if h.row is None else h.row[members].astype(np.int32)
    links = sparse.csr_array((np.ones(members.size), rows, bounds), shape=(k, n)) @ h.base_t
    if h.policy is DanglingPolicy.UNIFORM_ALL:
        return links
    group = np.empty(h.reach.shape[0], dtype=np.int32)
    group[h.signature[members]] = np.repeat(np.arange(k, dtype=np.int32), np.diff(bounds))
    reach = h.reach.tocoo()
    return links + sparse.csr_array((h.share[reach.col] * np.bincount(h.signature)[reach.row],
                                     (h.dangling[reach.col].astype(np.int32), group[reach.row])),
                                    shape=(n, k)).T


def jump_block(h: HyperlinkOperator) -> sparse.csr_array | None:
    """``UNIFORM_ALL``'s jump as one more block that the dangling nodes
    enter and that holds every node: its ``1 x n`` row of the dangling
    nodes, or ``None`` under ``OWN_BLOCK`` or when no node dangles."""
    if h.policy is DanglingPolicy.OWN_BLOCK or h.dangling.size == 0:
        return None
    return ones_at(np.zeros_like(h.dangling), h.dangling, (1, h.n))
