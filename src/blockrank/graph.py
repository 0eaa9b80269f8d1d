"""Directed graphs in CSR form and the row-stochastic hyperlink operator."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np
from scipy import sparse

from .errors import CapExceededError, ConfigurationError, DimensionError, ParseError

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
    """Immutable directed graph in compressed sparse row form.

    Node ids are dense integers in ``[0, n)`` assigned at construction;
    ``labels[i]`` is the original label of node ``i``.  Duplicate edges are
    collapsed, self-loops kept.
    """

    n: int
    labels: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray
    out_degree: np.ndarray

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

        adjacency = ones_at(pairs[:, 0], pairs[:, 1], (n, n))
        out_degree = np.diff(adjacency.indptr)
        return cls(
            n=n,
            labels=labels,
            indptr=adjacency.indptr,
            indices=adjacency.indices,
            out_degree=out_degree,
        )

    @property
    def label_ids(self) -> dict[str, int]:
        """The inverse of ``labels``, built on each access for callers that
        look labels up one at a time; the parsers do not use it."""
        return dict(zip(self.labels, range(self.n)))


def ones_at(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> sparse.csr_array:
    """The 0/1 CSR matrix with a one at each (row, col) pair, in canonical
    form: one sort of the packed keys ``row * ncols + col`` orders the
    pairs, equal neighbours are dropped, and a bincount of the rows gives
    ``indptr``."""
    nrows, ncols = shape
    key = np.sort(np.asarray(rows, dtype=np.int64) * ncols + cols)
    new = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    row, col = np.divmod(key[new], ncols)
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=nrows), out=indptr[1:])
    return sparse.csr_array((np.ones(col.size), col, indptr), shape=shape)


def pattern(m: sparse.csr_array) -> sparse.csr_array:
    """``m`` made canonical (sorted, no duplicates) with every stored entry
    set to 1, in place."""
    m.sum_duplicates()
    m.data[:] = 1.0
    return m


# The characters str.split() splits on and those str.splitlines() ends a
# line at ("\r\n" counts once), as lookup tables over all code points.
WHITESPACE = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
              "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")
LINE_BREAKS = "\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"
_IS_SPACE, _IS_BREAK = np.zeros((2, 0x110000), dtype=bool)
_IS_SPACE[list(map(ord, WHITESPACE))] = True
_IS_BREAK[list(map(ord, LINE_BREAKS))] = True


@dataclass(frozen=True)
class Tokens:
    """Tokens as code offsets: token ``i`` is ``code[start[i]:end[i]]``.

    ``code`` holds the codes, one byte each or four, and then at least 8
    bytes of padding, so that 8 bytes can be read at any token's end.  For
    text the codes are its characters (one byte each when it is ASCII) and
    the padding is 8 spaces; token ``i`` is then ``text[start[i]:end[i]]``.
    """

    code: np.ndarray
    start: np.ndarray
    end: np.ndarray

    def __getitem__(self, which: slice | np.ndarray) -> Tokens:
        return Tokens(self.code, self.start[which], self.end[which])

    def after(self, labels: Sequence[str]) -> Tokens:
        """``labels`` as tokens, then these, over one code array of the wider
        code width (labels may hold any character, whitespace included)."""
        text = " ".join(labels) + " "
        wide = self.code.itemsize == 4 or not text.isascii()
        head = np.frombuffer(text.encode("utf-32-le" if wide else "ascii", "surrogatepass"),
                             dtype=np.uint32 if wide else np.uint8)
        size = np.fromiter(map(len, labels), dtype=np.int64, count=len(labels))
        end = np.cumsum(size + 1) - 1
        return Tokens(np.concatenate((head, self.code), dtype=head.dtype),
                      np.concatenate((end - size, np.add(self.start, head.size, dtype=np.int64))),
                      np.concatenate((end, np.add(self.end, head.size, dtype=np.int64))))

    def strings(self) -> list[str]:
        """The tokens as strings, gathered from the code array with a space
        after each and decoded in one piece, which is faster than slicing."""
        size = self.end - self.start + 1
        stop = np.cumsum(size)
        chars = self.code[np.repeat(self.start - (stop - size), size) + np.arange(size.sum())]
        chars[stop - 1] = ord(" ")
        encoding = "ascii" if self.code.itemsize == 1 else "utf-32-le"
        return chars.tobytes().decode(encoding, "surrogatepass").split(" ")[:-1]


def tokenize_pairs(text: str, expected: str) -> tuple[Tokens, np.ndarray, ParseError | None]:
    """Tokens ``[left, right, left, right, ...]`` of the ``left right`` lines.

    Lines are those of ``str.splitlines``; blank lines and lines whose first
    token starts with ``#`` are skipped.  Also returns the lines' 1-based
    numbers, and the :class:`ParseError` for the first malformed line (or
    ``None``), whose later lines are dropped: the caller raises it unless
    it finds an error on an earlier line.

    The whole text is classified as one array of character codes, so no
    Python string is made per token: tokens are the runs of non-space codes
    and come back as int32 character offsets (int64 past 2 GiB of codes).
    """
    padded = text + " " * 8
    if padded.isascii():
        code = np.frombuffer(padded.encode("ascii"), dtype=np.uint8)
    else:
        code = np.frombuffer(padded.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    del padded
    if code.dtype == np.uint8:  # every ASCII space is <= 32: look up only those
        spaces = np.flatnonzero(code <= 32)
        c = code[spaces]
        space = _IS_SPACE[c]
        if not space.all():
            spaces, c = spaces[space], c[space]
    else:
        spaces = np.flatnonzero(_IS_SPACE[code])
        c = code[spaces]
    # With a virtual space before the text (coded as the padding's), a token
    # lies between two spaces more than one character apart; the padding
    # ends the last one.
    index = np.int32 if code.nbytes < 2**31 else np.int64
    spaces = np.concatenate(([-1], spaces), dtype=index)
    c = np.concatenate((code[-1:], c))
    step = np.diff(spaces)
    gap = np.flatnonzero(step > 1)
    starts, ends = spaces[:-1][gap], spaces[1:][gap]
    starts += 1
    breaks = _IS_BREAK[c]
    breaks[1:] &= (c[1:] != 0x0A) | (c[:-1] != 0x0D) | (step != 1)  # "\r\n" ends one line
    del spaces, c, step
    line = np.cumsum(breaks, dtype=index)[gap]  # 0-based line of each token
    del breaks, gap
    opens = np.ones(line.size, dtype=bool)  # whether a token opens its line
    np.not_equal(line[1:], line[:-1], out=opens[1:])
    first = np.flatnonzero(opens)  # the first token of each line
    del opens
    count = np.diff(first, append=line.size)
    keep = code[starts[first]] != ord("#")
    error = None
    malformed = np.flatnonzero(keep & (count != 2))
    if malformed.size:
        bad = malformed[0]
        line_no = int(line[first[bad]]) + 1
        error = ParseError(f"line {line_no}: expected '{expected}', "
                           f"got {count[bad]} token(s)", line=line_no)
        keep[bad:] = False
    if not keep.all():
        kept = np.repeat(keep, count)
        starts, ends = starts[kept], ends[kept]
    return Tokens(code, starts, ends), line[first[keep]] + 1, error


def _word_tables(itemsize: int) -> tuple[np.ndarray, np.ndarray]:
    """Per number of codes left in a word (0 up to a whole word): the mask
    that keeps them, and the terminator placed right after them."""
    bits = 8 * itemsize
    rests = range(8 // itemsize)
    mask = [(1 << bits * r) - 1 for r in rests] + [2**64 - 1]
    terminator = [1 << bits * r + bits - 1 for r in rests] + [0]
    return np.array(mask, dtype=np.uint64), np.array(terminator, dtype=np.uint64)


# The terminator is a code no character or int32 block id has (0x80 past
# ASCII, 2**31 past Unicode), so a token's words also encode its length:
# "a" != "a\x00".
_WORD_TABLES = {itemsize: _word_tables(itemsize) for itemsize in (1, 4)}
_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def _mix(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Fold word ``w`` into hash ``h`` (in place)."""
    h ^= w
    h *= _MULTIPLIER
    h ^= h >> np.uint64(29)
    return h


def intern(tokens: Tokens) -> tuple[np.ndarray, np.ndarray]:
    """The first token of each distinct code sequence, in first-appearance
    order, and each token's id (its sequence's place in that order).

    Each token is packed straight from the code array into 64-bit words (8
    one-byte or 2 four-byte codes each, read at unaligned offsets) and a
    terminator, so equal words mean equal sequences.  Tokens that fit one
    word are sorted by it, longer ones by a hash of their words; equal
    neighbours after the sort are then compared word by word, and should
    two different tokens share a hash, the words themselves are sorted.
    No string is made (labels come from ``tokens[first].strings()``):
    O(bytes + m log m) for ``m`` tokens.
    """
    start, size = tokens.start, tokens.end - tokens.start
    if not size.size:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64)
    code = tokens.code
    per_word = 8 // code.itemsize
    view = np.ndarray((code.nbytes - 7,), dtype="<u8", buffer=code, strides=(1,))
    mask, terminator = _WORD_TABLES[code.itemsize]
    words = -(-int(size.max()) // per_word)

    def word(j: int, pick) -> np.ndarray:
        """Word ``j`` of the tokens ``pick``, each ``j * per_word`` or more long."""
        rest = np.minimum(size[pick] - j * per_word, per_word, dtype=np.intp)
        w = view[start[pick] * code.itemsize + 8 * j]
        w &= mask[rest]
        w |= terminator[rest]
        return w

    def equal(a: np.ndarray, b: np.ndarray) -> bool:
        """Whether tokens ``a[i]`` and ``b[i]`` are equal for every ``i``."""
        if not np.array_equal(size[a], size[b]):
            return False
        for j in range(words):
            longer = np.flatnonzero(size[a] >= j * per_word)
            if not np.array_equal(word(j, a[longer]), word(j, b[longer])):
                return False
        return True

    key = word(0, slice(None))
    for j in range(1, words):
        longer = np.flatnonzero(size >= j * per_word)
        key[longer] = _mix(key[longer], word(j, longer))
    order = np.argsort(key)
    key = key[order]
    new = np.concatenate(([True], key[1:] != key[:-1]))  # starts a group
    del key
    if words > 1:
        same = np.flatnonzero(~new[1:])
        if not equal(order[same], order[same + 1]):  # a hash collision
            table = np.zeros((words, size.size), dtype=np.uint64)
            for j in range(words):
                longer = np.flatnonzero(size >= j * per_word)
                table[j, longer] = word(j, longer)
            order = np.lexsort(table[::-1])
            table = table[:, order]
            new = np.concatenate(([True], (table[:, 1:] != table[:, :-1]).any(axis=0)))
            del table

    bounds = np.flatnonzero(new)
    del new
    first = np.minimum.reduceat(order, bounds)  # each group's first token
    appear = np.argsort(first)
    rank = np.empty_like(appear)
    rank[appear] = np.arange(appear.size)
    ids = np.empty(size.size, dtype=np.int64)
    ids[order] = np.repeat(rank, np.diff(bounds, append=size.size))
    return first[appear], ids


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text into a :class:`Graph`.

    One edge per line, ``src dst`` separated by whitespace; blank lines and
    lines starting with ``#`` are skipped.  Internal ids follow first
    appearance (src before dst within a line).  Duplicate edges collapse.

    Raises :class:`ParseError` on malformed lines (naming the line number)
    and on input without any edge ("empty graph").
    """
    tokens, _, error = tokenize_pairs(text, "src dst")
    if error is not None:
        raise error
    first, ids = intern(tokens)
    labels = tokens[first].strings()
    del tokens  # free the code array before the CSR build
    if not labels:
        raise ParseError("empty graph")
    return Graph.from_edges(labels, ids.reshape(-1, 2))


@dataclass(frozen=True)
class HyperlinkOperator:
    """Row-stochastic surfing operator, applied as ``x -> x @ H``.

    ``base_t``, the one copy of the links, holds the normalized link rows
    (``1/d_u`` entries; dangling rows are zero) transposed, in CSR: their
    part of ``x @ H`` is the row gather ``base_t @ x``, faster than a column
    scatter and adding in the same order.  The substituted dangling rows
    are kept apart.  Under ``UNIFORM_ALL`` they are the stored dangling set
    plus an implicit uniform rank-one correction.  Under ``OWN_BLOCK`` they are factored by
    block signature, the set of blocks a node lies in: dangling node
    ``dangling[i]`` spreads ``share[i]`` (one over the size of the union of
    its blocks) to every node ``v`` with ``reach[signature[v], i] == 1``,
    where ``reach`` is the 0/1 matrix with one row per distinct signature,
    in first-appearance order, and a one wherever that signature meets the
    dangling node's blocks.
    """

    n: int
    policy: DanglingPolicy
    base_t: sparse.csr_array
    dangling: np.ndarray
    share: np.ndarray | None = None
    reach: sparse.csr_array | None = None
    signature: np.ndarray | None = None

    def to_dense(self) -> np.ndarray:
        """Materialize the full stochastic matrix (test/debug aid; refuses
        above ``MATERIALIZE_CAP`` nodes)."""
        require_dense(self.n)
        dense = self.base_t.T.toarray()
        if self.policy is DanglingPolicy.OWN_BLOCK:
            dense[self.dangling] = self.reach.toarray()[self.signature].T * self.share[:, None]
        elif self.dangling.size:
            dense[self.dangling, :] = 1.0 / self.n
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
    if policy is DanglingPolicy.OWN_BLOCK:
        if decomp is None:
            raise ConfigurationError("OWN_BLOCK dangling policy requires a decomposition")
        if decomp.n != g.n:
            raise ConfigurationError(
                f"decomposition covers {decomp.n} nodes but the graph has {g.n}"
            )

    n = g.n
    data = np.repeat(1.0 / np.maximum(g.out_degree, 1), g.out_degree)
    base_t = sparse.csr_array((data, g.indices, g.indptr), shape=(n, n)).T.tocsr()
    dangling = np.flatnonzero(g.out_degree == 0)
    if policy is not DanglingPolicy.OWN_BLOCK:
        return HyperlinkOperator(n=n, policy=policy, base_t=base_t, dangling=dangling)

    # v lies in the union of dangling u's blocks when their block sets meet,
    # which depends on v only through its signature, its row of B interned
    # as a sequence of block ids.  The union's size is then the number of
    # nodes over the signatures that meet u's blocks.
    B = decomp.B
    rows = Tokens(np.concatenate((B.indices, [0, 0]), dtype=np.uint32, casting="unsafe"),
                  B.indptr[:-1].astype(np.intp), B.indptr[1:].astype(np.intp))
    first, signature = intern(rows)
    reach = pattern(B[first] @ B[dangling].T)
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
