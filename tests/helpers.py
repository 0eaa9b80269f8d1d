"""Seeded instance generators and independent dense oracles for the tests.

The oracles build dense matrices straight from their definitions with plain
loops; they deliberately share no code with the factored implementations
they are used to check.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from blockrank import CoverageError, DanglingPolicy, Decomposition, FactorForm, Graph, ParseError

G4_EDGES = "a b\nb a\nb c\nc d\nd a\n"
G4_BLOCKS = "a B1\nb B1\nc B2\nd B2\n"

G4_H = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [0.5, 0.0, 0.5, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0, 0.0],
])
G4_M = np.array([
    [0.50, 0.50, 0.00, 0.00],
    [0.25, 0.25, 0.25, 0.25],
    [0.00, 0.00, 0.50, 0.50],
    [0.25, 0.25, 0.25, 0.25],
])
G4_W = np.array([[0.75, 0.25], [0.25, 0.75]])


def random_graph(rng: np.random.Generator, n: int, edge_prob: float = 0.3) -> Graph:
    """Graph on n nodes; each ordered pair (u, v), u != v, is an edge w.p. edge_prob."""
    labels = [f"n{i}" for i in range(n)]
    edges = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < edge_prob
    ]
    return Graph.from_edges(labels, edges)


def random_partition(rng: np.random.Generator, n: int, k_max: int = 4) -> Decomposition:
    """Partition assigning each node a uniform random block; empty blocks dropped."""
    k = int(rng.integers(1, k_max + 1))
    assign = rng.integers(0, k, size=n)
    members = [np.flatnonzero(assign == b) for b in range(k)]
    return Decomposition.from_members([m for m in members if m.size], n=n)


def random_cover(
    rng: np.random.Generator, n: int, k_max: int = 4, member_prob: float = 0.5
) -> Decomposition:
    """Covering family where nodes may join several blocks; coverage enforced."""
    k = int(rng.integers(1, k_max + 1))
    picks = rng.random((n, k)) < member_prob
    for u in range(n):
        if not picks[u].any():
            picks[u, int(rng.integers(0, k))] = True
    members = [np.flatnonzero(picks[:, b]) for b in range(k)]
    return Decomposition.from_members([m for m in members if m.size], n=n)


def random_instance(
    rng: np.random.Generator,
    n_lo: int = 2,
    n_hi: int = 10,
    k_max: int = 4,
    edge_prob: float = 0.3,
) -> tuple[Graph, Decomposition]:
    n = int(rng.integers(n_lo, n_hi + 1))
    return random_graph(rng, n, edge_prob), random_partition(rng, n, k_max)


def ncd_instance(
    rng: np.random.Generator,
    n: int,
    k: int,
    eps: float,
    cover: bool = False,
    dangling: float = 0.1,
) -> tuple[Graph, Decomposition]:
    """Weakly coupled instance: k blocks of near-equal size whose nodes send
    three links each, each leaving the block with probability ``eps``, and one
    ring link from each block to the next so the block graph is strongly
    connected.  About a ``dangling`` share of the nodes sends no link; with
    ``cover`` about one node in twenty also joins the next block."""
    block = rng.permutation(np.arange(n) % k)
    members = [np.flatnonzero(block == b) for b in range(k)]
    edges = [(int(members[b][0]), int(members[(b + 1) % k][0])) for b in range(k)]
    for u in range(n):
        if rng.random() < dangling:
            continue
        for _ in range(3):
            target = block[u] if rng.random() >= eps else int(rng.integers(k))
            edges.append((u, int(rng.choice(members[target]))))
    blocks = [list(m) for m in members]
    if cover:
        for u in np.flatnonzero(rng.random(n) < 0.05).tolist():
            blocks[(block[u] + 1) % k].append(u)
    g = Graph.from_edges([f"n{u}" for u in range(n)], edges)
    return g, Decomposition.from_members(blocks, n=n)


def dense_hyperlink(
    g: Graph,
    policy: DanglingPolicy = DanglingPolicy.OWN_BLOCK,
    decomp: Decomposition | None = None,
) -> np.ndarray:
    """Dense stochastic H by direct definition (oracle)."""
    H = np.zeros((g.n, g.n))
    members, node_blocks = (decomp.members, decomp.node_blocks) if decomp else ((), ())
    for u in range(g.n):
        nbrs = g.out_neighbors(u)
        if nbrs.size:
            H[u, nbrs] = 1.0 / nbrs.size
        elif policy is DanglingPolicy.UNIFORM_ALL:
            H[u, :] = 1.0 / g.n
        else:
            support = sorted({v for b in node_blocks[u] for v in members[b].tolist()})
            H[u, support] = 1.0 / len(support)
    return H


def direct_proximity(g: Graph, d: Decomposition) -> np.ndarray:
    """Dense proximity matrix straight from its definition (oracle).

    Row u spreads 1/N_u over each block adjacent to u ({u} plus its
    out-neighbors), then 1/|D_k| inside block k, summing contributions
    when blocks overlap.
    """
    M = np.zeros((g.n, g.n))
    members = d.members
    for u, blocks in enumerate(reference_proximal_sets(g, d)):
        n_u = len(blocks)
        for k in blocks:
            size = int(members[k].size)
            for v in members[k].tolist():
                M[u, v] += 1.0 / (n_u * size)
    return M


def dense_surfing(g: Graph, d: Decomposition, policy: DanglingPolicy,
                  eta: float, mu: float) -> np.ndarray:
    """Dense teleport-free operator ``eta * H + mu * M`` by definition (oracle)."""
    return eta * dense_hyperlink(g, policy, d) + mu * direct_proximity(g, d)


def dense_aggregates(d: Decomposition) -> np.ndarray:
    """Aggregate of each node: its lowest block, renumbered over the blocks
    that are some node's lowest."""
    lowest = [blocks[0] for blocks in d.node_blocks]
    return np.unique(lowest, return_inverse=True)[1]


def dense_leak(p: np.ndarray, agg: np.ndarray) -> float:
    """Probability that one step of ``p`` from the uniform vector leaves the
    walker's aggregate."""
    same = agg[:, None] == agg[None, :]
    return 1.0 - p[same].sum() / p.shape[0]


def dense_corrected_iteration(p: np.ndarray, agg: np.ndarray, leak: float,
                              tol: float, max_iter: int) -> list[np.ndarray]:
    """Trajectory of the aggregation-disaggregation corrected power iteration
    on a dense stochastic ``p`` (oracle).

    Before each step the mass of each aggregate is set to the stationary
    vector of ``C = Diag(1/xi) E^T Diag(x) p E`` (found as an eigenvector);
    corrections stop for good when that vector is not positive or a
    corrected step shrinks the residual by less than ``1 - leak``.
    """
    n, k = p.shape[0], int(agg.max()) + 1
    E = np.eye(k)[agg]
    x = np.full(n, 1.0 / n)
    correcting, previous, trajectory = True, np.inf, []
    for _ in range(max_iter):
        if correcting:
            xi = E.T @ x
            coarse = (E.T @ (x[:, None] * p) @ E) / xi[:, None]
            values, vectors = np.linalg.eig(coarse.T)
            pi = np.real(vectors[:, np.argmin(np.abs(values - 1.0))])
            pi /= pi.sum()
            if (pi > 0).all():
                x = x * (pi / xi)[agg]
                x /= x.sum()
            else:
                correcting = False
        y = x @ p
        y /= y.sum()
        residual = np.abs(y - x).sum()
        x = y
        trajectory.append(x)
        if residual <= tol:
            break
        if correcting and residual > (1.0 - leak) * previous:
            correcting = False
        previous = residual
    return trajectory


def reference_strong_components(adjacency: np.ndarray) -> list[list[int]]:
    """Strongly connected components of a dense 0/1 digraph (oracle).

    Nodes i and j share a component when each reaches the other in the
    reflexive transitive closure (Warshall).  Members come sorted and
    components ordered by their smallest member.
    """
    k = adjacency.shape[0]
    reach = np.asarray(adjacency, dtype=bool) | np.eye(k, dtype=bool)
    for via in range(k):
        reach |= np.outer(reach[:, via], reach[via, :])
    mutual = reach & reach.T
    components, seen = [], set()
    for i in range(k):
        if i not in seen:
            component = np.flatnonzero(mutual[i]).tolist()
            seen.update(component)
            components.append(component)
    return components


# Per-node reference builders: the loop constructions the vectorized
# builders replaced, kept so the tests can demand bit-identical output.

def reference_parse_pairs(text: str, expected: str) -> list[tuple[str, str]]:
    """Token pairs of the non-blank, non-comment lines, in order.

    Raises :class:`ParseError` naming the first malformed line.
    """
    pairs = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(
                f"line {line_no}: expected '{expected}', got {len(tokens)} token(s)",
                line=line_no,
            )
        pairs.append((tokens[0], tokens[1]))
    return pairs


def reference_parse_blocks(text: str, g: Graph) -> tuple[list[str], list[list[int]]]:
    """(block labels, sorted members) parsed line by line, with the errors
    of :func:`blockrank.parse_blocks` raised in line order."""
    block_ids: dict[str, int] = {}
    members: list[set[int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(
                f"line {line_no}: expected 'node_label block_label', got {len(tokens)} token(s)",
                line=line_no,
            )
        node_label, block_label = tokens
        if node_label not in g.label_ids:
            raise CoverageError(f"line {line_no}: node label {node_label!r} not in the graph")
        if block_label not in block_ids:
            block_ids[block_label] = len(members)
            members.append(set())
        members[block_ids[block_label]].add(g.label_ids[node_label])
    if not members:
        raise ParseError("empty blocks file")
    missing = [g.labels[u] for u in range(g.n) if not any(u in m for m in members)]
    if missing:
        raise CoverageError(f"graph nodes missing from every block: {missing}")
    return list(block_ids), [sorted(m) for m in members]


def first_appearance(tokens) -> dict[str, int]:
    ids: dict[str, int] = {}
    for token in tokens:
        ids.setdefault(token, len(ids))
    return ids


def reference_adjacency(n: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the deduplicated adjacency, one set per node."""
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adjacency[u].add(v)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(nbrs) for nbrs in adjacency], out=indptr[1:])
    indices = np.array([v for nbrs in adjacency for v in sorted(nbrs)], dtype=np.int64)
    return indptr, indices


def reference_proximal_sets(g: Graph, d: Decomposition) -> list[set[int]]:
    """Per node u: the blocks containing u or one of its out-neighbors."""
    node_blocks = d.node_blocks
    sets = []
    for u in range(g.n):
        blocks = set(node_blocks[u])
        for w in g.out_neighbors(u):
            blocks.update(node_blocks[int(w)])
        sets.append(blocks)
    return sets


def reference_hyperlink(
    g: Graph, policy: DanglingPolicy, d: Decomposition | None
) -> tuple[sparse.csr_array, sparse.csr_array | None]:
    """(base, dangling_rows) built row by row."""
    n = g.n
    data = np.empty(g.indices.size, dtype=np.float64)
    for u in range(n):
        lo, hi = g.indptr[u], g.indptr[u + 1]
        if hi > lo:
            data[lo:hi] = 1.0 / (hi - lo)
    base = sparse.csr_array((data, g.indices.copy(), g.indptr.copy()), shape=(n, n))
    if policy is not DanglingPolicy.OWN_BLOCK:
        return base, None
    members, node_blocks = d.members, d.node_blocks
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for u in sorted(g.dangling):
        support = sorted({v for b in node_blocks[u] for v in members[b].tolist()})
        rows.extend([u] * len(support))
        cols.extend(support)
        vals.extend([1.0 / len(support)] * len(support))
    dangling_rows = sparse.csr_array(
        (np.array(vals), (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))),
        shape=(n, n),
    )
    return base, dangling_rows


def reference_factors(
    d: Decomposition, g: Graph, form: FactorForm
) -> tuple[sparse.csr_array, sparse.csr_array, np.ndarray]:
    """(R, A, N) built node by node from the proximal sets."""
    n, K = g.n, d.K
    members = d.members
    sizes = np.array([ids.size for ids in members], dtype=np.int64)
    prox = [sorted(blocks) for blocks in reference_proximal_sets(g, d)]
    N = np.array([len(blocks) for blocks in prox], dtype=np.int64)
    r_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(N, out=r_indptr[1:])
    r_indices = np.empty(int(r_indptr[-1]), dtype=np.int64)
    r_data = np.empty(int(r_indptr[-1]), dtype=np.float64)
    for u, blocks in enumerate(prox):
        lo, hi = r_indptr[u], r_indptr[u + 1]
        r_indices[lo:hi] = blocks
        if form is FactorForm.PARTITION:
            r_data[lo:hi] = (1.0 / N[u]) * (1.0 / sizes[blocks])
        else:
            r_data[lo:hi] = 1.0 / N[u]
    R = sparse.csr_array((r_data, r_indices, r_indptr), shape=(n, K))
    a_indptr = np.zeros(K + 1, dtype=np.int64)
    np.cumsum(sizes, out=a_indptr[1:])
    a_indices = np.concatenate(members)
    if form is FactorForm.PARTITION:
        a_data = np.ones(a_indices.size, dtype=np.float64)
    else:
        a_data = np.concatenate([np.full(ids.size, 1.0 / ids.size) for ids in members])
    A = sparse.csr_array((a_data, a_indices, a_indptr), shape=(K, n))
    return R, A, N


# The surfing step before the dangling rows were factored by block
# signature: explicit rows from ``reference_hyperlink``, applied as x @ M.

def reference_surfing_apply(g: Graph, policy: DanglingPolicy, d: Decomposition | None):
    """``x -> x @ H`` with ``H`` built row by row and applied as ``x @ M``."""
    base, dangling_rows = reference_hyperlink(g, policy, d)
    dangling = np.array(sorted(g.dangling), dtype=np.int64)

    def apply(x: np.ndarray) -> np.ndarray:
        y = x @ base
        if dangling_rows is not None:
            y += x @ dangling_rows
        elif dangling.size:
            y += x[dangling].sum() / g.n
        return y

    return apply


def reference_power_iteration(step, n: int, tol: float, max_iter: int) -> tuple[np.ndarray, int]:
    """(scores, iterations) of the power iteration ``rank``/``pagerank`` run:
    uniform start, renormalized each step, stop at L1 change <= tol."""
    x = np.full(n, 1.0 / n)
    for it in range(1, max_iter + 1):
        y = step(x)
        y /= y.sum()
        residual = float(np.abs(y - x).sum())
        x = y
        if residual <= tol:
            break
    return x, it
