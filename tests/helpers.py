"""Seeded instance generators and independent dense oracles for the tests.

The oracles build dense matrices straight from their definitions with plain
loops; they deliberately share no code with the factored implementations
they are used to check.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

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


def members(d: Decomposition) -> tuple[np.ndarray, ...]:
    """``members(d)[k]``: block k's node ids, sorted ascending."""
    by_block = d.B.T.tocsr()
    return tuple(np.split(by_block.indices, by_block.indptr[1:-1]))


def node_blocks(d: Decomposition) -> tuple[tuple[int, ...], ...]:
    """``node_blocks(d)[u]``: the blocks containing node u, sorted."""
    indices, indptr = d.B.indices.tolist(), d.B.indptr.tolist()
    return tuple(tuple(indices[lo:hi]) for lo, hi in zip(indptr, indptr[1:]))


def block_sizes(d: Decomposition) -> np.ndarray:
    """Number of nodes in each block."""
    return np.bincount(d.B.indices, minlength=d.K)


def label_ids(g: Graph) -> dict[str, int]:
    """Each node label's node id."""
    return {label: u for u, label in enumerate(g.labels)}


def out_neighbors(g: Graph, u: int) -> np.ndarray:
    """Node ids reachable from ``u`` in one step (sorted), read from the
    graph's links by target."""
    return np.repeat(np.arange(g.n), np.diff(g.indptr))[g.indices == u]


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
    blocks = [np.flatnonzero(assign == b) for b in range(k)]
    return Decomposition.from_members([m for m in blocks if m.size], n=n)


def random_cover(
    rng: np.random.Generator, n: int, k_max: int = 4, member_prob: float = 0.5
) -> Decomposition:
    """Covering family where nodes may join several blocks; coverage enforced."""
    k = int(rng.integers(1, k_max + 1))
    picks = rng.random((n, k)) < member_prob
    for u in range(n):
        if not picks[u].any():
            picks[u, int(rng.integers(0, k))] = True
    blocks = [np.flatnonzero(picks[:, b]) for b in range(k)]
    return Decomposition.from_members([m for m in blocks if m.size], n=n)


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
    eps,
    cover: bool = False,
    dangling: float = 0.1,
) -> tuple[Graph, Decomposition]:
    """Weakly coupled instance: k blocks of near-equal size whose nodes send
    three links each, each leaving the block with probability ``eps`` (one
    value, or one per block), and one ring link from each block to the next
    so the block graph is strongly connected.  About a ``dangling`` share of
    the nodes sends no link; with ``cover`` about one node in twenty also
    joins the next block."""
    eps = np.broadcast_to(eps, (k,))
    block = rng.permutation(np.arange(n) % k)
    homes = [np.flatnonzero(block == b) for b in range(k)]
    edges = [(int(homes[b][0]), int(homes[(b + 1) % k][0])) for b in range(k)]
    for u in range(n):
        if rng.random() < dangling:
            continue
        for _ in range(3):
            target = block[u] if rng.random() >= eps[block[u]] else int(rng.integers(k))
            edges.append((u, int(rng.choice(homes[target]))))
    blocks = [list(m) for m in homes]
    if cover:
        for u in np.flatnonzero(rng.random(n) < 0.05).tolist():
            blocks[(block[u] + 1) % k].append(u)
    g = Graph.from_edges([f"n{u}" for u in range(n)], edges)
    return g, Decomposition.from_members(blocks, n=n)


def block_digraph_instance(
    rng: np.random.Generator,
    n: int,
    k: int,
    cover: bool = False,
) -> tuple[Graph, Decomposition]:
    """Sparse instance whose block graph is a random digraph, so ``W`` is
    often reducible: k blocks of near-equal size, three links a node inside
    its block, and a few links along each pair of a random block pattern
    (each ordered pair with one probability drawn per instance).  About half
    the blocks hold a few dangling nodes; with ``cover`` about one node in
    fifty also joins a random block."""
    block = rng.permutation(np.arange(n) % k)
    order = np.argsort(block, kind="stable")  # the nodes, block by block
    size = np.bincount(block, minlength=k)
    start = np.cumsum(size) - size
    homes = [order[a:a + m] for a, m in zip(start, size)]
    pattern = rng.random((k, k)) < rng.uniform(0.05, 0.5)
    np.fill_diagonal(pattern, False)
    dangling = rng.random(n) < np.where(rng.random(k) < 0.5, 0.02, 0.0)[block]
    sources = np.repeat(np.flatnonzero(~dangling), 3)
    pick = (rng.random(sources.size) * size[block[sources]]).astype(np.int64)
    edges = [np.column_stack([sources, order[start[block[sources]] + pick]])]
    for a, b in zip(*np.nonzero(pattern)):
        links = rng.choice(homes[a][~dangling[homes[a]]], 3), rng.choice(homes[b], 3)
        edges.append(np.column_stack(links))
    blocks = [list(m) for m in homes]
    if cover:
        for u in np.flatnonzero(rng.random(n) < 0.02).tolist():
            blocks[int(rng.integers(k))].append(u)
    g = Graph.from_edges([f"n{u}" for u in range(n)], np.concatenate(edges))
    return g, Decomposition.from_members([sorted(set(m)) for m in blocks], n=n)


def singleton_cover_instance(rng: np.random.Generator, n: int) -> tuple[Graph, Decomposition]:
    """Adversarial cover for the corrector's size: node ``v<i>`` links to
    itself, and ``v1 ...`` also link to one random node each; each node's
    singleton block is listed first, then one block of all the nodes.  So
    no node dangles, every node is its own aggregate (``k = n``), ``v0``'s
    is closed under ``H``, and the all-node block meets all ``n`` of them."""
    nodes = np.arange(n)
    edges = np.concatenate([np.column_stack([nodes, nodes]),
                            np.column_stack([nodes[1:], rng.integers(0, n, n - 1)])])
    g = Graph.from_edges([f"v{u}" for u in range(n)], edges)
    return g, Decomposition.from_members([[u] for u in range(n)] + [nodes], n=n)


ADVERSARIAL_KINDS = ("hub", "all-first", "all-last", "nested", "closed")


def adversarial_cover(rng: np.random.Generator, n: int, kind: str,
                      dangling: bool) -> tuple[Graph, Decomposition]:
    """Adversarial cover for the size contract, over ``n >= 4`` nodes:

    - ``"hub"``: node 0 in every block, the others in random blocks of 1 to 8;
    - ``"all-first"`` / ``"all-last"``: one all-node block listed before or
      after the ``n`` singletons;
    - ``"nested"``: blocks nested by size, innermost first, over a random
      node order;
    - ``"closed"``: random blocks of 1 to 8 and node 0 alone in its own,
      linked only to itself.

    Each other node sends two links, each into its lowest block with
    probability 0.98 (0.5 for ``"closed"``) and otherwise to a random node;
    with ``dangling`` about one node in ten (at least one, never node 0)
    sends none."""
    nodes = np.arange(n)

    def random_blocks(ids):
        cuts = np.cumsum(rng.integers(1, 9, ids.size))
        return [list(part) for part in np.split(ids, cuts[cuts < ids.size]) if part.size]

    if kind == "hub":
        blocks = [[0] + part for part in random_blocks(rng.permutation(nodes[1:]))]
    elif kind == "all-first":
        blocks = [list(nodes)] + [[u] for u in range(n)]
    elif kind == "all-last":
        blocks = [[u] for u in range(n)] + [list(nodes)]
    elif kind == "nested":
        order = rng.permutation(nodes)
        sizes = np.unique(np.append(rng.integers(1, n, int(rng.integers(1, 6))), n))
        blocks = [list(order[:m]) for m in sizes]
    elif kind == "closed":
        blocks = [[0]] + random_blocks(rng.permutation(nodes[1:]))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    home = np.empty(n, dtype=np.int64)
    for b in reversed(range(len(blocks))):
        home[blocks[b]] = b
    sends = np.ones(n, dtype=bool)
    if dangling:
        sends[rng.choice(nodes[1:], max(1, n // 10), replace=False)] = False
    eps, edges = 0.02, []
    if kind == "closed":
        eps, sends[0] = 0.5, False
        edges.append((0, 0))
    for u in nodes[sends].tolist():
        for _ in range(2):
            inside = rng.random() >= eps
            edges.append((u, int(rng.choice(blocks[home[u]]) if inside else rng.integers(n))))
    g = Graph.from_edges([f"v{u}" for u in range(n)], edges)
    return g, Decomposition.from_members(blocks, n=n)


def dense_hyperlink(
    g: Graph,
    policy: DanglingPolicy = DanglingPolicy.OWN_BLOCK,
    decomp: Decomposition | None = None,
) -> np.ndarray:
    """Dense stochastic H by direct definition (oracle)."""
    H = np.zeros((g.n, g.n))
    ids, blocks_of = (members(decomp), node_blocks(decomp)) if decomp else ((), ())
    for u in range(g.n):
        nbrs = out_neighbors(g, u)
        if nbrs.size:
            H[u, nbrs] = 1.0 / nbrs.size
        elif policy is DanglingPolicy.UNIFORM_ALL:
            H[u, :] = 1.0 / g.n
        else:
            support = sorted({v for b in blocks_of[u] for v in ids[b].tolist()})
            H[u, support] = 1.0 / len(support)
    return H


def direct_proximity(g: Graph, d: Decomposition) -> np.ndarray:
    """Dense proximity matrix straight from its definition (oracle).

    Row u spreads 1/N_u over each block adjacent to u ({u} plus its
    out-neighbors), then 1/|D_k| inside block k, summing contributions
    when blocks overlap.
    """
    M = np.zeros((g.n, g.n))
    ids = members(d)
    for u, blocks in enumerate(reference_proximal_sets(g, d)):
        n_u = len(blocks)
        for k in blocks:
            size = int(ids[k].size)
            for v in ids[k].tolist():
                M[u, v] += 1.0 / (n_u * size)
    return M


def dense_surfing(g: Graph, d: Decomposition, policy: DanglingPolicy,
                  eta: float, mu: float) -> np.ndarray:
    """Dense teleport-free operator ``eta * H + mu * M`` by definition (oracle)."""
    return eta * dense_hyperlink(g, policy, d) + mu * direct_proximity(g, d)


def dense_aggregates(d: Decomposition) -> np.ndarray:
    """Aggregate of each node: its lowest block, renumbered over the blocks
    that are some node's lowest."""
    lowest = [blocks[0] for blocks in node_blocks(d)]
    return np.unique(lowest, return_inverse=True)[1]


def dense_leak(p: np.ndarray, agg: np.ndarray) -> float:
    """Probability that one step of ``p`` from the uniform vector leaves the
    walker's aggregate."""
    same = agg[:, None] == agg[None, :]
    return 1.0 - p[same].sum() / p.shape[0]


def dense_aggregate_leaks(p: np.ndarray, agg: np.ndarray) -> np.ndarray:
    """Per aggregate: the probability that one step of ``p`` from the uniform
    vector on the aggregate leaves it."""
    leaks = []
    for a in range(int(agg.max()) + 1):
        inside = np.flatnonzero(agg == a)
        leaks.append(1.0 - p[np.ix_(inside, inside)].sum() / inside.size)
    return np.array(leaks)


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


def links_strongly_connected(g: Graph, d: Decomposition, policy: DanglingPolicy) -> bool:
    """Whether ``P = eta H + mu M`` (``eta, mu > 0``) is irreducible, read off
    the links and the blocks alone (oracle beyond the dense cap): strong
    connectivity of a digraph on the n nodes, the K blocks and, under
    ``UNIFORM_ALL`` with some dangling node, one hub.  Its edges are the
    links, node to each block of its proximal set, block to each member, and
    each dangling node to the hub and the hub to every node, so node ``u``
    reaches node ``v`` in it exactly when ``P`` has a path from ``u`` to
    ``v``.  ``M``'s diagonal is positive, so irreducible is primitive."""
    n = g.n
    targets = np.repeat(np.arange(n), np.diff(g.indptr))
    links = sparse.csr_array((np.ones(targets.size), (g.indices, targets)), shape=(n, n))
    member = sparse.csr_array(d.B, dtype=np.float64)  # node to its own blocks
    proximal = member + links @ member
    blocks = [[links, proximal], [member.T, None]]
    dangling = np.flatnonzero(g.out_degree == 0)
    if policy is DanglingPolicy.UNIFORM_ALL and dangling.size:
        to_hub = sparse.csr_array((np.ones(dangling.size), (dangling, 0 * dangling)),
                                  shape=(n, 1))
        blocks = [blocks[0] + [to_hub], blocks[1] + [None], [np.ones((1, n)), None, None]]
    digraph = sparse.bmat(blocks, format="csr")
    count, _ = csgraph.connected_components(digraph, directed=True, connection="strong")
    return count == 1


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
    ids = label_ids(g)
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
        if node_label not in ids:
            raise CoverageError(f"line {line_no}: node label {node_label!r} not in the graph")
        if block_label not in block_ids:
            block_ids[block_label] = len(members)
            members.append(set())
        members[block_ids[block_label]].add(ids[node_label])
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


def reference_signatures(d: Decomposition, dangling: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Per node: its block signature's id (distinct block sets numbered in
    first-appearance order), and whether its blocks meet each dangling
    node's (the explicit pattern of ``reach[signature]``)."""
    blocks_of = node_blocks(d)
    ids = first_appearance(blocks_of)
    meets = [[float(not set(blocks).isdisjoint(blocks_of[u])) for u in dangling.tolist()]
             for blocks in blocks_of]
    return [ids[blocks] for blocks in blocks_of], np.array(meets).reshape(d.n, dangling.size)


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
    blocks_of = node_blocks(d)
    sets = []
    for u in range(g.n):
        blocks = set(blocks_of[u])
        for w in out_neighbors(g, u):
            blocks.update(blocks_of[int(w)])
        sets.append(blocks)
    return sets


def reference_hyperlink(
    g: Graph, policy: DanglingPolicy, d: Decomposition | None
) -> tuple[sparse.csr_array, sparse.csr_array | None]:
    """(base, dangling_rows) built row by row."""
    n = g.n
    rows = [out_neighbors(g, u) for u in range(n)]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([row.size for row in rows], out=indptr[1:])
    data = np.empty(indptr[-1], dtype=np.float64)
    for u in range(n):
        lo, hi = indptr[u], indptr[u + 1]
        if hi > lo:
            data[lo:hi] = 1.0 / (hi - lo)
    base = sparse.csr_array((data, np.concatenate([[], *rows]).astype(np.int64), indptr),
                            shape=(n, n))
    if policy is not DanglingPolicy.OWN_BLOCK:
        return base, None
    ids, blocks_of = members(d), node_blocks(d)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for u in np.flatnonzero(g.out_degree == 0).tolist():
        support = sorted({v for b in blocks_of[u] for v in ids[b].tolist()})
        rows.extend([u] * len(support))
        cols.extend(support)
        vals.extend([1.0 / len(support)] * len(support))
    dangling_rows = sparse.csr_array(
        (np.array(vals), (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))),
        shape=(n, n),
    )
    return base, dangling_rows


def explicit_dangling_rows(h) -> sparse.csr_array | None:
    """The ``OWN_BLOCK`` dangling rows of a hyperlink operator made explicit
    from its factored form (``None`` under ``UNIFORM_ALL``)."""
    if h.policy is not DanglingPolicy.OWN_BLOCK:
        return None
    k = h.dangling.size
    place = sparse.csr_array((h.share, (h.dangling, np.arange(k))), shape=(h.n, k))
    rows = place @ h.reach[h.signature].T
    rows.sum_duplicates()
    return rows


def reference_factors(
    d: Decomposition, g: Graph, form: FactorForm
) -> tuple[sparse.csr_array, sparse.csr_array, np.ndarray]:
    """(R, A, N) built node by node from the proximal sets."""
    n, K = g.n, d.K
    block_ids = members(d)
    sizes = np.array([ids.size for ids in block_ids], dtype=np.int64)
    prox = [sorted(blocks) for blocks in reference_proximal_sets(g, d)]
    N = np.array([len(blocks) for blocks in prox], dtype=np.int32)
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
    a_indices = np.concatenate(block_ids)
    if form is FactorForm.PARTITION:
        a_data = np.ones(a_indices.size, dtype=np.float64)
    else:
        a_data = np.concatenate([np.full(ids.size, 1.0 / ids.size) for ids in block_ids])
    A = sparse.csr_array((a_data, a_indices, a_indptr), shape=(K, n))
    return R, A, N


# The surfing step before the dangling rows were factored by block
# signature: explicit rows from ``reference_hyperlink``, applied as x @ M.

def reference_surfing_apply(g: Graph, policy: DanglingPolicy, d: Decomposition | None):
    """``x -> x @ H`` with ``H`` built row by row and applied as ``x @ M``."""
    base, dangling_rows = reference_hyperlink(g, policy, d)
    dangling = np.flatnonzero(g.out_degree == 0)

    def apply(x: np.ndarray) -> np.ndarray:
        y = x @ base
        if dangling_rows is not None:
            y += x @ dangling_rows
        elif dangling.size:
            y += x[dangling].sum() / g.n
        return y

    return apply


def reference_order_by_score(scores: np.ndarray, labels) -> list[int]:
    """Node ids by descending printed score, ties by ascending label: all ids
    sorted by label, then stably by key (the order ``order_by_score`` gives
    by sorting labels only inside runs of equal keys)."""
    keys, which = np.unique(-np.asarray(scores, dtype=np.float64), return_inverse=True)
    near = np.diff(keys) <= 1e-11 * np.abs(keys[1:])
    tied = np.flatnonzero(np.append(near, False) | np.insert(near, 0, False))
    keys[tied] = [float(format(x, ".12g")) for x in keys[tied].tolist()]
    order = sorted(range(len(labels)), key=labels.__getitem__)
    order.sort(key=keys[which].tolist().__getitem__)  # stable: ties keep label order
    return order


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
