"""The factored surfing step against the explicit-row step it replaced.

``OWN_BLOCK`` dangling rows are applied through block signatures, and every
operand is read row-wise in CSR (``H^T`` and ``R^T`` stored as CSR, ``A^T``
the transpose of the CSR ``A``), because a row gather is faster than a
column scatter and adds the same products in the same order.  Every
property here demands bit-identical vectors and scores from the ``x @ M``
step built from the per-node references in ``helpers`` (where
aggregation-disaggregation corrections run, that step drives the same
corrected kernel).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import blockrank.graph
from blockrank import (
    DanglingPolicy,
    Decomposition,
    Graph,
    HyperlinkOperator,
    RankParams,
    build_factors,
    build_hyperlink,
    hyperlink_apply,
    pagerank,
    rank,
)
from blockrank.cli import main
from blockrank.ranker import _surfing_step, block_aggregation, power_iteration

from helpers import (
    ncd_instance,
    random_cover,
    random_graph,
    random_partition,
    reference_hyperlink,
    reference_power_iteration,
    reference_signatures,
    reference_surfing_apply,
)
from test_aggregation import large_instance, traced_peak

SETTINGS = settings(max_examples=100, deadline=None)


@st.composite
def instances(draw) -> tuple[Graph, Decomposition, np.random.Generator]:
    """Sparse random graph (many dangling nodes) with a random partition or
    overlapping cover, and a generator for the vectors."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 30))
    g = random_graph(rng, n, draw(st.sampled_from([0.02, 0.1, 0.3])))
    cover = draw(st.booleans())
    d = random_cover(rng, n, 6, 0.3) if cover else random_partition(rng, n, 6)
    return g, d, rng


def non_negative(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.random(n) * 10.0 ** rng.integers(-3, 3)
    x[rng.random(n) < 0.3] = 0.0
    return x


@SETTINGS
@given(instances())
def test_signatures_index_every_row(instance):
    g, d, _ = instance
    h = build_hyperlink(g, DanglingPolicy.OWN_BLOCK, d)
    signature, reach = reference_signatures(d, h.dangling)
    assert h.signature.tolist() == signature
    assert h.reach.shape[0] == len(set(signature))  # one row per distinct signature
    assert np.array_equal(h.reach[h.signature].toarray(), reach)


@SETTINGS
@given(instances())
def test_links_are_stored_once_and_transposed_as_csr(instance):
    g, d, _ = instance
    for policy in DanglingPolicy:
        h = build_hyperlink(g, policy, d)
        stored = [f.name for f in dataclasses.fields(h) if sparse.issparse(getattr(h, f.name))]
        assert stored == (["base_t", "reach"] if policy is DanglingPolicy.OWN_BLOCK else ["base_t"])
        assert h.base_t.format == "csr" and h.base_t.has_sorted_indices
        links, _ = reference_hyperlink(g, policy, d)
        assert np.array_equal(h.base_t[h.row].T.toarray(), links.toarray())


def grouped_and_dense(h: HyperlinkOperator, group: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``grouped_links`` on the groups ``group`` (one a node), and ``E^T
    H^T`` from the dense rows with ``UNIFORM_ALL``'s dangling ones left
    out."""
    members = np.argsort(group, kind="stable").astype(np.int32)
    bounds = np.append(0, np.cumsum(np.bincount(group))).astype(np.int32)
    dense = h.to_dense()
    if h.policy is DanglingPolicy.UNIFORM_ALL:
        dense[h.dangling] = 0.0
    E = np.eye(bounds.size - 1)[group]
    return blockrank.graph.grouped_links(h, members, bounds).toarray(), (dense @ E).T


@SETTINGS
@given(instances(), st.integers(1, 6))
def test_grouped_links_and_the_jump_block_match_the_dense_rows(instance, groups):
    """``grouped_links`` is ``E^T H^T`` with ``OWN_BLOCK``'s dangling rows
    and without ``UNIFORM_ALL``'s, on the nodes' lowest blocks merged at
    random into at most ``groups`` groups; ``jump_block`` is the row of
    the dangling nodes under ``UNIFORM_ALL`` only, ``None`` when none
    dangles."""
    g, d, rng = instance
    group = rng.integers(0, groups, size=d.K)[d.B.indices[d.B.indptr[:-1]]]
    looped = Graph.from_edges(g.labels, [(u, u) for u in range(g.n)])
    for policy in DanglingPolicy:
        h = build_hyperlink(g, policy, d)
        np.testing.assert_allclose(*grouped_and_dense(h, group), rtol=0, atol=1e-15)
        jump = blockrank.graph.jump_block(h)
        if policy is DanglingPolicy.OWN_BLOCK or h.dangling.size == 0:
            assert jump is None
        else:
            assert np.array_equal(jump.toarray()[0], np.isin(np.arange(g.n), h.dangling))
        assert blockrank.graph.jump_block(build_hyperlink(looped, policy, d)) is None


@pytest.mark.parametrize("cover", [False, True], ids=["partition", "cover"])
def test_grouped_links_carry_the_own_block_dangling_rows(cover):
    """With dangling nodes in every block, the ``OWN_BLOCK`` dangling rows
    give each dangling node's column entries that the links alone lack."""
    g, d = ncd_instance(np.random.default_rng(41), 60, 5, 0.05, cover=cover, dangling=0.2)
    for policy in DanglingPolicy:
        h = build_hyperlink(g, policy, d)
        got, want = grouped_and_dense(h, d.B.indices[d.B.indptr[:-1]])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        assert h.dangling.size > 0
        assert (got[:, h.dangling].sum(axis=0) > 0).all() == (policy is DanglingPolicy.OWN_BLOCK)


@SETTINGS
@given(instances(), st.integers(1, 5))
def test_rows_are_stored_by_length_within_windows(instance, window):
    g, d, _ = instance
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(blockrank.graph, "LENGTH_WINDOW", window)
        h = build_hyperlink(g, DanglingPolicy.OWN_BLOCK, d)
    indptr, indices = h.base_t.indptr, h.base_t.indices
    length = np.diff(indptr)
    node = np.empty(g.n, dtype=np.int64)  # each stored row's node
    node[h.row] = np.arange(g.n)
    assert sorted(node.tolist()) == list(range(g.n))
    for lo in range(0, g.n, window):  # a window's own nodes, by length, then id
        rows = list(zip(length[lo:lo + window].tolist(), node[lo:lo + window].tolist()))
        assert rows == sorted(rows)
        assert sorted(node[lo:lo + window].tolist()) == list(range(lo, min(lo + window, g.n)))
    for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
        assert (np.diff(indices[a:b]) > 0).all()  # ascending sources
    links, _ = reference_hyperlink(g, DanglingPolicy.OWN_BLOCK, d)
    assert np.array_equal(h.base_t[h.row].toarray(), links.T.toarray())


@SETTINGS
@given(instances())
def test_apply_is_bit_identical_to_explicit_rows(instance):
    g, d, rng = instance
    for policy in DanglingPolicy:
        h = build_hyperlink(g, policy, d)
        reference = reference_surfing_apply(g, policy, d)
        for _ in range(3):
            x = non_negative(rng, g.n)
            assert np.array_equal(hyperlink_apply(h, x), reference(x))


@SETTINGS
@given(instances(), st.sampled_from([(0.85, 0.15), (1.0, 0.0), (0.6, 0.3)]),
       st.sampled_from([0.5, 0.85]))
def test_scores_are_bit_identical_to_explicit_step(instance, weights, alpha):
    g, d, _ = instance
    f = build_factors(d, g)
    params = RankParams(eta=weights[0], mu=weights[1], tol=1e-12, max_iter=200)
    v = np.full(g.n, 1.0 / g.n)
    for policy in DanglingPolicy:
        h = build_hyperlink(g, policy, d)
        apply = reference_surfing_apply(g, policy, d)

        def step(x):
            y = params.eta * apply(x)
            if params.mu != 0.0:
                y += params.mu * ((x @ f.R) @ f.A)
            if params.teleport != 0.0:
                y += params.teleport * v
            return y

        got = rank(h, f, params, strict=False)
        coarse = block_aggregation(h, f, params)
        if coarse is None:
            scores, iterations = reference_power_iteration(step, g.n, params.tol, params.max_iter)
        else:  # corrections run: the same kernel and corrector, driven by the explicit step
            want = power_iteration(step, g.n, params.tol, params.max_iter, coarse)
            scores, iterations = want.scores, want.iterations
        assert np.array_equal(got.scores, scores)
        assert got.iterations == iterations

        got = pagerank(h, alpha=alpha, tol=params.tol, max_iter=params.max_iter)
        scores, iterations = reference_power_iteration(
            lambda x: alpha * apply(x) + (1.0 - alpha) * v, g.n, params.tol, params.max_iter)
        assert np.array_equal(got.scores, scores)
        assert got.iterations == iterations

        # one step: PageRank is rank's step with mu = 0 and teleport = 1 - alpha
        same = rank(h, f, RankParams(eta=alpha, mu=0.0, tol=params.tol,
                                     max_iter=params.max_iter), strict=False)
        assert np.array_equal(got.scores, same.scores)
        assert got.iterations == same.iterations


def same_csr(a: sparse.csr_array, b: sparse.csr_array) -> bool:
    return all(np.array_equal(getattr(a, part), getattr(b, part))
               for part in ("data", "indices", "indptr"))


@pytest.mark.parametrize("cover", [False, True], ids=["partition", "cover"])
@pytest.mark.parametrize("policy", list(DanglingPolicy))
def test_length_order_gives_the_bits_of_node_order(policy, cover):
    """Rows stored by length give what the same links in node order (as
    on a graph above ``LENGTH_ORDER_NODES``) give, bit for bit: the dense
    view, the product, both rankings and the corrector."""
    g, d = ncd_instance(np.random.default_rng(37), 400, 6, 0.01, cover=cover, dangling=0.05)
    h, f = build_hyperlink(g, policy, d), build_factors(d, g)
    with pytest.MonkeyPatch.context() as patch:  # as on a graph too large for the length order
        patch.setattr(blockrank.graph, "LENGTH_ORDER_NODES", g.n - 1)
        plain = build_hyperlink(g, policy, d)
    assert plain.row is None and np.shares_memory(plain.base_t.indices, g.indices)
    assert h.dangling.size > 0 and not np.array_equal(h.row, np.arange(g.n))
    assert np.array_equal(h.to_dense(), plain.to_dense())
    x = non_negative(np.random.default_rng(3), g.n)
    assert np.array_equal(hyperlink_apply(h, x), hyperlink_apply(plain, x))

    params = RankParams(eta=0.85, mu=0.15, tol=1e-12)
    got, want = rank(h, f, params), rank(plain, f, params)
    assert got.corrections > 0
    assert (got.iterations, got.corrections) == (want.iterations, want.corrections)
    assert np.array_equal(got.scores, want.scores)
    got, want = pagerank(h, tol=1e-12), pagerank(plain, tol=1e-12)
    assert got.iterations == want.iterations and np.array_equal(got.scores, want.scores)

    got, want = block_aggregation(h, f, params), block_aggregation(plain, f, params)
    assert got.leak == want.leak
    assert all(same_csr(getattr(got, m), getattr(want, m)) for m in ("runs", "f", "ae_t"))


@pytest.mark.parametrize("policy", list(DanglingPolicy))
def test_plain_step_keeps_three_vectors(policy):
    """The step ``pagerank`` runs holds ``x``, its result and the product
    in stored row order, which the gather puts back in node order: a traced
    peak of 3.01 vectors of ``n`` floats."""
    g, d = large_instance(20_000, 40, 6, 0.01, 8)
    h = build_hyperlink(g, policy, d)
    step = _surfing_step(h, 0.85, 0.0, 0.15)
    result, peak = traced_peak(lambda: power_iteration(step, h.n, 1e-12, 5))
    assert result.iterations == 5
    assert peak <= 3.5 * 8 * g.n


def stored_sparse_nnz(h: HyperlinkOperator) -> int:
    values = (getattr(h, field.name) for field in dataclasses.fields(h))
    return sum(value.nnz for value in values if sparse.issparse(value))


@pytest.mark.parametrize("n, K", [(20_000, 2), (100_000, 50_000)])
def test_many_dangling_nodes_store_links_and_one_entry_each(n, K):
    # With 2 blocks, explicit dangling rows would hold 0.3 n * n / 2 = 60M entries.
    rng = np.random.default_rng(n + K)
    linking = np.flatnonzero(rng.random(n) >= 0.3)
    src = np.repeat(linking, 3)
    edges = np.column_stack([src, rng.integers(0, n, size=src.size)])
    g = Graph.from_edges([f"n{u}" for u in range(n)], edges)
    size = n // K
    block = np.arange(n) // size
    d = Decomposition.from_members(np.arange(n).reshape(K, size), n=n)

    h = build_hyperlink(g, DanglingPolicy.OWN_BLOCK, d)
    assert stored_sparse_nnz(h) <= g.indices.size + 2 * n

    # Reference: each block's dangling mass spread uniformly over the block.
    x = rng.random(n)
    dangling = np.flatnonzero(g.out_degree == 0)
    mass = np.bincount(block[dangling], weights=x[dangling], minlength=K)
    want = x @ h.base_t[h.row].T + mass[block] / size
    np.testing.assert_allclose(hyperlink_apply(h, x), want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("command", ["rank", "compare"])
def test_gate_refusal_builds_no_operator(tmp_path, command, monkeypatch, capsys):
    graph, blocks = tmp_path / "split.edges", tmp_path / "split.blocks"
    graph.write_text("a b\nb a\nc d\nd c\n", encoding="utf-8")
    blocks.write_text("a B1\nb B1\nc B2\nd B2\n", encoding="utf-8")

    def refuse(*args, **kwargs):
        raise AssertionError("hyperlink operator built")

    monkeypatch.setattr("blockrank.cli.build_hyperlink", refuse)
    assert main([command, "--graph", str(graph), "--blocks", str(blocks),
                 "--eta", "0.85", "--mu", "0.15"]) == 1
    err = capsys.readouterr().err
    assert "reducible" in err
    assert err == "error: indicator matrix is reducible; blocking components: B1 B2\n"
