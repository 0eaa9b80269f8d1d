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
from blockrank.ranker import block_aggregation, power_iteration

from helpers import (
    random_cover,
    random_graph,
    random_partition,
    reference_hyperlink,
    reference_power_iteration,
    reference_signatures,
    reference_surfing_apply,
)

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
        assert np.array_equal(h.base_t.T.toarray(), links.toarray())


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
    want = x @ h.base_t.T + mass[block] / size
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
