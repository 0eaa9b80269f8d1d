"""The factored surfing step against the explicit-row step it replaced.

``OWN_BLOCK`` dangling rows are applied through block signatures and the
link, ``R`` and ``A`` matrices through transposed views; every property here
demands bit-identical vectors and scores from the ``x @ M`` step built from
the per-node references in ``helpers`` (where aggregation-disaggregation
corrections run, that step drives the same corrected kernel).
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
from blockrank.graph import distinct_rows
from blockrank.ranker import block_aggregation, power_iteration

from helpers import (
    random_cover,
    random_graph,
    random_partition,
    reference_power_iteration,
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
def test_distinct_rows_index_every_row(instance):
    _, d, _ = instance
    distinct, which = distinct_rows(d.B)
    rows = {tuple(row) for row in distinct.toarray().tolist()}
    assert len(rows) == distinct.shape[0]
    assert np.array_equal(distinct[which].toarray(), d.B.toarray())


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
    dangling = np.array(sorted(g.dangling))
    mass = np.bincount(block[dangling], weights=x[dangling], minlength=K)
    want = x @ h.base + mass[block] / size
    np.testing.assert_allclose(hyperlink_apply(h, x), want, rtol=1e-12, atol=0)


COVER_EDGES = "a b\nb c\nc a\nc d\nb e\n"
COVER_BLOCKS = "a X\nb X\nc X\nc Y\nd Y\ne Y\ne X\n"


@pytest.fixture
def cover_files(tmp_path):
    graph, blocks = tmp_path / "cover.edges", tmp_path / "cover.blocks"
    graph.write_text(COVER_EDGES, encoding="utf-8")
    blocks.write_text(COVER_BLOCKS, encoding="utf-8")
    return ["--graph", str(graph), "--blocks", str(blocks)]


@pytest.mark.parametrize("command", ["rank", "compare"])
def test_cli_never_builds_explicit_dangling_rows(cover_files, command, monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("explicit dangling rows built")

    monkeypatch.setattr(HyperlinkOperator, "dangling_rows", property(refuse))
    assert main([command, *cover_files]) == 0
    assert capsys.readouterr().out


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
    assert "reducible" in capsys.readouterr().err
