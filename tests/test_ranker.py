"""Power-iteration ranking, the PageRank baseline, and ranking comparison."""

from __future__ import annotations

import inspect
import itertools
import math
from collections import deque
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockrank import (
    DanglingPolicy,
    Decomposition,
    Graph,
    RankParams,
    RankResult,
    build_factors,
    build_hyperlink,
    compare,
    dense_stationary,
    indicator,
    is_primitive,
    materialize_m,
    pagerank,
    parse_blocks,
    parse_edge_list,
    rank,
    teleportation_free_check,
)
from blockrank.errors import (
    ConfigurationError,
    CoverageError,
    DimensionError,
    ReducibleModelError,
)
from blockrank.graph import MATERIALIZE_CAP
from blockrank.ranker import _rate, admissible, order_by_score, power_iteration

from helpers import (
    block_digraph_instance,
    links_strongly_connected,
    random_cover,
    random_graph,
    random_instance,
    random_partition,
    reference_order_by_score,
)


def _model(g, d, policy=DanglingPolicy.OWN_BLOCK):
    h = build_hyperlink(g, policy, d)
    f = build_factors(d, g)
    return h, f


class TestRankParams:
    def test_teleport_is_exactly_zero_for_complementary_weights(self):
        assert RankParams(eta=0.85, mu=0.15).teleport == 0.0
        assert RankParams(eta=0.5, mu=0.5).teleport == 0.0

    def test_teleport_is_the_remainder(self):
        params = RankParams(eta=0.6, mu=0.2)
        assert params.teleport == pytest.approx(0.2, abs=1e-15)
        assert abs(params.eta + params.mu + params.teleport - 1.0) <= 1e-12

    def test_eta_bounds(self):
        with pytest.raises(ConfigurationError):
            RankParams(eta=0.0, mu=0.5)
        with pytest.raises(ConfigurationError):
            RankParams(eta=1.1, mu=0.0)

    def test_mu_bounds(self):
        with pytest.raises(ConfigurationError):
            RankParams(eta=0.5, mu=-0.1)
        with pytest.raises(ConfigurationError):
            RankParams(eta=0.01, mu=1.0)

    def test_weights_exceeding_one_rejected(self):
        with pytest.raises(ConfigurationError):
            RankParams(eta=0.7, mu=0.5)

    def test_iteration_controls_validated(self):
        with pytest.raises(ConfigurationError):
            RankParams(tol=0.0)
        with pytest.raises(ConfigurationError):
            RankParams(max_iter=0)

    @pytest.mark.parametrize("field", ["eta", "mu", "tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            RankParams(**{field: value})

    def test_weights_and_stop_rule_are_the_only_settings(self):
        # teleportation is uniform: there is no jump vector to set
        assert [f.name for f in fields(RankParams) if f.init] == ["eta", "mu", "tol", "max_iter"]
        with pytest.raises(TypeError):
            RankParams(eta=0.6, mu=0.2, personalization=np.full(4, 0.25))


class TestRank:
    def test_symmetric_two_node_cycle(self):
        g = parse_edge_list("a b\nb a")
        d = Decomposition.from_members([[0, 1]], n=2)
        h, f = _model(g, d)
        result = rank(h, f, RankParams(eta=0.5, mu=0.5))
        assert result.converged
        np.testing.assert_allclose(result.scores, [0.5, 0.5], atol=1e-15)

    def test_reference_matches_dense_oracle(self, g4, g4_decomp):
        h, f = _model(g4, g4_decomp)
        result = rank(h, f, RankParams(eta=0.5, mu=0.5, tol=1e-12, max_iter=5000))
        p = 0.5 * h.to_dense() + 0.5 * materialize_m(f)
        pi = dense_stationary(p, tol=1e-12)
        assert result.converged
        assert result.residual <= 1e-12
        assert np.abs(result.scores - pi).sum() <= 1e-8

    def test_reference_scores_frozen(self, g4, g4_decomp):
        # frozen regression: exact stationary vector (19/60, 3/10, 11/60, 1/5)
        h, f = _model(g4, g4_decomp)
        result = rank(h, f, RankParams(eta=0.5, mu=0.5, tol=1e-13, max_iter=20000))
        np.testing.assert_allclose(
            result.scores, [19 / 60, 3 / 10, 11 / 60, 1 / 5], rtol=0, atol=1e-10
        )

    def test_single_block_model_equals_pagerank(self):
        rng = np.random.default_rng(1311)
        g = random_graph(rng, 30, 0.2)
        d = Decomposition.from_members([range(30)], n=30)
        h, f = _model(g, d)
        for eta in (0.5, 0.85):
            ours = rank(h, f, RankParams(eta=eta, mu=1 - eta, tol=1e-14, max_iter=20000))
            base = pagerank(h, alpha=eta, tol=1e-14, max_iter=20000)
            assert ours.converged and base.converged
            assert np.abs(ours.scores - base.scores).sum() <= 1e-12

    def test_scores_are_a_probability_vector(self, g4, g4_decomp):
        h, f = _model(g4, g4_decomp)
        result = rank(h, f, RankParams(eta=0.6, mu=0.2))
        assert result.scores.min() >= 0
        assert abs(result.scores.sum() - 1.0) <= 1e-12

    def test_strict_mode_refuses_reducible_models(self):
        g = parse_edge_list("a b\nb a\nc d\nd c")
        d = parse_blocks("a B1\nb B1\nc B2\nd B2", g)
        h, f = _model(g, d)
        with pytest.raises(ReducibleModelError) as excinfo:
            rank(h, f, RankParams(eta=0.5, mu=0.5))
        assert excinfo.value.components == ((0,), (1,))
        assert str(excinfo.value).endswith("blocking components: 0 1")

    def test_strict_mode_refuses_mu_zero_without_teleport(self):
        # W is irreducible, but with mu = 0 the operator is H alone: two
        # closed cycles, any mix of which is stationary
        g = parse_edge_list("a b\nb a\nc d\nd c")
        d = parse_blocks("a X\nb X\nc X\nc Y\nd Y", g)
        h, f = _model(g, d)
        assert teleportation_free_check(indicator(f)).irreducible
        params = RankParams(eta=1.0, mu=0.0)
        with pytest.raises(ReducibleModelError, match="mu = 0") as excinfo:
            rank(h, f, params)
        assert excinfo.value.components == ()
        assert not admissible(f, params, range(f.K), strict=False)
        assert rank(h, f, params, strict=False).converged

    def test_uniform_dangling_rows_admit_a_reducible_indicator(self):
        # W is reducible ({Y} is a sink), but b dangles in Y: under
        # --dangling uniform its row reaches every node, so P is primitive;
        # under --dangling block it stays in Y, which then absorbs every walk
        g = parse_edge_list("a b")
        d = parse_blocks("a X\nb Y", g)
        params = RankParams(eta=0.7, mu=0.3)
        h, f = _model(g, d, DanglingPolicy.UNIFORM_ALL)
        assert not teleportation_free_check(indicator(f)).irreducible
        assert admissible(f, params, d.block_labels, h=h)
        result = rank(h, f, params)
        assert result.converged and result.iterations == 14
        assert np.allclose(result.scores, [0.291666666701, 0.708333333299], atol=1e-11)
        h, f = _model(g, d, DanglingPolicy.OWN_BLOCK)
        with pytest.raises(ReducibleModelError, match="blocking components: 0 1$"):
            rank(h, f, params)
        assert not admissible(f, params, d.block_labels, strict=False, h=h)
        assert not admissible(f, params, d.block_labels, strict=False)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from(list(DanglingPolicy)))
    @example(seed=0, cover=False, policy=DanglingPolicy.UNIFORM_ALL)
    def test_gate_matches_dense_primitivity(self, seed, cover, policy):
        """The gate, and the links-and-blocks oracle of
        ``helpers.links_strongly_connected``, agree with the dense Wielandt
        test on the teleport-free operator 0.7 H + 0.3 R A under either
        dangling policy, on partitions and covers of up to 12 nodes with
        some dangling nodes."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        g = random_graph(rng, n, float(rng.uniform(0.05, 0.35)))
        d = random_cover(rng, n) if cover else random_partition(rng, n)
        h, f = _model(g, d, policy)
        primitive = is_primitive(0.7 * h.to_dense() + 0.3 * materialize_m(f))
        params = RankParams(eta=0.7, mu=0.3)
        assert admissible(f, params, range(f.K), strict=False, h=h) == primitive
        assert links_strongly_connected(g, d, policy) == primitive

    def test_override_proceeds_and_reports_honestly(self):
        g = parse_edge_list("a b\nb a\nc d\nd c")
        d = parse_blocks("a B1\nb B1\nc B2\nd B2", g)
        h, f = _model(g, d)
        result = rank(h, f, RankParams(eta=0.5, mu=0.5), strict=False)
        assert isinstance(result, RankResult)
        assert abs(result.scores.sum() - 1.0) <= 1e-12

    def test_teleportation_skips_the_check(self):
        g = parse_edge_list("a b\nb a\nc d\nd c")
        d = parse_blocks("a B1\nb B1\nc B2\nd B2", g)
        h, f = _model(g, d)
        result = rank(h, f, RankParams(eta=0.5, mu=0.3))
        assert result.converged
        assert result.scores.min() > 0

    def test_non_convergence_is_reported_not_raised(self):
        # periodic pure-link chain: the iteration oscillates
        g = Graph.from_edges(["a", "b", "c"], [(0, 1), (1, 0), (1, 2), (2, 1)])
        d = Decomposition.from_members([[0, 1, 2]], n=3)
        h, f = _model(g, d)
        result = rank(h, f, RankParams(eta=1.0, mu=0.0, tol=1e-9, max_iter=40), strict=False)
        assert not result.converged
        assert result.iterations == 40
        assert result.residual > 1e-9

    def test_dimension_mismatch_rejected(self, g4, g4_decomp):
        _, f = _model(g4, g4_decomp)
        g3 = parse_edge_list("a b\nb c\nc a")
        d3 = Decomposition.from_members([[0, 1, 2]], n=3)
        h3 = build_hyperlink(g3, DanglingPolicy.OWN_BLOCK, d3)
        with pytest.raises(DimensionError):
            rank(h3, f, RankParams())

    @pytest.mark.parametrize("edges", ["a b\nb a", "a b"])
    def test_gate_rejects_an_operator_over_other_nodes(self, edges):
        """A 6-node UNIFORM_ALL operator against 2-node factors is refused
        whether their W is irreducible or reducible, before the gate reads
        the operator's dangling nodes."""
        g = parse_edge_list(edges)
        _, f = _model(g, parse_blocks("a X\nb Y", g))
        g6 = parse_edge_list("a b\nb c\nc d\nd a\ne f")
        h6 = build_hyperlink(g6, DanglingPolicy.UNIFORM_ALL)
        with pytest.raises(DimensionError, match="^factors are for 2 nodes but the operator has 6$"):
            admissible(f, RankParams(eta=0.7, mu=0.3), range(f.K), strict=False, h=h6)


class TestGateOracle:
    """The gate against strong connectivity of the links-and-blocks digraph
    (``helpers.links_strongly_connected``), which needs no dense matrix;
    ``TestRank.test_gate_matches_dense_primitivity`` checks that oracle."""

    PARAMS = RankParams(eta=0.7, mu=0.3)

    def test_gate_matches_the_oracle_beyond_the_dense_cap(self):
        """60 instances of 2,001 to 5,000 nodes and 2 to 8 blocks, partitions
        and covers, under both policies (about 1 s): a quarter or more have
        a reducible W, and some of those pass under UNIFORM_ALL."""
        reducible = admitted = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(MATERIALIZE_CAP + 1, 5001))
            g, d = block_digraph_instance(rng, n, int(rng.integers(2, 9)), cover=seed % 2 == 1)
            f = build_factors(d, g)
            w_irreducible = teleportation_free_check(indicator(f)).irreducible
            reducible += not w_irreducible
            for policy in DanglingPolicy:
                h = build_hyperlink(g, policy, d)
                verdict = admissible(f, self.PARAMS, range(f.K), strict=False, h=h)
                assert verdict == links_strongly_connected(g, d, policy), (seed, policy)
                admitted += verdict and not w_irreducible
        assert reducible >= 15 and admitted >= 3

    def test_uniform_gate_on_every_small_block_digraph(self):
        """Every off-diagonal block pattern for K <= 3 under every set of
        blocks holding a dangling node (530 cases): one node per block,
        linked along the pattern or to itself, and one more, dangling, in
        each held block."""
        cases = admitted = 0
        for k in range(1, 4):
            pairs = [(a, b) for a in range(k) for b in range(k) if a != b]
            for links in itertools.product((False, True), repeat=len(pairs)):
                edges = [pair for pair, on in zip(pairs, links) if on]
                edges += [(b, b) for b in range(k) if all(a != b for a, _ in edges)]
                for held in itertools.product((False, True), repeat=k):
                    extra = [b for b in range(k) if held[b]]
                    g = Graph.from_edges([f"v{u}" for u in range(k + len(extra))], edges)
                    d = Decomposition.from_members(
                        [[b] + [k + i for i, e in enumerate(extra) if e == b] for b in range(k)],
                        n=g.n)
                    h, f = _model(g, d, DanglingPolicy.UNIFORM_ALL)
                    verdict = admissible(f, self.PARAMS, range(k), strict=False, h=h)
                    assert verdict == is_primitive(
                        0.7 * h.to_dense() + 0.3 * materialize_m(f)), (edges, held)
                    cases += 1
                    admitted += verdict
        assert (cases, admitted) == (530, 333)


class TestPagerank:
    def test_alpha_zero_returns_uniform(self, g4, g4_decomp):
        h, _ = _model(g4, g4_decomp)
        result = pagerank(h, alpha=0.0)
        assert result.converged
        np.testing.assert_array_equal(result.scores, np.full(h.n, 1.0 / h.n))

    def test_symmetric_cycle(self):
        g = parse_edge_list("a b\nb a")
        h = build_hyperlink(g, DanglingPolicy.UNIFORM_ALL)
        result = pagerank(h, alpha=0.85)
        np.testing.assert_allclose(result.scores, [0.5, 0.5], atol=1e-12)

    def test_reference_matches_dense_oracle(self, g4, g4_decomp):
        h, _ = _model(g4, g4_decomp)
        result = pagerank(h, alpha=0.85, tol=1e-12, max_iter=10000)
        dense_g = 0.85 * h.to_dense() + 0.15 * np.full((4, 4), 0.25)
        pi = dense_stationary(dense_g, tol=1e-12)
        assert np.abs(result.scores - pi).sum() <= 1e-8

    def test_alpha_one_rejected(self, g4, g4_decomp):
        h, _ = _model(g4, g4_decomp)
        with pytest.raises(ConfigurationError):
            pagerank(h, alpha=1.0)

    @pytest.mark.parametrize("field", ["alpha", "tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_values_rejected(self, g4, g4_decomp, field, value):
        h, _ = _model(g4, g4_decomp)
        with pytest.raises(ConfigurationError):
            pagerank(h, **{field: value})

    def test_max_iter_zero_rejected(self, g4, g4_decomp):
        h, _ = _model(g4, g4_decomp)
        with pytest.raises(ConfigurationError, match="max_iter"):
            pagerank(h, max_iter=0)

    def test_jump_vector_is_not_a_parameter(self, g4, g4_decomp):
        h, _ = _model(g4, g4_decomp)
        assert list(inspect.signature(pagerank).parameters) == ["h", "alpha", "tol", "max_iter"]
        with pytest.raises(TypeError):
            pagerank(h, v=np.full(h.n, 0.25))


def _result(scores) -> RankResult:
    scores = np.asarray(scores, dtype=float)
    return RankResult(scores=scores, iterations=1, residual=0.0, converged=True)


def _tied_scores(rng: np.random.Generator, n: int, ties: str) -> np.ndarray:
    """``n`` scores: distinct ("none"), a few values each shared by many nodes
    ("exact"), those values apart by less than 1e-11 (relative) and alike to
    12 digits ("printed"), or apart by up to 3e-11, so that some print alike
    and some only fall near the tie margin ("near")."""
    if ties == "none":
        return rng.random(n)
    scores = rng.random(int(rng.integers(1, 5)))
    scores = scores[rng.integers(0, scores.size, size=n)]
    if ties == "printed":
        scores *= 1.0 + 1e-13 * rng.integers(-20, 21, size=n)
    elif ties == "near":
        scores *= 1.0 + 1e-12 * rng.integers(-15, 16, size=n)
    return scores


class TestCompare:
    def test_identical_rankings(self):
        a = _result([0.4, 0.3, 0.2, 0.1])
        report = compare(a, a, 2, ["a", "b", "c", "d"])
        assert report.l1 == 0.0
        assert report.overlap == 1.0
        assert report.top_a == report.top_b == ("a", "b")

    def test_disjoint_top_sets(self):
        a = _result([0.4, 0.4, 0.1, 0.1])
        b = _result([0.1, 0.1, 0.4, 0.4])
        report = compare(a, b, 2, ["a", "b", "c", "d"])
        assert report.overlap == 0.0

    def test_k_clipped_to_n_with_flag(self):
        a = _result([0.6, 0.4])
        report = compare(a, a, 5, ["a", "b"])
        assert report.k == 2
        assert report.clipped

    def test_ties_break_by_ascending_label(self):
        a = _result([0.25, 0.25, 0.25, 0.25])
        report = compare(a, a, 2, ["d", "c", "b", "a"])
        assert report.top_a == ("a", "b")

    def test_printed_ties_break_by_ascending_label(self):
        # 0.123456789012 to 12 significant digits, both of them
        scores = np.array([0.5, 0.1234567890121, 0.1234567890119, 0.1])
        labels = ["w", "y", "x", "a"]
        assert format(scores[1], ".12g") == format(scores[2], ".12g")
        assert order_by_score(scores, labels).tolist() == [0, 2, 1, 3]
        assert order_by_score(scores[[0, 2, 1, 3]], ["w", "x", "y", "a"]).tolist() == [0, 1, 2, 3]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.data(),
           st.sampled_from(["exact", "printed", "near", "none"]), st.booleans())
    def test_order_matches_the_label_then_key_sort(self, seed, n, data, ties, descending):
        # the top k are selected before they are ordered: tie groups, in
        # printed key and then in label, often straddle the k-th place
        k = data.draw(st.none() | st.integers(1, n + 10))
        rng = np.random.default_rng(seed)
        scores = _tied_scores(rng, n, ties)
        labels = [str(i) for i in rng.permutation(n)]  # "10" sorts before "9"
        if descending:
            labels.sort(reverse=True)
        order = order_by_score(scores, labels, k)
        assert order.dtype.kind == "i"
        assert order.tolist() == reference_order_by_score(scores, labels)[:k]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 70),
           st.sampled_from(["exact", "printed", "near", "none"]))
    def test_top_k_is_the_head_of_the_full_order(self, seed, n, k, ties):
        # the top k are ordered from a partial selection; tie groups, in
        # printed key and then in label, often straddle the k-th place
        rng = np.random.default_rng(seed)
        a, b = _tied_scores(rng, n, ties), _tied_scores(rng, n, ties)
        labels = [str(i) for i in rng.permutation(n)]
        report = compare(_result(a), _result(b), k, labels)
        for scores, top in ((a, report.top_a), (b, report.top_b)):
            assert top == tuple(labels[i] for i in reference_order_by_score(scores, labels)[:k])

    def test_k_must_be_positive(self):
        a = _result([1.0])
        with pytest.raises(ConfigurationError):
            compare(a, a, 0, ["a"])

    def test_universe_mismatch_rejected(self):
        a = _result([0.5, 0.5])
        b = _result([1.0])
        with pytest.raises(DimensionError):
            compare(a, b, 1, ["a", "b"])

    def test_reference_comparison_frozen(self, g4, g4_decomp):
        # frozen regression from the first oracle-verified run
        h, f = _model(g4, g4_decomp)
        ours = rank(h, f, RankParams(eta=0.5, mu=0.5, tol=1e-13, max_iter=20000))
        base = pagerank(h, alpha=0.85, tol=1e-13, max_iter=20000)
        report = compare(ours, base, 4, g4.labels)
        assert report.l1 == pytest.approx(0.055463728191, abs=1e-9)
        assert report.overlap == 1.0
        assert report.top_a == report.top_b == ("a", "b", "d", "c")


SEED_RANKER = 624007


@pytest.mark.parametrize("make, error", [
    (lambda: Graph.from_edges(["a", "b"], [(0.7, 1.2)]), DimensionError),
    (lambda: Decomposition.from_members([[0, 1.5], [2, 3]], n=4), CoverageError),
    (lambda: RankParams(max_iter=2.5), ConfigurationError),
    (lambda: compare(_result([0.5, 0.5]), _result([0.5, 0.5]), 2.5, "ab"), ConfigurationError),
    # a bool is an int to isinstance, but True is no count
    (lambda: RankParams(max_iter=True), ConfigurationError),
    (lambda: compare(_result([0.5, 0.5]), _result([0.5, 0.5]), True, "ab"), ConfigurationError),
], ids=["edge", "member", "max_iter", "k", "max_iter-bool", "k-bool"])
def test_non_integral_ids_and_counts_are_rejected_where_they_enter(make, error):
    with pytest.raises(error, match="integer"):
        make()


class TestRankerProperties:
    def test_fixed_point_residual_bound(self):
        rng = np.random.default_rng(SEED_RANKER)
        done = 0
        while done < 15:
            g, d = random_instance(rng, 3, 60)
            h, f = _model(g, d)
            eta = float(rng.uniform(0.3, 0.9))
            mu = float(rng.uniform(0.0, 1.0 - eta))
            params = RankParams(eta=eta, mu=mu, tol=1e-10, max_iter=20000)
            if params.teleport == 0.0:
                continue
            result = rank(h, f, params)
            assert result.converged
            n = g.n
            p = (
                eta * h.to_dense()
                + mu * materialize_m(f)
                + params.teleport * np.full((n, n), 1.0 / n)
            )
            residual = np.abs(result.scores @ p - result.scores).sum()
            assert residual <= 2 * params.tol
            done += 1

    def test_factored_iteration_matches_dense_trajectory(self, g4, g4_decomp):
        h, f = _model(g4, g4_decomp)
        p = 0.5 * h.to_dense() + 0.5 * materialize_m(f)
        x = np.full(4, 0.25)
        for iterations in range(1, 41):
            result = rank(
                h, f, RankParams(eta=0.5, mu=0.5, tol=1e-300, max_iter=iterations),
                strict=False,
            )
            y = x @ p
            y /= y.sum()
            x = y
            assert np.abs(result.scores - x).sum() <= 1e-12

    def test_factored_matches_dense_trajectory_with_all_three_terms(self):
        rng = np.random.default_rng(SEED_RANKER + 4)
        g = random_graph(rng, 150, 0.05)
        d = random_partition(rng, 150)
        h, f = _model(g, d)
        n = g.n
        params = RankParams(eta=0.6, mu=0.25, tol=1e-300, max_iter=1)
        p = (
            params.eta * h.to_dense()
            + params.mu * materialize_m(f)
            + params.teleport * np.full((n, n), 1.0 / n)
        )
        x = np.full(n, 1.0 / n)
        for iterations in range(1, 31):
            result = rank(
                h, f,
                RankParams(eta=0.6, mu=0.25, tol=1e-300, max_iter=iterations),
            )
            y = x @ p
            y /= y.sum()
            x = y
            assert np.abs(result.scores - x).sum() <= 1e-12

    def test_admissible_no_teleport_scores_are_positive(self):
        rng = np.random.default_rng(SEED_RANKER + 1)
        done = 0
        while done < 20:
            g, d = random_instance(rng, 2, 30)
            h, f = _model(g, d)
            try:
                result = rank(h, f, RankParams(eta=0.5, mu=0.5, tol=1e-11, max_iter=20000))
            except ReducibleModelError:
                continue
            assert result.converged
            assert result.scores.min() > 0
            done += 1

    def test_mu_zero_reduces_to_pagerank(self):
        rng = np.random.default_rng(SEED_RANKER + 2)
        for _ in range(10):
            g, d = random_instance(rng, 2, 40)
            h, f = _model(g, d)
            ours = rank(h, f, RankParams(eta=0.85, mu=0.0, tol=1e-13, max_iter=20000))
            base = pagerank(h, alpha=0.85, tol=1e-13, max_iter=20000)
            assert np.abs(ours.scores - base.scores).sum() <= 1e-12

    def test_top_node_stable_under_tighter_tolerance(self):
        rng = np.random.default_rng(SEED_RANKER + 3)
        done = 0
        while done < 15:
            g, d = random_instance(rng, 5, 30)
            h, f = _model(g, d)
            params = RankParams(eta=0.6, mu=0.3, tol=1e-9, max_iter=20000)
            coarse = rank(h, f, params)
            fine = rank(h, f, RankParams(eta=0.6, mu=0.3, tol=1e-10, max_iter=20000))
            ordered = np.sort(fine.scores)[::-1]
            if ordered[0] - ordered[1] < 1e-6:
                continue  # near-tie: excluded from the corpus by construction
            assert int(np.argmax(coarse.scores)) == int(np.argmax(fine.scores))
            done += 1


class TestConvergenceReport:
    # two-state chain: every residual is exactly 0.7 times the one before
    CHAIN = np.array([[0.9, 0.1], [0.2, 0.8]])

    def step(self, x):
        return x @ self.CHAIN

    def test_rate_is_the_observed_contraction(self):
        got = power_iteration(self.step, 2, tol=1e-12, max_iter=10)
        assert not got.converged and got.corrections == 0
        assert got.rate == pytest.approx(0.7, rel=1e-9)

    def test_projected_steps_match_the_run(self):
        more = power_iteration(self.step, 2, tol=1e-12, max_iter=10).steps_to(1e-12)
        done = power_iteration(self.step, 2, tol=1e-12, max_iter=1000)
        assert abs(done.iterations - 10 - more) <= 1
        assert done.steps_to(1e-12) == 0

    def test_rate_zero_needs_one_more_step(self):
        got = RankResult(scores=np.array([0.5, 0.5]), iterations=3, residual=1e-3,
                         converged=False, rate=0.0)
        assert got.steps_to(1e-9) == 1

    def test_rate_after_a_zero_residual_is_zero(self):
        # a window that starts at an exact fixed point divides by nothing
        assert _rate(deque([0.0, 0.0, 0.0])) == 0.0

    def test_rate_needs_two_steps(self):
        got = power_iteration(self.step, 2, tol=1e-12, max_iter=1)
        assert np.isnan(got.rate) and got.steps_to(1e-12) == math.inf

    def test_oscillation_is_not_shrinking(self):
        g = Graph.from_edges(["a", "b", "c"], [(0, 1), (1, 0), (1, 2), (2, 1)])
        d = Decomposition.from_members([[0, 1, 2]], n=3)
        h, f = _model(g, d)
        result = rank(h, f, RankParams(eta=1.0, mu=0.0, tol=1e-9, max_iter=40), strict=False)
        assert result.rate == pytest.approx(1.0)
        assert result.steps_to(1e-9) == math.inf
