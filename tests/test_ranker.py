"""Power-iteration ranking, the PageRank baseline, and ranking comparison."""

from __future__ import annotations

import math

import numpy as np
import pytest

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
    materialize_m,
    pagerank,
    parse_blocks,
    parse_edge_list,
    rank,
)
from blockrank.errors import (
    ConfigurationError,
    DimensionError,
    ReducibleModelError,
)
from blockrank.ranker import power_iteration

from helpers import random_graph, random_instance, random_partition


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
        result = rank(h, f, RankParams(eta=1.0, mu=0.0, tol=1e-9, max_iter=40))
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

    def test_positive_personalization_required_with_teleport(self, g4, g4_decomp):
        h, f = _model(g4, g4_decomp)
        bad = np.array([0.5, 0.5, 0.0, 0.0])
        with pytest.raises(ConfigurationError):
            rank(h, f, RankParams(eta=0.5, mu=0.3, personalization=bad))

    def test_nan_personalization_rejected_with_teleport(self, g4, g4_decomp):
        # nan <= 0 and |nan - 1| > tol are both False: only a finiteness test catches it
        h, f = _model(g4, g4_decomp)
        bad = np.array([np.nan, 0.5, 0.25, 0.25])
        with pytest.raises(ConfigurationError):
            rank(h, f, RankParams(eta=0.5, mu=0.3, personalization=bad))


class TestPagerank:
    def test_alpha_zero_returns_personalization(self, g4, g4_decomp):
        h, _ = _model(g4, g4_decomp)
        v = np.array([0.5, 0.25, 0.125, 0.125])  # sums to 1.0 exactly
        result = pagerank(h, alpha=0.0, v=v)
        assert result.converged
        np.testing.assert_array_equal(result.scores, v)

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

    def test_personalization_validated(self, g4, g4_decomp):
        h, _ = _model(g4, g4_decomp)
        with pytest.raises(ConfigurationError):
            pagerank(h, v=np.array([0.7, 0.1, 0.1, 0.0]))
        with pytest.raises(ConfigurationError):
            pagerank(h, v=np.array([0.7, 0.2, 0.2, 0.2]))
        with pytest.raises(DimensionError):
            pagerank(h, v=np.array([0.5, 0.5]))

    def test_nan_personalization_rejected(self, g4, g4_decomp):
        h, _ = _model(g4, g4_decomp)
        with pytest.raises(ConfigurationError):
            pagerank(h, v=np.array([np.nan, 0.5, 0.25, 0.25]))


def _result(scores) -> RankResult:
    scores = np.asarray(scores, dtype=float)
    return RankResult(scores=scores, iterations=1, residual=0.0, converged=True)


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

    def test_rate_needs_two_steps(self):
        got = power_iteration(self.step, 2, tol=1e-12, max_iter=1)
        assert np.isnan(got.rate) and got.steps_to(1e-12) == math.inf

    def test_oscillation_is_not_shrinking(self):
        g = Graph.from_edges(["a", "b", "c"], [(0, 1), (1, 0), (1, 2), (2, 1)])
        d = Decomposition.from_members([[0, 1, 2]], n=3)
        h, f = _model(g, d)
        result = rank(h, f, RankParams(eta=1.0, mu=0.0, tol=1e-9, max_iter=40))
        assert result.rate == pytest.approx(1.0)
        assert result.steps_to(1e-9) == math.inf
