"""Irreducibility/primitivity checks and the dense stationary oracle."""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from blockrank import (
    DanglingPolicy,
    Decomposition,
    Graph,
    build_factors,
    build_hyperlink,
    dense_stationary,
    indicator,
    is_irreducible,
    is_primitive,
    materialize_m,
    parse_blocks,
    parse_edge_list,
    teleportation_free_check,
)
from blockrank.errors import CapExceededError, ConvergenceError, DimensionError

from helpers import G4_W, random_instance, reference_strong_components


@st.composite
def weighted_patterns(draw) -> tuple[np.ndarray, np.ndarray]:
    """A k x k 0/1 digraph (self-loops allowed) and positive weights on its edges."""
    k = draw(st.integers(1, 8))
    cells = draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k))
    adjacency = np.array(cells, dtype=bool).reshape(k, k)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return adjacency, np.where(adjacency, rng.random((k, k)) + 0.01, 0.0)


def with_stored_zeros(dense: np.ndarray) -> sparse.csr_array:
    """CSR that stores every entry of ``dense``, zeros included."""
    k = dense.shape[0]
    m = sparse.csr_array((dense.ravel(), np.tile(np.arange(k), k), np.arange(0, k * k + 1, k)),
                         shape=(k, k))
    assert m.nnz == k * k
    return m


class TestIsIrreducible:
    def test_reference_indicator(self):
        verdict, components = is_irreducible(G4_W)
        assert verdict
        assert components == [[0, 1]]

    def test_identity_is_reducible(self):
        verdict, components = is_irreducible(np.eye(2))
        assert not verdict
        assert components == [[0], [1]]

    def test_two_cycle_is_irreducible(self):
        verdict, _ = is_irreducible(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert verdict

    def test_chain_condensation(self):
        # 0 -> 1 -> 2 with no way back: three singleton components
        m = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=float)
        verdict, components = is_irreducible(m)
        assert not verdict
        assert components == [[0], [1], [2]]

    def test_sparse_input_accepted(self):
        from scipy import sparse

        verdict, _ = is_irreducible(sparse.csr_array(np.array([[0.0, 2.0], [1.0, 0.0]])))
        assert verdict

    def test_single_vertex_counts_as_strongly_connected(self):
        verdict, components = is_irreducible(np.array([[0.0]]))
        assert verdict
        assert components == [[0]]

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            is_irreducible(np.ones((2, 3)))

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            is_irreducible(np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_nan_entries_rejected(self):
        m = np.array([[0.0, np.nan], [1.0, 0.0]])
        for check in (is_irreducible, is_primitive):
            with pytest.raises(ValueError):
                check(m)

    def test_stored_zero_is_not_an_edge(self):
        # row 1 stores a zero at column 0: read as an edge it would close the 2-cycle
        m = sparse.csr_array((np.array([1.0, 0.0]), np.array([1, 0]), np.array([0, 1, 2])),
                             shape=(2, 2))
        assert m.nnz == 2
        assert is_irreducible(m) == (False, [[0], [1]])

    @settings(max_examples=200, deadline=None)
    @given(weighted_patterns())
    def test_components_match_transitive_closure(self, case):
        adjacency, weights = case
        want = reference_strong_components(adjacency)
        for m in (weights, adjacency, sparse.csr_array(weights), with_stored_zeros(weights)):
            assert is_irreducible(m) == (len(want) == 1, want)


class TestIsPrimitive:
    def test_periodic_two_cycle_is_not_primitive(self):
        assert not is_primitive(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_positive_matrix_is_primitive(self):
        assert is_primitive(np.full((2, 2), 0.5))

    def test_reference_operator_is_primitive(self, g4, g4_decomp):
        h = build_hyperlink(g4, DanglingPolicy.OWN_BLOCK, g4_decomp)
        p = 0.5 * h.to_dense() + 0.5 * materialize_m(build_factors(g4_decomp, g4))
        assert is_primitive(p)

    def test_order_one(self):
        assert is_primitive(np.array([[3.0]]))
        assert not is_primitive(np.array([[0.0]]))

    def test_irreducible_with_one_positive_diagonal_entry(self):
        assert is_primitive(np.array([[1.0, 1.0], [1.0, 0.0]]))

    def test_reducible_matrix_is_not_primitive(self):
        assert not is_primitive(np.eye(3))

    def test_cap_refusal(self):
        with pytest.raises(CapExceededError):
            is_primitive(np.ones((4, 4)), cap=3)

    def test_cyclic_permutation_is_not_primitive(self):
        p = np.roll(np.eye(5), 1, axis=1)
        assert not is_primitive(p)
        verdict, _ = is_irreducible(p)
        assert verdict  # irreducible but periodic


class TestTeleportationFreeCheck:
    def test_reference_is_admissible(self, g4, g4_decomp):
        report = teleportation_free_check(indicator(build_factors(g4_decomp, g4)))
        assert report.irreducible
        assert report.primitive_guarantee
        assert report.scc_count == 1
        assert report.blocking_components == ()

    def test_disjoint_cycles_report_blocking_components(self):
        g = parse_edge_list("a b\nb a\nc d\nd c")
        d = parse_blocks("a B1\nb B1\nc B2\nd B2", g)
        report = teleportation_free_check(indicator(build_factors(d, g)))
        assert not report.irreducible
        assert not report.primitive_guarantee
        assert report.scc_count == 2
        assert report.blocking_components == ((0,), (1,))

    def test_single_block_is_trivially_admissible(self):
        g = Graph.from_edges(["a", "b"], [(0, 1)])
        d = Decomposition.from_members([[0, 1]], n=2)
        report = teleportation_free_check(indicator(build_factors(d, g)))
        assert report.irreducible and report.scc_count == 1


RING_K = 50_000


def ring_factors(K: int, cuts: tuple[int, ...] = ()):
    """Factors of a ring of K two-node blocks, each linking both neighbours,
    with the links between blocks c - 1 and c removed for each c in ``cuts``."""
    b = np.arange(K)
    forward = np.column_stack([2 * b + 1, 2 * ((b + 1) % K)])
    backward = np.column_stack([2 * b, 2 * ((b - 1) % K) + 1])
    edges = np.vstack([forward[~np.isin((b + 1) % K, cuts)], backward[~np.isin(b, cuts)]])
    g = Graph.from_edges([f"n{u}" for u in range(2 * K)], edges)
    return build_factors(Decomposition.from_members(np.arange(2 * K).reshape(K, 2), n=2 * K), g)


def stored_bytes(obj) -> int:
    total = 0
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        arrays = (value.data, value.indices, value.indptr) if sparse.issparse(value) else (value,)
        total += sum(np.asarray(a).nbytes for a in arrays)
    return total


def test_admissibility_at_50k_blocks_allocates_nothing_quadratic():
    # a dense K x K float W alone would be 20 GB here
    f = ring_factors(RING_K)
    tracemalloc.start()
    try:
        w = indicator(f)
        report = teleportation_free_check(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.matrix.nnz == 3 * RING_K
    assert stored_bytes(w) <= 16 * (w.matrix.nnz + RING_K + 1)
    assert peak <= 64 * 2**20
    assert report.irreducible and report.scc_count == 1
    assert report.blocking_components == ()
    with pytest.raises(CapExceededError):
        w.W
    with pytest.raises(CapExceededError):
        w.zero_pattern

    half = RING_K // 2
    report = teleportation_free_check(indicator(ring_factors(RING_K, cuts=(0, half))))
    assert not report.irreducible and report.scc_count == 2
    assert report.blocking_components == (tuple(range(half)), tuple(range(half, RING_K)))


class TestDenseStationary:
    def test_symmetric_two_node_model(self):
        g = parse_edge_list("a b\nb a")
        d = Decomposition.from_members([[0, 1]], n=2)
        h = build_hyperlink(g, DanglingPolicy.OWN_BLOCK, d)
        p = 0.5 * h.to_dense() + 0.5 * materialize_m(build_factors(d, g))
        np.testing.assert_allclose(dense_stationary(p, tol=1e-12), [0.5, 0.5], atol=1e-12)

    def test_identity_returns_uniform_start(self):
        pi = dense_stationary(np.eye(4), tol=1e-12)
        np.testing.assert_array_equal(pi, np.full(4, 0.25))

    def test_reference_model_stationary_vector(self, g4, g4_decomp):
        # frozen regression: the exact stationary vector of the reference
        # no-teleportation model is (19/60, 3/10, 11/60, 1/5)
        h = build_hyperlink(g4, DanglingPolicy.OWN_BLOCK, g4_decomp)
        p = 0.5 * h.to_dense() + 0.5 * materialize_m(build_factors(g4_decomp, g4))
        pi = dense_stationary(p, tol=1e-13, max_iter=20000)
        np.testing.assert_allclose(
            pi, [19 / 60, 3 / 10, 11 / 60, 1 / 5], rtol=0, atol=1e-10
        )
        assert pi.min() > 0

    def test_result_is_a_probability_vector(self):
        rng = np.random.default_rng(5150)
        p = rng.random((8, 8)) + 0.05
        p /= p.sum(axis=1, keepdims=True)
        pi = dense_stationary(p, tol=1e-12)
        assert pi.min() >= 0
        assert abs(pi.sum() - 1.0) <= 1e-12
        assert np.abs(pi @ p - pi).sum() <= 1e-12

    def test_periodic_chain_raises_convergence_error(self):
        p = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
        with pytest.raises(ConvergenceError) as excinfo:
            dense_stationary(p, tol=1e-12, max_iter=50)
        assert excinfo.value.residual > 0

    def test_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            dense_stationary(np.array([[0.5, 0.4], [0.5, 0.5]]), tol=1e-9)

    def test_cap_refusal(self):
        with pytest.raises(CapExceededError):
            dense_stationary(np.eye(5), tol=1e-9, cap=4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        # NaN slips past both the sign and the row-sum test
        with pytest.raises(ValueError, match="finite"):
            dense_stationary(np.array([[bad, 0.5], [0.5, 0.5]]), tol=1e-9)


SEED_SPECTRA = 910203


class TestSpectralProperties:
    def test_indicator_irreducibility_decides_operator_primitivity(self):
        # spot-check of the admissibility equivalence; the full 500-instance
        # suite lives in the acceptance tests
        rng = np.random.default_rng(SEED_SPECTRA)
        for _ in range(120):
            g, d = random_instance(rng, 2, 10, 4, 0.3)
            h = build_hyperlink(g, DanglingPolicy.OWN_BLOCK, d)
            f = build_factors(d, g)
            p = 0.5 * h.to_dense() + 0.5 * materialize_m(f)
            verdict, _ = is_irreducible(indicator(f).W)
            assert is_primitive(p) == verdict

    def test_power_chain_identity(self):
        # (R A)^(k+1) telescopes to R (A R)^k A
        rng = np.random.default_rng(SEED_SPECTRA + 1)
        for _ in range(10):
            g, d = random_instance(rng, 2, 50)
            f = build_factors(d, g)
            m = materialize_m(f)
            r, a = f.R.toarray(), f.A.toarray()
            w = indicator(f).W
            for k in range(1, 6):
                lhs = np.linalg.matrix_power(m, k + 1)
                rhs = r @ np.linalg.matrix_power(w, k) @ a
                assert np.abs(lhs - rhs).max() <= 1e-12

    def test_convex_combination_with_primitive_part_is_primitive(self):
        rng = np.random.default_rng(SEED_SPECTRA + 2)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            primitive_part = rng.random((n, n)) + 0.1
            primitive_part /= primitive_part.sum(axis=1, keepdims=True)
            assert is_primitive(primitive_part)
            others = [
                np.roll(np.eye(n), 1, axis=1),  # periodic permutation
                np.eye(n),                       # reducible identity
            ]
            dense = rng.random((n, n))
            others.append(dense / dense.sum(axis=1, keepdims=True))
            for other in others:
                for weight in (0.1, 0.5, 0.9):
                    assert is_primitive(weight * primitive_part + (1 - weight) * other)

    def test_admissible_models_have_positive_stationary_vectors(self):
        rng = np.random.default_rng(SEED_SPECTRA + 3)
        done = 0
        while done < 25:
            g, d = random_instance(rng, 2, 20)
            f = build_factors(d, g)
            if not teleportation_free_check(indicator(f)).irreducible:
                continue
            h = build_hyperlink(g, DanglingPolicy.OWN_BLOCK, d)
            p = 0.5 * h.to_dense() + 0.5 * materialize_m(f)
            pi = dense_stationary(p, tol=1e-12, max_iter=20000)
            assert pi.min() > 0
            done += 1

    def test_positive_diagonal_shortcut_agrees_with_power_test(self):
        rng = np.random.default_rng(SEED_SPECTRA + 4)
        checked = 0
        while checked < 40:
            g, d = random_instance(rng, 2, 12)
            w = indicator(build_factors(d, g)).W
            verdict, _ = is_irreducible(w)
            if not verdict:
                continue
            assert w.diagonal().min() > 0
            assert is_primitive(w)
            checked += 1
