"""Aggregation-disaggregation corrections of the teleport-free iteration.

The corrected iteration is checked against a dense oracle built from the
definition of ``P``; the gate is checked against the dense block leak and
against each of its conditions; plain runs stay bit-identical.  The gate
and the corrector build are also held to scratch-memory bounds, and their
int32 operands to the scores of int64 copies.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import blockrank.tokens
from blockrank import (
    DanglingPolicy,
    Decomposition,
    Graph,
    ProximityFactors,
    RankParams,
    build_factors,
    build_hyperlink,
    dense_stationary,
    parse_blocks,
    parse_edge_list,
    rank,
)
from blockrank.errors import ReducibleModelError
from blockrank.graph import hyperlink_apply
from blockrank.ranker import LEAK, _link_leaks, _surfing_step, block_aggregation, power_iteration

from helpers import (
    ADVERSARIAL_KINDS,
    adversarial_cover,
    dense_aggregate_leaks,
    dense_aggregates,
    dense_corrected_iteration,
    dense_leak,
    dense_surfing,
    ncd_instance,
    node_blocks,
    out_neighbors,
    reference_power_iteration,
    singleton_cover_instance,
)

ETA, MU = 0.85, 0.15


def exact_stationary(p: np.ndarray) -> np.ndarray:
    n = p.shape[0]
    system = p.T - np.eye(n)
    system[-1] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return np.linalg.solve(system, rhs)


def plain_step(h, f, params):
    """The uncorrected step of ``rank``, written out."""
    v = np.full(h.n, 1.0 / h.n)

    def step(x):
        y = params.eta * hyperlink_apply(h, x)
        if params.mu != 0.0:
            y += params.mu * ((x @ f.R) @ f.A)
        if params.teleport != 0.0:
            y += params.teleport * v
        return y

    return step


@pytest.mark.parametrize("policy", list(DanglingPolicy))
@pytest.mark.parametrize("seed", range(12))
def test_corrected_trajectory_matches_dense_oracle(seed, policy):
    rng = np.random.default_rng(4200 + seed)
    k = int(rng.integers(2, 5))
    n = int(rng.integers(max(20, k * k), 51))
    g, d = ncd_instance(rng, n, k, 0.02, cover=bool(seed % 2))
    f = build_factors(d, g)
    h = build_hyperlink(g, policy, d)
    p = dense_surfing(g, d, policy, ETA, MU)
    agg = dense_aggregates(d)
    leak = dense_aggregate_leaks(p, agg).min()

    coarse = block_aggregation(h, f, RankParams(eta=ETA, mu=MU))
    if coarse is None:
        assert leak > LEAK
        return
    assert coarse.leak == pytest.approx(leak, abs=1e-12)
    np.testing.assert_array_equal(coarse.agg, agg)

    trajectory = dense_corrected_iteration(p, agg, coarse.leak, tol=1e-12, max_iter=200)
    for t, want in enumerate(trajectory, start=1):
        got = rank(h, f, RankParams(eta=ETA, mu=MU, tol=1e-12, max_iter=t))
        np.testing.assert_allclose(got.scores, want, rtol=0, atol=1e-12)
    assert got.converged and got.corrections > 0


def test_corrections_stop_when_a_step_barely_contracts():
    # Two directed cycles (10 and 13 nodes) joined by one link each way:
    # little leaks, but inside a block the walk mixes slowly, so corrected
    # steps shrink the residual by less than 1 - leak and corrections stop.
    sizes, edges, blocks = (10, 13), [(0, 10), (10, 0)], [range(10), range(10, 23)]
    for block in blocks:
        edges += [(u, block[(i + 1) % len(block)]) for i, u in enumerate(block)]
    g = Graph.from_edges([f"n{u}" for u in range(sum(sizes))], edges)
    d = Decomposition.from_members(blocks, n=g.n)
    h, f = build_hyperlink(g, DanglingPolicy.OWN_BLOCK, d), build_factors(d, g)
    params = RankParams(eta=0.99, mu=0.01, tol=1e-8, max_iter=20_000)
    coarse = block_aggregation(h, f, params)
    assert coarse is not None

    got = rank(h, f, params)
    p = dense_surfing(g, d, DanglingPolicy.OWN_BLOCK, params.eta, params.mu)
    trajectory = dense_corrected_iteration(p, dense_aggregates(d), coarse.leak, params.tol,
                                           params.max_iter)
    assert got.converged and got.iterations == len(trajectory)
    assert got.corrections == 2
    np.testing.assert_allclose(got.scores, trajectory[-1], rtol=0, atol=1e-12)


def test_ncd_family_converges_in_a_fraction_of_the_plain_steps():
    tol = 1e-10
    ratios, corrected = [], 0
    for seed in range(16):
        rng = np.random.default_rng(1000 + seed)
        n, k = int(rng.integers(60, 151)), int(rng.integers(3, 7))
        eps = [0.002, 0.005, 0.01, 0.02][seed % 4]
        g, d = ncd_instance(rng, n, k, eps, cover=bool(seed % 2), dangling=0.05)
        f = build_factors(d, g)
        for policy in DanglingPolicy:
            h = build_hyperlink(g, policy, d)
            p = dense_surfing(g, d, policy, ETA, MU)
            got = rank(h, f, RankParams(eta=ETA, mu=MU, tol=tol, max_iter=100_000))
            assert got.converged
            # 1e-14: rounding of the dense product against the factored one
            assert np.abs(got.scores @ p - got.scores).sum() <= tol + 1e-14
            second = np.sort(np.abs(np.linalg.eigvals(p)))[-2]
            assert np.abs(got.scores - exact_stationary(p)).sum() <= tol / (1.0 - second)
            _, plain = reference_power_iteration(lambda x: x @ p, n, tol, 100_000)
            ratios.append(got.iterations / plain)
            corrected += got.corrections > 0
    assert corrected >= 0.75 * len(ratios)
    assert np.median(ratios) <= 0.2
    assert max(ratios) <= 1.5


def test_reducible_model_falls_back_to_plain_steps():
    # Two closed classes, one block each: the gate passes (nothing leaks),
    # the coarse chain has no unique stationary vector, and with mu = 0.01
    # the classes settle only slowly.
    g = parse_edge_list("a b\na c\nb c\nc a\nd e\ne f\nf g\ng d\nd f")
    d = parse_blocks("a X\nb X\nc X\nd Y\ne Y\nf Y\ng Y", g)
    h, f = build_hyperlink(g, DanglingPolicy.OWN_BLOCK, d), build_factors(d, g)
    params = RankParams(eta=0.99, mu=0.01, tol=1e-12, max_iter=50)
    with pytest.raises(ReducibleModelError):
        rank(h, f, params)
    assert block_aggregation(h, f, params) is not None

    got = rank(h, f, params, strict=False)
    scores, _ = reference_power_iteration(plain_step(h, f, params), g.n, params.tol,
                                          params.max_iter)
    assert got.corrections == 0
    assert np.array_equal(got.scores, scores)
    assert not got.converged and got.iterations == 50 and got.residual > params.tol
    assert got.steps_to(params.tol) > 0


def leaking_model():
    """Aggregate X = {a, b, c} leaks into the closed aggregate Y through the
    link a -> d, weakly enough that the gate passes."""
    g = parse_edge_list("a b\na c\na d\nb c\nc a\nd e\ne f\nf g\ng d\nd f")
    d = parse_blocks("a X\nb X\nc X\nd Y\ne Y\nf Y\ng Y", g)
    h, f = build_hyperlink(g, DanglingPolicy.OWN_BLOCK, d), build_factors(d, g)
    params = RankParams(eta=0.99, mu=0.01, tol=1e-12, max_iter=50)
    coarse = block_aggregation(h, f, params)
    assert coarse is not None
    return h, f, params, coarse


def test_correction_refuses_an_aggregate_without_mass():
    _, _, _, coarse = leaking_model()
    x = np.array([0.0, 0.0, 0.0, 0.25, 0.25, 0.25, 0.25])
    assert coarse.correct(x, np.inf) is None


def test_correction_refuses_a_non_positive_coarse_solution():
    # Y never returns mass to X, so the coupled chain's stationary vector is
    # exactly 0 on X
    h, _, _, coarse = leaking_model()
    assert coarse.correct(np.full(h.n, 1.0 / h.n), np.inf) is None


def test_failed_corrections_leave_the_plain_iteration():
    class Failing:
        leak = 0.0

        def correct(self, x, residual):
            return None

    h, f, params, _ = leaking_model()
    step = plain_step(h, f, params)
    got = power_iteration(step, h.n, params.tol, params.max_iter, Failing())
    want = power_iteration(step, h.n, params.tol, params.max_iter)
    assert got.corrections == 0
    assert got.iterations == want.iterations and got.residual == want.residual
    assert np.array_equal(got.scores, want.scores)


GATE_OFF = {  # n, blocks, eps, eta, mu
    "teleport": (120, 4, 0.005, 0.8, 0.15),
    "mu-zero": (120, 4, 0.005, 1.0, 0.0),
    "leak-above-LEAK": (120, 4, 0.5, ETA, MU),
}


@pytest.mark.parametrize("policy", list(DanglingPolicy))
@pytest.mark.parametrize("case", list(GATE_OFF))
def test_gate_off_runs_are_bit_identical_to_the_plain_kernel(case, policy):
    n, k, eps, eta, mu = GATE_OFF[case]
    g, d = ncd_instance(np.random.default_rng(77), n, k, eps, dangling=0.05)
    h, f = build_hyperlink(g, policy, d), build_factors(d, g)
    # each case fails exactly the condition it is named after
    leaks = dense_aggregate_leaks(dense_surfing(g, d, policy, ETA, MU), dense_aggregates(d))
    assert (leaks.min() > LEAK) == (case == "leak-above-LEAK")

    params = RankParams(eta=eta, mu=mu, tol=1e-12, max_iter=3000)
    assert block_aggregation(h, f, params) is None
    got = rank(h, f, params, strict=case != "mu-zero")
    scores, iterations = reference_power_iteration(plain_step(h, f, params), g.n, params.tol,
                                                   params.max_iter)
    assert got.corrections == 0
    assert got.iterations == iterations
    assert np.array_equal(got.scores, scores)


@pytest.mark.parametrize("policy", list(DanglingPolicy))
def test_one_nearly_closed_aggregate_admits_a_leaky_mean(policy):
    # block 0 keeps its links, the seven others send 60% of theirs away, and
    # 8^2 > 60 blocks: the coupled chain is the sparse one
    g, d = ncd_instance(np.random.default_rng(74), 60, 8, [0.005] + [0.6] * 7, dangling=0.05)
    h, f = build_hyperlink(g, policy, d), build_factors(d, g)
    p = dense_surfing(g, d, policy, ETA, MU)
    agg = dense_aggregates(d)
    assert dense_leak(p, agg) > LEAK >= dense_aggregate_leaks(p, agg).min()

    params = RankParams(eta=ETA, mu=MU, tol=1e-12, max_iter=3000)
    assert not block_aggregation(h, f, params).exact
    got = rank(h, f, params)
    assert got.converged and got.corrections > 0
    assert np.abs(got.scores @ p - got.scores).sum() <= params.tol + 1e-14


def gate_decision(rng: np.random.Generator):
    """A random instance and model, and whether the gate should admit it."""
    n = int(rng.integers(6, 51))
    k = int(rng.integers(1, min(n, 8) + 1))
    eps = float(rng.choice([0.0, 0.01, 0.05, 0.2, 0.6]))
    g, d = ncd_instance(rng, n, k, eps, cover=bool(rng.integers(2)))
    policy = list(DanglingPolicy)[int(rng.integers(2))]
    eta, mu = [(ETA, MU), (0.99, 0.01), (0.5, 0.5), (1.0, 0.0), (0.8, 0.15)][int(rng.integers(5))]
    params = RankParams(eta=eta, mu=mu)
    agg = dense_aggregates(d)
    leaks = dense_aggregate_leaks(dense_surfing(g, d, policy, eta, mu), agg)
    admit = (params.teleport == 0.0 and mu > 0.0 and agg.max() >= 1 and leaks.min() <= LEAK)
    return build_hyperlink(g, policy, d), build_factors(d, g), params, leaks, admit


def test_gate_admits_exactly_when_an_aggregate_leaks_at_most_LEAK():
    outcomes = {True: 0, False: 0}
    for seed in range(300):
        h, f, params, leaks, admit = gate_decision(np.random.default_rng(9000 + seed))
        if abs(leaks.min() - LEAK) < 1e-9:
            continue  # a tie that rounding may decide either way
        coarse = block_aggregation(h, f, params)
        assert (coarse is not None) == admit
        if coarse is not None:
            assert coarse.leak == pytest.approx(leaks.min(), abs=1e-12)
            assert coarse.exact == (f.K * f.K <= h.n)
        outcomes[admit] += 1
    assert min(outcomes.values()) >= 50


def coarse_instance(seed: int, policy: DanglingPolicy, cover: bool):
    """Weakly coupled, n <= 50 and K^2 > n: the corrector is the sparse one."""
    rng = np.random.default_rng(5100 + seed)
    n, k = int(rng.integers(30, 51)), int(rng.integers(7, 10))
    g, d = ncd_instance(rng, n, k, 0.01, cover=cover)
    h, f = build_hyperlink(g, policy, d), build_factors(d, g)
    coarse = block_aggregation(h, f, RankParams(eta=ETA, mu=MU))
    assert not coarse.exact
    return g, d, h, f, coarse, rng


@pytest.mark.parametrize("cover", [False, True], ids=["partition", "cover"])
@pytest.mark.parametrize("policy", list(DanglingPolicy))
@pytest.mark.parametrize("seed", range(3))
def test_sparse_coupled_chain_matches_dense_oracle(seed, policy, cover):
    g, d, h, f, coarse, rng = coarse_instance(seed, policy, cover)
    p = dense_surfing(g, d, policy, ETA, MU)
    E = np.eye(int(coarse.agg.max()) + 1)[dense_aggregates(d)]
    x = rng.random(g.n) + 0.01
    x /= x.sum()
    k = E.shape[1]
    f_t = coarse.coupled(x)
    got = (f_t[:k] + coarse.ae_t @ f_t[k:]).toarray().T
    np.testing.assert_allclose(got, E.T @ (x[:, None] * p) @ E, rtol=0, atol=1e-14)


@pytest.mark.parametrize("cover", [False, True], ids=["partition", "cover"])
@pytest.mark.parametrize("policy", list(DanglingPolicy))
@pytest.mark.parametrize("seed", range(3))
def test_sparse_corrections_reach_the_dense_stationary_vector(seed, policy, cover):
    g, d, h, f, _, _ = coarse_instance(seed, policy, cover)
    p = dense_surfing(g, d, policy, ETA, MU)
    tol = 1e-10
    got = rank(h, f, RankParams(eta=ETA, mu=MU, tol=tol, max_iter=100_000))
    assert got.converged and got.corrections > 0
    # 1e-14: rounding of the dense product against the factored one
    assert np.abs(got.scores @ p - got.scores).sum() <= tol + 1e-14
    second = np.sort(np.abs(np.linalg.eigvals(p)))[-2]
    want = dense_stationary(p, tol=1e-15, max_iter=1_000_000)
    assert np.abs(got.scores - want).sum() <= tol / (1.0 - second)


def stored_entries(coarse) -> int:
    """Array entries a corrector holds: every array, and every sparse
    matrix's data, indices and indptr."""
    total = 0
    for value in (getattr(coarse, field.name) for field in dataclasses.fields(coarse)):
        if sparse.issparse(value):
            total += value.nnz * 2 + value.indptr.size
        elif isinstance(value, np.ndarray):
            total += value.size
    return total


@pytest.mark.parametrize("policy", list(DanglingPolicy))
def test_sparse_corrector_stores_the_links_not_blocks_squared(policy):
    # 400 blocks of 10 nodes, about 5% of the nodes in a second block: a dense
    # coupled chain would hold k * K = 160,000 entries
    n, K = 4000, 400
    g, d = ncd_instance(np.random.default_rng(4), n, K, 0.01, cover=True)
    h, f = build_hyperlink(g, policy, d), build_factors(d, g)
    coarse = block_aggregation(h, f, RankParams(eta=ETA, mu=MU))
    assert not coarse.exact
    reach = h.reach.nnz if h.reach is not None else 0
    budget = g.indices.size + reach + f.R.nnz + f.A.nnz + n
    assert stored_entries(coarse) <= 2 * budget < K * K


@pytest.mark.parametrize("policy", list(DanglingPolicy))
def test_corrector_stays_linear_when_one_block_meets_every_aggregate(policy):
    """On n = 2,000 singleton blocks plus one all-node block, ``k = n`` and
    ``C`` holds ``k^2`` entries, yet the corrector stores at most 5 times
    the entries of the links, ``Q``, ``R`` and ``A`` plus ``n`` (measured
    4.13, against 1,503 when ``C``'s proximity part was formed pair by
    pair), and its build traces at most 10 MiB (measured 1.1, against 367)."""
    n = 2000
    g, d = singleton_cover_instance(np.random.default_rng(12), n)
    h, f = build_hyperlink(g, policy, d), build_factors(d, g)
    params = RankParams(eta=0.9, mu=0.1)
    coarse, peak = traced_peak(lambda: block_aggregation(h, f, params))
    assert coarse is not None and coarse.agg.max() + 1 == n
    reach = h.reach.nnz if h.reach is not None else 0
    budget = g.indices.size + reach + f.R.nnz + f.A.nnz + n
    assert stored_entries(coarse) <= 5 * budget
    assert peak <= 10 * 2**20
    got = rank(h, f, params)
    assert got.converged and got.corrections > 0


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ADVERSARIAL_KINDS), st.integers(8, 60), st.booleans(),
       st.sampled_from(list(DanglingPolicy)), st.integers(0, 2**32 - 1))
def test_corrector_stays_linear_on_adversarial_covers(kind, n, dangling, policy, seed):
    """Whenever a corrector is built on an adversarial cover, it stores at
    most 5 times the entries of the links, ``Q``, ``R`` and ``A`` plus
    ``n``, hub block included (measured at most 4.4 on 600 draws: ``"all-
    last"`` 4.4, ``"closed"`` 3.6, ``"hub"`` 3.2, ``"nested"`` 2.7; the
    all-node block listed first leaves one aggregate, and no corrector).
    On every draw the stages before it hold their exact sizes: ``A`` has
    ``B``'s entries, ``H``'s links the graph's, and ``R`` at most a node's
    own blocks plus its out-neighbours' blocks."""
    g, d = adversarial_cover(np.random.default_rng(seed), n, kind, dangling)
    h, f = build_hyperlink(g, policy, d), build_factors(d, g)
    assert f.A.nnz == d.B.nnz
    assert h.base_t.nnz == g.indices.size
    assert f.R.nnz <= d.B.nnz + (np.diff(g.indptr) * np.diff(d.B.indptr)).sum()
    coarse = block_aggregation(h, f, RankParams(eta=0.9, mu=0.1))
    if coarse is not None:
        reach = h.reach.nnz if h.reach is not None else 0
        budget = g.indices.size + reach + f.R.nnz + f.A.nnz + n
        assert stored_entries(coarse) <= 5 * budget


def large_instance(n: int, K: int, degree: int, eps: float, seed: int):
    """``degree`` links per node (fewer after duplicates collapse), each to a
    random node with probability ``eps`` and otherwise inside the node's
    block; block ``b`` holds the nodes ``b, b + K, ...``."""
    rng = np.random.default_rng(seed)
    src = np.repeat(np.arange(n), degree)
    home = src % K + K * rng.integers(0, n // K, src.size)
    dst = np.where(rng.random(src.size) < eps, rng.integers(0, n, src.size), home)
    g = Graph.from_edges([f"n{u}" for u in range(n)], np.stack([src, dst], axis=1))
    return g, Decomposition.from_members([np.arange(b, n, K) for b in range(K)], n=n)


def traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("degree", [11, 44])
def test_refusal_scratch_memory_is_linear_in_the_nodes_not_the_links(degree):
    """A refusal by the links reads them ``tokens.BATCH`` at a time: on
    20,000 nodes the traced peak is the same with 220k and 880k links,
    1.08 MB (0.34 MB with batches of 4096: about 14.5 bytes per node and 12
    per batch entry), against 4.2 and 14.4 MB when every link was gathered
    at once."""
    g, d = large_instance(20_000, 40, degree, 0.9, 7)
    h, f = build_hyperlink(g, DanglingPolicy.OWN_BLOCK, d), build_factors(d, g)
    assert h.base_t.nnz >= 200_000
    coarse, peak = traced_peak(lambda: block_aggregation(h, f, RankParams(eta=ETA, mu=MU)))
    assert coarse is None
    assert peak <= 24 * g.n + 20 * blockrank.tokens.BATCH


@pytest.mark.parametrize("policy", list(DanglingPolicy))
def test_corrector_build_peaks_within_16_bytes_per_stored_entry(policy):
    """Measured 10.62 (OWN_BLOCK) and 10.58 bytes per stored entry (110k
    of them), against 34.2 with ``np.unique`` keys and int64 indices."""
    g, d = large_instance(20_000, 40, 6, 0.01, 8)
    h, f = build_hyperlink(g, policy, d), build_factors(d, g)
    coarse, peak = traced_peak(lambda: block_aggregation(h, f, RankParams(eta=ETA, mu=MU)))
    assert coarse is not None
    assert peak <= 16 * stored_entries(coarse)


@pytest.mark.parametrize("policy", list(DanglingPolicy))
def test_corrected_iteration_keeps_three_vectors(policy):
    """Corrections and the step's scaling work in place and the last ``x``
    takes the change, so a corrected step holds ``x``, its result and one
    product or temporary: a traced peak of 3.02 vectors of ``n`` floats,
    against 5.01 when each of them made a new vector."""
    g, d = large_instance(20_000, 40, 6, 0.01, 8)
    h, f = build_hyperlink(g, policy, d), build_factors(d, g)
    params = RankParams(eta=ETA, mu=MU, tol=1e-12, max_iter=5)
    coarse = block_aggregation(h, f, params)
    step = _surfing_step(h, ETA, MU, 0.0, f)
    result, peak = traced_peak(
        lambda: power_iteration(step, h.n, params.tol, params.max_iter, coarse))
    assert result.corrections == 5
    assert peak <= 3.5 * 8 * g.n


def int64_copy(m):
    """``m`` (CSR or CSC) with int64 index arrays."""
    return type(m)((m.data, m.indices.astype(np.int64), m.indptr.astype(np.int64)),
                   shape=m.shape)


@pytest.mark.parametrize("cover", [False, True], ids=["partition", "cover"])
@pytest.mark.parametrize("policy", list(DanglingPolicy))
def test_operands_hold_int32_indices_and_rank_as_int64_copies_do(policy, cover):
    g, d = ncd_instance(np.random.default_rng(31), 300, 6, 0.01, cover=cover, dangling=0.05)
    h, f = build_hyperlink(g, policy, d), build_factors(d, g)
    params = RankParams(eta=ETA, mu=MU, tol=1e-12)
    coarse = block_aggregation(h, f, params)
    r_t = _surfing_step(h, ETA, MU, 0.0, f).__closure__  # the step's R^T
    r_t = next(c.cell_contents for c in r_t if isinstance(c.cell_contents, sparse.csr_array))
    operands = [h.base_t, r_t, coarse.runs, coarse.f, coarse.ae_t]
    operands += [h.reach] if policy is DanglingPolicy.OWN_BLOCK else []
    # under UNIFORM_ALL the hub's row of runs and f and its column of ae_t are among them
    hub = int(policy is DanglingPolicy.UNIFORM_ALL)
    assert h.dangling.size > 0 and coarse.ae_t.shape[1] == f.K + hub
    for m in operands:
        assert m.indices.dtype == np.int32 and m.indptr.dtype == np.int32

    wide_h = dataclasses.replace(
        h, base_t=int64_copy(h.base_t), reach=h.reach if h.reach is None else int64_copy(h.reach))
    wide_f = ProximityFactors(R=int64_copy(f.R), A=int64_copy(f.A))
    got, want = rank(h, f, params), rank(wide_h, wide_f, params)
    assert got.corrections > 0
    assert (got.iterations, got.corrections) == (want.iterations, want.corrections)
    assert np.array_equal(got.scores, want.scores)


def test_the_step_and_the_corrector_read_the_stored_r_in_place():
    g, d = ncd_instance(np.random.default_rng(31), 300, 6, 0.01, cover=True, dangling=0.05)
    h, f = build_hyperlink(g, DanglingPolicy.OWN_BLOCK, d), build_factors(d, g)
    stored = [a.copy() for a in (f.R.data, f.R.indices, f.R.indptr)]
    r_t = _surfing_step(h, ETA, MU, 0.0, f).__closure__  # the step's R^T
    r_t = next(c.cell_contents for c in r_t if isinstance(c.cell_contents, sparse.csr_array))
    assert np.shares_memory(r_t.data, f.R.data) and np.shares_memory(r_t.indices, f.R.indices)

    params = RankParams(eta=ETA, mu=MU, tol=1e-12)
    assert block_aggregation(h, f, params) is not None
    assert rank(h, f, params).corrections > 0
    for got, want in zip((f.R.data, f.R.indices, f.R.indptr), stored):
        assert np.array_equal(got, want)


def reference_link_leaks(g: Graph, d: Decomposition, policy: DanglingPolicy) -> np.ndarray:
    """Each aggregate's leak under ``H`` (one minus the share of the uniform
    vector on it that one step of ``H`` keeps inside), summed link by link in
    link order (by target, then source), and dangling node by dangling node."""
    agg = dense_aggregates(d)
    size = np.bincount(agg)
    targets = [set(out_neighbors(g, u).tolist()) for u in range(g.n)]
    blocks_of = [set(blocks) for blocks in node_blocks(d)]
    links, back = np.zeros(size.size), np.zeros(size.size)
    for v in range(g.n):
        for u in range(g.n):
            if v in targets[u] and agg[u] == agg[v]:
                links[agg[v]] += 1.0 / len(targets[u])
    for u in (u for u in range(g.n) if not targets[u]):
        if policy is DanglingPolicy.UNIFORM_ALL:
            back[agg[u]] += size[agg[u]] / g.n
        else:  # the union of u's blocks holds u's whole aggregate
            union = [v for v in range(g.n) if blocks_of[v] & blocks_of[u]]
            back[agg[u]] += 1.0 / len(union) * size[agg[u]]
    return 1.0 - (links + back) / size


@st.composite
def gate_cases(draw):
    """A weakly or strongly coupled partition or cover, a dangling policy and
    a model."""
    n = draw(st.integers(20, 60))
    k = draw(st.integers(1, 5))
    eps = draw(st.sampled_from([0.0, 0.002, 0.01, 0.05, 0.2, 0.6]))
    seed, cover = draw(st.integers(0, 2**32 - 1)), draw(st.booleans())
    g, d = ncd_instance(np.random.default_rng(seed), n, k, eps, cover=cover, dangling=0.05)
    policy = draw(st.sampled_from(list(DanglingPolicy)))
    eta, mu = draw(st.sampled_from([(ETA, MU), (0.95, 0.05), (0.99, 0.01), (0.8, 0.15)]))
    return g, d, policy, RankParams(eta=eta, mu=mu)


@settings(max_examples=150, deadline=None)
@given(gate_cases())
def test_batched_link_leaks_and_gate_match_the_per_link_reference(case):
    g, d, policy, params = case
    h, f = build_hyperlink(g, policy, d), build_factors(d, g)
    agg = dense_aggregates(d)
    want = reference_link_leaks(g, d, policy)
    leaks = dense_aggregate_leaks(dense_surfing(g, d, policy, params.eta, params.mu), agg)
    admit = params.teleport == 0.0 and agg.max() >= 1 and leaks.min() <= LEAK
    outcomes = []
    for batch in (blockrank.tokens.BATCH, 3, 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(blockrank.tokens, "BATCH", batch)
            got = _link_leaks(h, agg.astype(np.int32), np.bincount(agg))
            coarse = block_aggregation(h, f, params)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        if abs(leaks.min() - LEAK) > 1e-9:  # a tie that rounding may decide either way
            assert (coarse is not None) == admit
        outcomes.append((got.tobytes(), None if coarse is None else coarse.leak))
    assert outcomes[0] == outcomes[1] == outcomes[2]  # summed in link order at any batch size
