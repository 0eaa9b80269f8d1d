"""Aggregation-disaggregation corrections of the teleport-free iteration.

The corrected iteration is checked against a dense oracle built from the
definition of ``P``; the gate is checked against the dense block leak and
against each of its conditions; plain runs stay bit-identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from blockrank import (
    DanglingPolicy,
    Decomposition,
    Graph,
    RankParams,
    build_factors,
    build_hyperlink,
    parse_blocks,
    parse_edge_list,
    rank,
)
from blockrank.errors import ReducibleModelError
from blockrank.graph import hyperlink_apply
from blockrank.ranker import LEAK, block_aggregation

from helpers import (
    dense_aggregates,
    dense_corrected_iteration,
    dense_leak,
    dense_surfing,
    ncd_instance,
    reference_power_iteration,
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
    leak = dense_leak(p, agg)

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


GATE_OFF = {  # n, blocks, eps, eta, mu
    "teleport": (120, 4, 0.005, 0.8, 0.15),
    "mu-zero": (120, 4, 0.005, 1.0, 0.0),
    "blocks-squared-above-n": (60, 8, 0.005, ETA, MU),
    "leak-above-LEAK": (120, 4, 0.5, ETA, MU),
}


@pytest.mark.parametrize("policy", list(DanglingPolicy))
@pytest.mark.parametrize("case", list(GATE_OFF))
def test_gate_off_runs_are_bit_identical_to_the_plain_kernel(case, policy):
    n, k, eps, eta, mu = GATE_OFF[case]
    g, d = ncd_instance(np.random.default_rng(77), n, k, eps, dangling=0.05)
    h, f = build_hyperlink(g, policy, d), build_factors(d, g)
    # each case fails exactly the condition it is named after
    leak = dense_leak(dense_surfing(g, d, policy, ETA, MU), dense_aggregates(d))
    assert (leak > LEAK) == (case == "leak-above-LEAK")
    assert (k * k > n) == (case == "blocks-squared-above-n")

    params = RankParams(eta=eta, mu=mu, tol=1e-12, max_iter=3000)
    assert block_aggregation(h, f, params) is None
    got = rank(h, f, params)
    scores, iterations = reference_power_iteration(plain_step(h, f, params), g.n, params.tol,
                                                   params.max_iter)
    assert got.corrections == 0
    assert got.iterations == iterations
    assert np.array_equal(got.scores, scores)
