"""Decompositions, proximity factors, and the block indicator matrix."""

from __future__ import annotations

import numpy as np
import pytest

from blockrank import (
    DanglingPolicy,
    Decomposition,
    FactorForm,
    Graph,
    build_factors,
    build_hyperlink,
    indicator,
    materialize_m,
    parse_blocks,
    parse_edge_list,
)
from blockrank.errors import (
    CapExceededError,
    ConfigurationError,
    CoverageError,
    ParseError,
)
from blockrank.graph import MATERIALIZE_CAP

from helpers import (
    G4_M,
    G4_W,
    dense_hyperlink,
    direct_proximity,
    members,
    node_blocks,
    random_cover,
    random_graph,
    random_instance,
    random_partition,
)


class TestParseBlocks:
    def test_reference_partition(self, g4, g4_decomp):
        assert g4_decomp.K == 2
        assert g4_decomp.kind is FactorForm.PARTITION
        assert g4_decomp.block_labels == ("B1", "B2")
        assert [m.tolist() for m in members(g4_decomp)] == [[0, 1], [2, 3]]

    def test_overlap_makes_a_cover(self):
        g = Graph.from_edges(["a", "b", "c"], [(0, 1), (1, 2), (2, 0)])
        d = parse_blocks("a B1\na B2\nb B1\nc B2", g)
        assert d.K == 2
        assert d.kind is FactorForm.COVER
        assert node_blocks(d)[0] == (0, 1)

    def test_uncovered_node_rejected(self, g4):
        with pytest.raises(CoverageError, match="d"):
            parse_blocks("a B1\nb B1\nc B2", g4)

    def test_unknown_node_label_rejected(self, g4):
        with pytest.raises(CoverageError, match="zz"):
            parse_blocks("a B1\nzz B1\nb B1\nc B2\nd B2", g4)

    def test_malformed_line_names_line_number(self, g4):
        with pytest.raises(ParseError, match="line 2"):
            parse_blocks("a B1\nb\nc B2\nd B2", g4)

    def test_comments_skipped_and_duplicates_collapse(self, g4):
        d = parse_blocks("# cover\na B1\na B1\nb B1\nc B2\nd B2", g4)
        assert d.kind is FactorForm.PARTITION
        assert members(d)[0].tolist() == [0, 1]

    def test_empty_blocks_file_rejected(self, g4):
        with pytest.raises(ParseError):
            parse_blocks("# nothing\n", g4)

    @pytest.mark.parametrize("text", ["c Z\nd Z\na A\nb A", "c \u00c9\r\nd Z\na \u00c9\nb Z\n"])
    def test_utf8_bytes_parse_as_their_text(self, g4, text):
        d, want = parse_blocks(text.encode(), g4), parse_blocks(text, g4)
        assert d.block_labels == want.block_labels
        assert (d.B != want.B).nnz == 0

    def test_block_ids_follow_first_appearance(self, g4):
        d = parse_blocks("c Z\nd Z\na A\nb A", g4)
        assert d.block_labels == ("Z", "A")


def proximal_rows(f) -> list[set[int]]:
    """Row patterns of ``R``: the proximal blocks of each node."""
    r = f.R.tocsr()
    return [set(r.indices[lo:hi].tolist()) for lo, hi in zip(r.indptr, r.indptr[1:])]


class TestProximalSet:
    def test_reference_values(self, g4, g4_decomp):
        assert proximal_rows(build_factors(g4_decomp, g4)) == [{0}, {0, 1}, {1}, {0, 1}]

    def test_dangling_node_keeps_all_its_blocks(self):
        g = Graph.from_edges(["u", "v", "w"], [(1, 0), (2, 0)])
        d = Decomposition.from_members([[0, 1], [0, 2]], n=3)
        assert proximal_rows(build_factors(d, g))[0] == {0, 1}

    def test_out_of_range_rejected(self, g4):
        # a block naming node 4 of the 4-node graph gets no proximal row
        d = Decomposition.from_members([[0, 1], [2, 3, 4]], n=5)
        with pytest.raises(ConfigurationError):
            build_factors(d, g4)


class TestBuildFactors:
    def test_reference_factors(self, g4, g4_decomp):
        f = build_factors(g4_decomp, g4)  # the partition form, 0/1 rows of A
        expected_r = np.array([
            [0.50, 0.00],
            [0.25, 0.25],
            [0.00, 0.50],
            [0.25, 0.25],
        ])
        expected_a = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        np.testing.assert_allclose(f.R.toarray(), expected_r, atol=1e-15)
        np.testing.assert_array_equal(f.A.toarray(), expected_a)
        assert np.diff(f.R.tocsr().indptr).tolist() == [1, 2, 1, 2]

    def test_single_block(self):
        g = Graph.from_edges(["a", "b", "c"], [(0, 1), (1, 2), (2, 0)])
        d = Decomposition.from_members([[0, 1, 2]], n=3)
        f = build_factors(d, g)
        np.testing.assert_allclose(f.R.toarray(), np.full((3, 1), 1 / 3), atol=1e-15)
        np.testing.assert_array_equal(f.A.toarray(), np.ones((1, 3)))

    def test_partition_through_cover_form_gives_same_product(self, g4, g4_decomp):
        part = build_factors(g4_decomp, g4)
        cov = build_factors(g4_decomp, g4, form=FactorForm.COVER)
        np.testing.assert_allclose(cov.A.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            materialize_m(cov), materialize_m(part), rtol=0, atol=1e-14
        )

    def test_cover_factors_are_individually_stochastic(self):
        rng = np.random.default_rng(8251)
        g = random_graph(rng, 25, 0.2)
        d = random_cover(rng, 25)
        f = build_factors(d, g)
        np.testing.assert_allclose(f.R.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(f.A.sum(axis=1), 1.0, atol=1e-12)

    def test_cover_cannot_take_partition_path(self):
        g = Graph.from_edges(["a", "b"], [(0, 1), (1, 0)])
        d = Decomposition.from_members([[0, 1], [1]], n=2)
        with pytest.raises(ConfigurationError):
            build_factors(d, g, form=FactorForm.PARTITION)

    def test_mismatched_sizes_rejected(self, g4):
        d = Decomposition.from_members([[0, 1, 2]], n=3)
        with pytest.raises(ConfigurationError):
            build_factors(d, g4)

    @pytest.mark.parametrize("members", [[[0, 1], [1]], [[0], [1]]], ids=["cover", "partition"])
    def test_form_that_is_not_a_factor_form_rejected(self, members):
        # "partition" would otherwise pass the cover check and take the cover form
        g = Graph.from_edges(["a", "b"], [(0, 1), (1, 0)])
        d = Decomposition.from_members(members, n=2)
        with pytest.raises(ConfigurationError, match="FactorForm"):
            build_factors(d, g, form="partition")


class TestMaterialize:
    def test_reference_proximity_matrix(self, g4, g4_decomp):
        np.testing.assert_allclose(
            materialize_m(build_factors(g4_decomp, g4)), G4_M, atol=1e-15
        )

    def test_single_block_is_uniform(self):
        g = Graph.from_edges(["a", "b", "c"], [(0, 1)])
        d = Decomposition.from_members([[0, 1, 2]], n=3)
        np.testing.assert_allclose(
            materialize_m(build_factors(d, g)), np.full((3, 3), 1 / 3), atol=1e-15
        )

    def test_overlapping_blocks_sum_contributions(self):
        # u sits in both blocks and has no out-links; its row must merge
        # the two block spreads: [1/2, 1/4, 1/4].
        g = Graph.from_edges(["u", "v", "w"], [(1, 0), (2, 0)])
        d = Decomposition.from_members([[0, 1], [0, 2]], n=3)
        m = materialize_m(build_factors(d, g))
        np.testing.assert_allclose(m[0], [0.5, 0.25, 0.25], atol=1e-15)

    def test_cap_refusal(self):
        n = MATERIALIZE_CAP + 1
        g = Graph.from_edges([f"n{i}" for i in range(n)], [])
        with pytest.raises(CapExceededError):
            materialize_m(build_factors(Decomposition.from_members([range(n)], n=n), g))


class TestIndicator:
    def test_reference_indicator_exact(self, g4, g4_decomp):
        w = indicator(build_factors(g4_decomp, g4))
        np.testing.assert_array_equal(w.W, G4_W)
        assert (w.W > 0).all()

    def test_disjoint_cycles_give_diagonal_pattern(self):
        g = parse_edge_list("a b\nb a\nc d\nd c")
        d = parse_blocks("a B1\nb B1\nc B2\nd B2", g)
        w = indicator(build_factors(d, g))
        np.testing.assert_array_equal(w.W > 0, np.eye(2, dtype=bool))

    def test_single_block(self):
        g = Graph.from_edges(["a", "b"], [(0, 1), (1, 0)])
        d = Decomposition.from_members([[0, 1]], n=2)
        w = indicator(build_factors(d, g))
        np.testing.assert_allclose(w.W, [[1.0]], atol=1e-15)


class TestDecompositionConstruction:
    def test_empty_block_rejected(self):
        with pytest.raises(CoverageError):
            Decomposition.from_members([[0], []], n=1)

    def test_out_of_range_member_rejected(self):
        with pytest.raises(CoverageError):
            Decomposition.from_members([[0, 5]], n=3)

    def test_no_blocks_rejected(self):
        with pytest.raises(CoverageError, match="no blocks"):
            Decomposition.from_members([], n=2)

    def test_uncovered_node_rejected(self):
        with pytest.raises(CoverageError, match=r"not covered by any block: \[1\]"):
            Decomposition.from_members([[0, 2]], n=3)

    def test_kind_derivation(self):
        part = Decomposition.from_members([[0], [1]], n=2)
        cover = Decomposition.from_members([[0, 1], [1]], n=2)
        assert part.kind is FactorForm.PARTITION
        assert cover.kind is FactorForm.COVER


SEED_DECOMP = 47023


class TestFactorProperties:
    def test_factorization_matches_direct_construction(self):
        rng = np.random.default_rng(SEED_DECOMP)
        for i in range(40):
            n = int(rng.integers(2, 120))
            g = random_graph(rng, n, 0.1)
            d = random_cover(rng, n) if i % 2 else random_partition(rng, n)
            m = materialize_m(build_factors(d, g))
            np.testing.assert_allclose(m, direct_proximity(g, d), rtol=0, atol=1e-14)

    def test_product_rows_are_stochastic(self):
        rng = np.random.default_rng(SEED_DECOMP + 1)
        for i in range(40):
            n = int(rng.integers(2, 80))
            g = random_graph(rng, n, 0.2)
            d = random_cover(rng, n) if i % 2 else random_partition(rng, n)
            m = materialize_m(build_factors(d, g))
            assert np.abs(m.sum(axis=1) - 1.0).max() <= 1e-12

    def test_partition_indicator_diagonal_is_positive(self):
        rng = np.random.default_rng(SEED_DECOMP + 2)
        for _ in range(40):
            g, d = random_instance(rng, 2, 30)
            w = indicator(build_factors(d, g))
            assert w.W.diagonal().min() > 0

    def test_both_forms_share_the_indicator_pattern(self):
        rng = np.random.default_rng(SEED_DECOMP + 3)
        for _ in range(40):
            g, d = random_instance(rng, 2, 30)
            w_part = indicator(build_factors(d, g, form=FactorForm.PARTITION))
            w_cov = indicator(build_factors(d, g, form=FactorForm.COVER))
            np.testing.assert_array_equal(w_part.W > 0, w_cov.W > 0)

    def test_factor_shapes_never_degenerate(self):
        rng = np.random.default_rng(SEED_DECOMP + 4)
        for i in range(40):
            n = int(rng.integers(2, 60))
            g = random_graph(rng, n, 0.15)
            d = random_cover(rng, n) if i % 2 else random_partition(rng, n)
            f = build_factors(d, g)
            # every node keeps at least one proximal block; every block keeps
            # its members, so no zero rows in R and no zero columns in A
            assert np.diff(f.R.tocsr().indptr).min() >= 1
            assert (np.asarray(np.abs(f.A).sum(axis=0)) > 0).all()

    def test_zero_proximity_entry_dominates_hyperlink(self):
        # with block-local dangling rows, H can never link where the
        # proximity matrix is zero
        rng = np.random.default_rng(SEED_DECOMP + 5)
        for i in range(40):
            n = int(rng.integers(2, 60))
            g = random_graph(rng, n, 0.1)
            d = random_cover(rng, n) if i % 2 else random_partition(rng, n)
            m = materialize_m(build_factors(d, g))
            dense_h = dense_hyperlink(g, DanglingPolicy.OWN_BLOCK, d)
            assert not ((m == 0) & (dense_h != 0)).any()
            built = build_hyperlink(g, DanglingPolicy.OWN_BLOCK, d).to_dense()
            assert not ((m == 0) & (built != 0)).any()
