"""Edge-list parsing and the hyperlink operator."""

from __future__ import annotations

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
    build_hyperlink,
    cli,
    hyperlink_apply,
    parse_edge_list,
)
from blockrank.errors import CapExceededError, ConfigurationError, DimensionError, ParseError
from blockrank.graph import ones_at
from blockrank.tokens import Source, _windows

from helpers import dense_hyperlink, label_ids, out_neighbors, random_graph, random_partition


class TestParseEdgeList:
    def test_two_node_cycle(self):
        g = parse_edge_list("a b\nb a")
        assert g.n == 2
        assert out_neighbors(g, 0).tolist() == [1]
        assert out_neighbors(g, 1).tolist() == [0]
        assert np.flatnonzero(g.out_degree == 0).tolist() == []

    def test_duplicate_edges_collapse(self):
        g = parse_edge_list("a b\na b\nb c")
        assert g.n == 3
        assert g.out_degree.tolist() == [1, 1, 0]
        assert np.flatnonzero(g.out_degree == 0).tolist() == [2]

    def test_reference_graph(self, g4):
        assert g4.n == 4
        assert g4.out_degree.tolist() == [1, 2, 1, 1]
        assert np.flatnonzero(g4.out_degree == 0).tolist() == []

    def test_ids_follow_first_appearance(self):
        g = parse_edge_list("x y\nz x")
        assert g.labels == ("x", "y", "z")
        assert label_ids(g) == {"x": 0, "y": 1, "z": 2}

    def test_comments_and_blank_lines_skipped(self):
        g = parse_edge_list("# heading\n\na b\n  # indented comment\nb a\n")
        assert g.n == 2

    def test_malformed_line_names_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("a b\na b c\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError, match="empty graph"):
            parse_edge_list("# only comments\n\n")

    def test_peak_memory_per_token(self):
        """No Python string per token, and one window's temporaries: the
        traced peak of parsing a seeded 1.29 MB ASCII edge list (five
        windows) stays under 52 bytes per token.  41.8 were measured, of
        which 12.9 are the id buffer reserved at 2 bytes per code (4 bytes
        per token are written); 48.5 when the whole text was one window,
        107 with a Python string per token.  The same holds with one
        non-ASCII label on line 1 (42.9 measured), which took the whole
        text to 4 bytes per character when it was read as code points
        (71.3)."""
        rng = np.random.default_rng(11)
        src, dst = rng.integers(0, 20_000, (2, 100_000))
        edges = "".join(f"v{u}\tv{v}\n" for u, v in zip(src.tolist(), dst.tolist()))
        rest = edges[edges.index("\t"):]
        for text in (edges, "v\u00e9" + rest, "v\U0001f600" + rest):
            tracemalloc.start()
            try:
                parse_edge_list(text)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 52 * 2 * src.size

    def test_file_is_read_a_window_at_a_time(self, tmp_path):
        """The CLI's loader reads the 1.29 MB edge list of
        :meth:`test_peak_memory_per_token` from disk into one window's
        buffer: no allocation holds the text, so its traced peak is that of
        parsing the same bytes already in memory (not a text's size more),
        and it stays under 39.6 bytes per token, 33.0 measured plus 20%
        (40.0 when the whole file was read first)."""
        rng = np.random.default_rng(11)
        src, dst = rng.integers(0, 20_000, (2, 100_000))
        path = tmp_path / "peak.edges"
        path.write_text("".join(f"v{u}\tv{v}\n" for u, v in zip(src.tolist(), dst.tolist())))
        data = path.read_bytes()
        peaks = []
        for parse in (lambda: parse_edge_list(data), lambda: cli._parse(str(path), parse_edge_list)):
            tracemalloc.start()
            try:
                parse()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + len(data) // 2
        assert peaks[1] <= 39.6 * 2 * src.size

    @pytest.mark.parametrize("text", ["a b\nb c\n", "\u00e9 a\r\na \U0001f600\n", "a b"])
    def test_utf8_bytes_parse_as_their_text(self, text):
        g, b = parse_edge_list(text.encode()), parse_edge_list(text)
        assert g.labels == b.labels
        assert np.array_equal(g.indptr, b.indptr) and np.array_equal(g.indices, b.indices)

    def test_bytes_that_are_not_utf8_rejected(self):
        with pytest.raises(ParseError, match="not valid UTF-8 at byte 4"):
            parse_edge_list(b"a b\n\xff a\n")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([b"a", b"\n", b" ", b"\xc3\xa9", b"\xe3\x80\x80",
                                     b"\xf0\x9f\x98\x80", b"\xff", b"\x80", b"\xe2", b"\xf0\x9f",
                                     b"\xed\xa0\x80", b"\xc0\xaf"]), max_size=16),
           st.integers(1, 6))
    def test_utf8_check_names_the_byte_that_decode_names(self, pieces, window):
        """Bytes are checked a window at a time; the offset of the first
        invalid byte is the one ``bytes.decode`` reports for the whole."""
        text = b"".join(pieces)
        try:
            text.decode("utf-8")
            want = None
        except UnicodeDecodeError as exc:
            want = f"not valid UTF-8 at byte {exc.start}"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(blockrank.tokens, "WINDOW", window)
            try:
                list(_windows(Source.of(text)))  # the parsers' reader checks each window
                got = None
            except ParseError as exc:
                got = str(exc)
        assert got == want

    def test_self_loop_kept_and_counted(self):
        g = parse_edge_list("a a\na b")
        assert g.out_degree[0] == 2
        assert out_neighbors(g, 0).tolist() == [0, 1]

    def test_out_degree_matches_csr_rows(self):
        g = parse_edge_list("a b\nb a\nb c\nc d\nd a")
        for u in range(g.n):
            assert g.out_degree[u] == out_neighbors(g, u).size


class TestFromEdges:
    def test_caller_edges_left_as_they_were(self):
        edges = np.array([[1, 0], [0, 1], [1, 0]], dtype=np.int32)
        g = Graph.from_edges(["a", "b"], edges)
        assert edges.tolist() == [[1, 0], [0, 1], [1, 0]]
        assert g.indices.tolist() == [1, 0]

    def test_no_labels_rejected(self):
        with pytest.raises(ParseError, match="empty graph"):
            Graph.from_edges([], [])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            Graph.from_edges(["a", "b", "a"], [(0, 1)])

    @pytest.mark.parametrize("labels", [["\u00e9", "b", "\u00e9"], ["a b", "", "a b"],
                                        ["abcdefghi", "abcdefgh", "abcdefghi"]])
    def test_duplicate_labels_of_any_characters_rejected(self, labels):
        with pytest.raises(ParseError, match="duplicate"):
            Graph.from_edges(labels, [(0, 1)])

    @pytest.mark.parametrize("edge", [(0, 2), (-1, 0)])
    def test_edge_outside_node_range_rejected(self, edge):
        with pytest.raises(DimensionError, match=rf"edge \({edge[0]}, {edge[1]}\)"):
            Graph.from_edges(["a", "b"], [(0, 1), edge])


class TestOnesAt:
    @pytest.mark.parametrize("shape, pairs", [
        ((1, 1), []),
        ((1, 1), [(0, 0), (0, 0)]),
        ((4, 4), []),
        ((4, 4), [(2, 1), (0, 3), (2, 1), (0, 0), (2, 1), (3, 3)]),  # rows 1, columns 2 empty
        ((6, 3), [(5, 2), (0, 0), (5, 2), (3, 0), (0, 0), (0, 2)]),  # n x K
        ((3, 6), [(2, 5), (2, 0), (2, 5), (0, 4)]),
    ])
    def test_matches_scipy_canonical_csr(self, shape, pairs):
        rows, cols = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        want = sparse.coo_array((np.ones(rows.size), (rows, cols)), shape=shape).tocsr()
        want.sum_duplicates()
        want.data[:] = 1.0
        got = ones_at(rows, cols, shape)
        assert got.shape == shape and got.has_canonical_format
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)

    @pytest.mark.parametrize("shape", [(50, 50), (200, 7)])
    def test_random_pairs_with_repeats(self, shape):
        rng = np.random.default_rng(SEED_STOCHASTIC + 11)
        rows, cols = rng.integers(0, shape[0], 600), rng.integers(0, shape[1], 600)
        dense = np.zeros(shape)
        dense[rows, cols] = 1.0
        got = ones_at(rows, cols, shape)
        assert np.array_equal(got.toarray(), dense) and got.has_canonical_format
        assert all(np.all(np.diff(got.indices[lo:hi]) > 0)
                   for lo, hi in zip(got.indptr, got.indptr[1:]))


class TestBuildHyperlink:
    def test_reference_rows(self, g4, g4_decomp):
        expected = np.array([
            [0.0, 1.0, 0.0, 0.0],
            [0.5, 0.0, 0.5, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, 0.0],
        ])
        for policy, decomp in [
            (DanglingPolicy.OWN_BLOCK, g4_decomp),
            (DanglingPolicy.UNIFORM_ALL, None),
        ]:
            h = build_hyperlink(g4, policy, decomp)
            np.testing.assert_allclose(h.to_dense(), expected, atol=1e-15)

    def test_single_node_uniform_all(self):
        g = Graph.from_edges(["a"], [])
        h = build_hyperlink(g, DanglingPolicy.UNIFORM_ALL)
        np.testing.assert_array_equal(h.to_dense(), [[1.0]])

    def test_dangling_rows_uniform_over_own_block(self):
        g = Graph.from_edges(["a", "b", "c"], [(0, 1)])
        d = Decomposition.from_members([[0, 1], [2]], n=3)
        h = build_hyperlink(g, DanglingPolicy.OWN_BLOCK, d)
        dense = h.to_dense()
        np.testing.assert_allclose(dense[1], [0.5, 0.5, 0.0], atol=1e-15)
        np.testing.assert_allclose(dense[2], [0.0, 0.0, 1.0], atol=1e-15)

    def test_dangling_row_spans_block_union_in_cover(self):
        g = Graph.from_edges(["u", "v", "w"], [(1, 0), (2, 0)])
        d = Decomposition.from_members([[0, 1], [0, 2]], n=3)
        h = build_hyperlink(g, DanglingPolicy.OWN_BLOCK, d)
        np.testing.assert_allclose(h.to_dense()[0], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_own_block_requires_decomposition(self, g4):
        with pytest.raises(ConfigurationError):
            build_hyperlink(g4, DanglingPolicy.OWN_BLOCK, None)

    def test_decomposition_must_cover_the_graph(self, g4):
        other = Decomposition.from_members([[0, 1, 2]], n=3)
        with pytest.raises(ConfigurationError):
            build_hyperlink(g4, DanglingPolicy.OWN_BLOCK, other)

    def test_policy_that_is_not_a_dangling_policy_rejected(self):
        # its value "block" would otherwise be read as UNIFORM_ALL
        g = Graph.from_edges(["a", "b", "c"], [(0, 1), (1, 2)])
        d = Decomposition.from_members([[0, 1], [2]], n=3)
        with pytest.raises(ConfigurationError, match="DanglingPolicy"):
            build_hyperlink(g, "block", d)

    def test_uniform_all_dangling_row(self):
        g = Graph.from_edges(["a", "b", "c"], [(0, 1), (1, 0)])
        h = build_hyperlink(g, DanglingPolicy.UNIFORM_ALL)
        np.testing.assert_allclose(h.to_dense()[2], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_to_dense_refuses_above_the_cap(self):
        n = 2001  # one past the 2000-node materialization cap
        g = Graph.from_edges([f"n{i}" for i in range(n)], [(i, (i + 1) % n) for i in range(n)])
        with pytest.raises(CapExceededError, match="cap 2000"):
            build_hyperlink(g, DanglingPolicy.UNIFORM_ALL).to_dense()


class TestHyperlinkApply:
    def test_basis_vector_selects_row(self, g4, g4_decomp):
        h = build_hyperlink(g4, DanglingPolicy.OWN_BLOCK, g4_decomp)
        np.testing.assert_allclose(
            hyperlink_apply(h, np.array([1.0, 0, 0, 0])), [0, 1, 0, 0], atol=1e-15
        )

    def test_uniform_is_fixed_point_on_cycle(self):
        g = parse_edge_list("a b\nb a")
        h = build_hyperlink(g, DanglingPolicy.UNIFORM_ALL)
        x = np.array([0.5, 0.5])
        np.testing.assert_allclose(hyperlink_apply(h, x), x, atol=1e-15)

    def test_uniform_all_spreads_dangling_mass(self):
        g = Graph.from_edges(["a", "b", "c"], [(0, 1), (1, 0)])
        h = build_hyperlink(g, DanglingPolicy.UNIFORM_ALL)
        y = hyperlink_apply(h, np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(y, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_length_mismatch_rejected(self, g4, g4_decomp):
        h = build_hyperlink(g4, DanglingPolicy.OWN_BLOCK, g4_decomp)
        with pytest.raises(DimensionError):
            hyperlink_apply(h, np.ones(3) / 3)


SEED_STOCHASTIC = 202401


class TestOperatorProperties:
    def test_every_row_sums_to_one(self):
        rng = np.random.default_rng(SEED_STOCHASTIC)
        for _ in range(30):
            n = int(rng.integers(2, 60))
            g = random_graph(rng, n, 0.15)
            d = random_partition(rng, n)
            for policy, decomp in [
                (DanglingPolicy.OWN_BLOCK, d),
                (DanglingPolicy.UNIFORM_ALL, None),
            ]:
                dense = build_hyperlink(g, policy, decomp).to_dense()
                assert np.abs(dense.sum(axis=1) - 1.0).max() <= 1e-12

    def test_apply_matches_dense_product(self):
        rng = np.random.default_rng(SEED_STOCHASTIC + 1)
        g = random_graph(rng, 150, 0.05)
        d = random_partition(rng, 150)
        for policy, decomp in [
            (DanglingPolicy.OWN_BLOCK, d),
            (DanglingPolicy.UNIFORM_ALL, None),
        ]:
            h = build_hyperlink(g, policy, decomp)
            dense = dense_hyperlink(g, policy, d)
            for _ in range(100):
                x = rng.random(g.n)
                x /= x.sum()
                np.testing.assert_allclose(
                    hyperlink_apply(h, x), x @ dense, rtol=0, atol=1e-14
                )

    def test_apply_preserves_probability_mass(self):
        rng = np.random.default_rng(SEED_STOCHASTIC + 2)
        g = random_graph(rng, 40, 0.1)
        d = random_partition(rng, 40)
        h = build_hyperlink(g, DanglingPolicy.OWN_BLOCK, d)
        for _ in range(20):
            x = rng.random(40)
            x /= x.sum()
            assert abs(hyperlink_apply(h, x).sum() - 1.0) <= 1e-12

    def test_parse_is_line_order_insensitive_per_label(self):
        rng = np.random.default_rng(SEED_STOCHASTIC + 3)
        lines = ["a b", "b a", "b c", "c d", "d a"]
        g_ref = parse_edge_list("\n".join(lines))
        for _ in range(10):
            shuffled = list(lines)
            rng.shuffle(shuffled)
            g = parse_edge_list("\n".join(shuffled))
            assert set(g.labels) == set(g_ref.labels)
            ref_ids, ids = label_ids(g_ref), label_ids(g)
            for label in g_ref.labels:
                ref_out = {g_ref.labels[v] for v in out_neighbors(g_ref, ref_ids[label])}
                out = {g.labels[v] for v in out_neighbors(g, ids[label])}
                assert out == ref_out
