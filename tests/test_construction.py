"""Whole-array construction against the per-node reference builders.

Parsing, the graph and decomposition containers, the hyperlink operator and
the proximity factors are built with a few sparse products; every property
here demands bit-identical output from the loop constructions they replaced
(kept in ``helpers``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockrank.decomp
from blockrank import (
    DanglingPolicy,
    Decomposition,
    FactorForm,
    Graph,
    build_factors,
    build_hyperlink,
    parse_blocks,
    parse_edge_list,
    proximal_set,
)
from blockrank.errors import BlockRankError, ParseError
from blockrank.graph import LINE_BREAKS, WHITESPACE

from helpers import (
    dense_hyperlink,
    first_appearance,
    random_cover,
    random_graph,
    random_partition,
    reference_adjacency,
    reference_factors,
    reference_hyperlink,
    reference_parse_blocks,
    reference_parse_pairs,
    reference_proximal_sets,
)

SETTINGS = settings(max_examples=150, deadline=None)


def assert_same_csr(got, want) -> None:
    assert got.shape == want.shape
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr


@st.composite
def instances(draw) -> tuple[Graph, Decomposition]:
    """Random graph (self-loops, duplicate edges, dangling nodes) with a
    random partition or overlapping cover given as lists with repeats."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=40))
    k = draw(st.integers(1, 5))
    pairs = list(enumerate(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))))
    pairs += draw(st.lists(st.tuples(node, st.integers(0, k - 1)), max_size=2 * n))
    members = [[u for u, b in pairs if b == block] for block in range(k)]
    g = Graph.from_edges([f"n{i}" for i in range(n)], edges)
    return g, Decomposition.from_members([m for m in members if m], n=n)


@SETTINGS
@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.tuples(st.integers(0, n - 1),
                                                       st.integers(0, n - 1)), max_size=40))))
def test_graph_matches_per_node_adjacency(case):
    n, edges = case
    g = Graph.from_edges([f"n{i}" for i in range(n)], edges)
    indptr, indices = reference_adjacency(n, edges)
    assert np.array_equal(g.indptr, indptr) and np.array_equal(g.indices, indices)
    assert np.array_equal(g.out_degree, np.diff(indptr))
    assert g.dangling == frozenset(np.flatnonzero(np.diff(indptr) == 0).tolist())


@SETTINGS
@given(instances())
def test_decomposition_views_agree_with_membership(instance):
    _, d = instance
    node_blocks = d.node_blocks
    for k, ids in enumerate(d.members):
        assert ids.tolist() == sorted(set(ids.tolist()))
        assert all(k in node_blocks[u] for u in ids.tolist())
    assert sum(map(len, node_blocks)) == sum(ids.size for ids in d.members)
    assert d.block_sizes().tolist() == [ids.size for ids in d.members]
    assert (d.kind.value == "partition") == all(len(bs) == 1 for bs in node_blocks)


@SETTINGS
@given(instances())
def test_factors_match_per_node_reference(instance):
    g, d = instance
    forms = [FactorForm.COVER] + ([FactorForm.PARTITION] if d.kind.value == "partition" else [])
    for form in forms:
        f = build_factors(d, g, form)
        R, A, N = reference_factors(d, g, form)
        assert_same_csr(f.R, R)
        assert_same_csr(f.A, A)
        assert np.array_equal(f.N, N) and f.N.dtype == N.dtype


@pytest.mark.parametrize("seed", range(4))
def test_factors_match_per_node_reference_on_larger_instances(seed):
    # Blocks and proximal sets large enough that (1/N) * (1/|D|) and
    # 1 / (N |D|) round differently for some entries.
    rng = np.random.default_rng(seed)
    g = random_graph(rng, 80, 0.06)
    for d in (random_partition(rng, 80, 12), random_cover(rng, 80, 12, 0.2)):
        f = build_factors(d, g)
        R, A, N = reference_factors(d, g, f.form)
        assert_same_csr(f.R, R)
        assert_same_csr(f.A, A)
        assert np.array_equal(f.N, N)


@SETTINGS
@given(instances())
def test_hyperlink_matches_per_node_reference(instance):
    g, d = instance
    for policy in DanglingPolicy:
        h = build_hyperlink(g, policy, d)
        base, dangling_rows = reference_hyperlink(g, policy, d)
        assert_same_csr(h.base, base)
        if policy is DanglingPolicy.OWN_BLOCK:
            assert_same_csr(h.dangling_rows, dangling_rows)
        assert h.dangling.tolist() == sorted(g.dangling)
        assert np.array_equal(h.to_dense(), dense_hyperlink(g, policy, d))


@SETTINGS
@given(instances())
def test_proximal_set_is_the_reference_row(instance):
    g, d = instance
    for u, blocks in enumerate(reference_proximal_sets(g, d)):
        assert proximal_set(d, g, u) == blocks


def test_builders_do_not_call_proximal_set(g4, g4_decomp, monkeypatch):
    def refuse(*_):
        raise AssertionError("per-node proximal_set called by a builder")

    monkeypatch.setattr(blockrank.decomp, "proximal_set", refuse)
    build_factors(g4_decomp, g4)
    build_hyperlink(g4, DanglingPolicy.OWN_BLOCK, g4_decomp)


def test_character_tables_match_str_methods():
    every = [chr(c) for c in range(0x110000)]
    assert set(WHITESPACE) == {c for c in every if c.isspace()}
    assert set(LINE_BREAKS) == {c for c in every if len(f"x{c}x".splitlines()) == 2}


# Edge-list and block text: labels from a small alphabet so that they
# repeat, separators and line ends from every class str.split and
# str.splitlines know, comments, blank lines and malformed lines.
LABELS = st.sampled_from(["a", "b", "c", "d10", "d9", "\u00e9", "#x", "x#"])
SEPARATORS = st.sampled_from([" ", "\t", "  ", "\x1f", "\xa0", "\u2003", "\u3000"])
ENDINGS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])


@st.composite
def line_texts(draw, labels=LABELS, malformed: bool = True) -> str:
    kinds = ["pair"] * 6 + ["blank", "comment"] + (["short", "long"] if malformed else [])
    out = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        sep = draw(SEPARATORS)
        if kind == "blank":
            body = draw(st.sampled_from(["", " ", "\t "]))
        elif kind == "comment":
            body = draw(st.sampled_from(["#", "# a b", "  #c"]))
        else:
            size = {"pair": 2, "short": 1, "long": 3}[kind]
            body = sep.join(draw(labels) for _ in range(size))
        out.append(draw(st.sampled_from(["", " "])) + body + draw(ENDINGS))
    text = "".join(out)
    return text[:-1] if text and draw(st.booleans()) else text


def outcome(fn, *args):
    try:
        return fn(*args), None
    except BlockRankError as exc:
        return None, (type(exc), str(exc), getattr(exc, "line", None))


@SETTINGS
@given(line_texts())
def test_edge_list_parse_matches_per_line_reference(text):
    got, got_error = outcome(parse_edge_list, text)
    pairs, want_error = outcome(reference_parse_pairs, text, "src dst")
    if want_error is None and not pairs:
        want_error = (ParseError, "empty graph", None)
    assert got_error == want_error
    if want_error is None:
        ids = first_appearance(token for pair in pairs for token in pair)
        assert got.labels == tuple(ids)
        indptr, indices = reference_adjacency(len(ids), [(ids[u], ids[v]) for u, v in pairs])
        assert np.array_equal(got.indptr, indptr) and np.array_equal(got.indices, indices)


@SETTINGS
@given(line_texts(malformed=False), line_texts(labels=st.sampled_from(["a", "b", "c", "zz"])))
def test_block_parse_matches_per_line_reference(edges, blocks):
    g, _ = outcome(parse_edge_list, edges)
    if g is None:
        return
    got, got_error = outcome(parse_blocks, blocks, g)
    want, want_error = outcome(reference_parse_blocks, blocks, g)
    assert got_error == want_error
    if want_error is None:
        assert list(got.block_labels) == want[0]
        assert [ids.tolist() for ids in got.members] == want[1]


@pytest.mark.parametrize("text, line", [
    ("a b\r\n\r\n# c\r\na b c\r\n", 4),
    ("a b\u2028c\u2029d e", 2),
    ("a b\r\rc\n", 3),
    ("\x0ca b\x1cc", 3),
])
def test_malformed_line_number_counts_every_line_break(text, line):
    with pytest.raises(BlockRankError) as info:
        parse_edge_list(text)
    assert info.value.line == line and str(info.value).startswith(f"line {line}:")
