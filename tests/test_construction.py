"""Whole-array construction against the per-node reference builders.

Parsing, the graph and decomposition containers, the hyperlink operator and
the proximity factors are built with a few sparse products; every property
here demands bit-identical output from the loop constructions they replaced
(kept in ``helpers``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blockrank.decomp
import blockrank.graph
import blockrank.tokens
from blockrank import (
    DanglingPolicy,
    Decomposition,
    FactorForm,
    Graph,
    build_factors,
    build_hyperlink,
    cli,
    parse_blocks,
    parse_edge_list,
)
from blockrank.errors import BlockRankError, ConfigurationError, CoverageError, ParseError
from blockrank.tokens import (
    LINE_BREAKS,
    WHITESPACE,
    Interner,
    Source,
    Tokens,
    codes,
    tokenize_pairs,
)

from helpers import (
    block_sizes,
    dense_hyperlink,
    explicit_dangling_rows,
    first_appearance,
    members,
    node_blocks,
    random_cover,
    random_graph,
    random_partition,
    reference_adjacency,
    reference_factors,
    reference_hyperlink,
    reference_parse_blocks,
    reference_parse_pairs,
    reference_signatures,
)

SETTINGS = settings(max_examples=150, deadline=None)
PARSE_SETTINGS = settings(max_examples=300, deadline=None)  # half of them ASCII-only


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
    blocks = [[u for u, b in pairs if b == block] for block in range(k)]
    g = Graph.from_edges([f"n{i}" for i in range(n)], edges)
    return g, Decomposition.from_members([m for m in blocks if m], n=n)


@SETTINGS
@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.tuples(st.integers(0, n - 1),
                                                       st.integers(0, n - 1)), max_size=40))))
def test_graph_matches_per_node_adjacency(case):
    n, edges = case
    g = Graph.from_edges([f"n{i}" for i in range(n)], edges)
    indptr, indices = reference_adjacency(n, [(v, u) for u, v in edges])  # links by target
    assert np.array_equal(g.indptr, indptr) and np.array_equal(g.indices, indices)
    out_indptr, _ = reference_adjacency(n, edges)
    assert np.array_equal(g.out_degree, np.diff(out_indptr))
    assert np.array_equal(np.flatnonzero(g.out_degree == 0),
                          np.flatnonzero(np.diff(out_indptr) == 0))


@SETTINGS
@given(instances())
def test_decomposition_views_agree_with_membership(instance):
    _, d = instance
    blocks_of, block_ids = node_blocks(d), members(d)
    for k, ids in enumerate(block_ids):
        assert ids.tolist() == sorted(set(ids.tolist()))
        assert all(k in blocks_of[u] for u in ids.tolist())
    assert sum(map(len, blocks_of)) == sum(ids.size for ids in block_ids)
    assert block_sizes(d).tolist() == [ids.size for ids in block_ids]
    assert (d.kind.value == "partition") == all(len(bs) == 1 for bs in blocks_of)


@SETTINGS
@given(instances())
def test_factors_match_per_node_reference(instance):
    g, d = instance
    forms = [FactorForm.COVER] + ([FactorForm.PARTITION] if d.kind.value == "partition" else [])
    for form in forms:
        f = build_factors(d, g, form)
        R, A, N = reference_factors(d, g, form)
        assert_same_csr(f.R.tocsr(), R)
        assert_same_csr(f.A, A)
        proximal_counts = np.diff(f.R.tocsr().indptr)
        assert np.array_equal(proximal_counts, N) and proximal_counts.dtype == N.dtype


@pytest.mark.parametrize("seed", range(4))
def test_factors_match_per_node_reference_on_larger_instances(seed):
    # Blocks and proximal sets large enough that (1/N) * (1/|D|) and
    # 1 / (N |D|) round differently for some entries.
    rng = np.random.default_rng(seed)
    g = random_graph(rng, 80, 0.06)
    for d in (random_partition(rng, 80, 12), random_cover(rng, 80, 12, 0.2)):
        f = build_factors(d, g)
        R, A, N = reference_factors(d, g, d.kind)
        assert_same_csr(f.R.tocsr(), R)
        assert_same_csr(f.A, A)
        assert np.array_equal(np.diff(f.R.tocsr().indptr), N)


@SETTINGS
@given(instances())
def test_hyperlink_matches_per_node_reference(instance):
    g, d = instance
    for policy in DanglingPolicy:
        h = build_hyperlink(g, policy, d)
        base, dangling_rows = reference_hyperlink(g, policy, d)
        assert_same_csr(h.base_t[h.row].T.tocsr(), base)
        if policy is DanglingPolicy.OWN_BLOCK:
            assert_same_csr(explicit_dangling_rows(h), dangling_rows)
        assert h.dangling.tolist() == np.flatnonzero(g.out_degree == 0).tolist()
        assert np.array_equal(h.to_dense(), dense_hyperlink(g, policy, d))


def test_character_tables_match_str_methods():
    every = [chr(c) for c in range(0x110000)]
    assert set(WHITESPACE) == {c for c in every if c.isspace()}
    assert set(LINE_BREAKS) == {c for c in every if len(f"x{c}x".splitlines()) == 2}


def test_ascii_prefilter_keeps_every_ascii_space():
    # ASCII text looks up the space table only for codes <= 32
    assert all(ord(c) <= 32 for c in WHITESPACE + LINE_BREAKS if c.isascii())


def test_every_other_space_is_a_short_sequence_with_a_known_lead_byte():
    # the tokenizer decodes only the 2- and 3-byte UTF-8 sequences led by these
    wide = [c.encode() for c in WHITESPACE + LINE_BREAKS if not c.isascii()]
    assert all(len(b) in (2, 3) for b in wide)
    assert {b[0] for b in wide} == {0xC2, 0xE1, 0xE2, 0xE3}
    assert np.flatnonzero(blockrank.tokens._LEADS).tolist() == [0xC2, 0xE1, 0xE2, 0xE3]


# Edge-list and block text: labels from a small alphabet so that they
# repeat, separators and line ends from every class str.split and
# str.splitlines know, comments, blank lines and malformed lines.
LABELS = st.sampled_from(["a", "b", "c", "d10", "d9", "\u00e9", "#x", "x#"])
SEPARATORS = st.sampled_from([" ", "\t", "  ", "\x1f", "\xa0", "\u1680", "\u2003", "\u205f",
                              "\u3000"])
ENDINGS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028",
                           "\u2029"])
LEADING = st.sampled_from(["", " "])

# ASCII-only text, which is read one byte per character: every ASCII
# separator and line break, NUL inside labels, and labels of 1 to 40
# characters, across the 8- and 16-byte word edges of the interner.
ASCII_CHARS = [chr(c) for c in range(128) if not chr(c).isspace()]
ASCII_LABELS = st.sampled_from([
    "a", "a\x00", "\x00", "\x00a", "b", "#a", "abcdefg", "abcdefgh", "abcdefgh\x00",
    "abcdefghi", "abcdefghj", "abcdefghabcdefgh", "abcdefghabcdefg\x00", "abcdefghabcdefghi",
    "x" * 40, "x" * 39 + "\x00",
]) | st.text(st.sampled_from(ASCII_CHARS), min_size=1, max_size=40)
ASCII_SEPARATORS = st.sampled_from([" ", "\t", "\x1f", " \t", "\x1f \x1f"])
ASCII_ENDINGS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
ASCII_LEADING = st.sampled_from(["", " ", "\t", "\x1f", " \x1f\t"])


@st.composite
def line_texts(draw, labels=LABELS, malformed: bool = True, separators=SEPARATORS,
               endings=ENDINGS, leading=LEADING) -> str:
    kinds = ["pair"] * 6 + ["blank", "comment"] + (["short", "long"] if malformed else [])
    out = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        sep = draw(separators)
        if kind == "blank":
            body = draw(st.sampled_from(["", " ", "\t "]))
        elif kind == "comment":
            body = draw(st.sampled_from(["#", "# a b", "  #c"]))
        else:
            size = {"pair": 2, "short": 1, "long": 3}[kind]
            body = sep.join(draw(labels) for _ in range(size))
        out.append(draw(leading) + body + draw(endings))
    text = "".join(out)
    return text[:-1] if text and draw(st.booleans()) else text


def ascii_line_texts(labels=ASCII_LABELS, malformed: bool = True):
    return line_texts(labels, malformed, ASCII_SEPARATORS, ASCII_ENDINGS, ASCII_LEADING)


def outcome(fn, *args):
    try:
        return fn(*args), None
    except BlockRankError as exc:
        return None, (type(exc), str(exc), getattr(exc, "line", None))


def assert_block_parse_matches_reference(blocks: str, g: Graph) -> None:
    got, got_error = outcome(parse_blocks, blocks, g)
    want, want_error = outcome(reference_parse_blocks, blocks, g)
    assert got_error == want_error
    if want_error is None:
        assert list(got.block_labels) == want[0]
        assert [ids.tolist() for ids in members(got)] == want[1]


@contextlib.contextmanager
def smallest_windows():
    """Parse in windows of one code and intern batches of one token: every
    line that ends in ``'\\n'`` is then a window of its own and every token
    a batch of its own."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(blockrank.tokens, "WINDOW", 1)
        patch.setattr(blockrank.tokens, "BATCH", 1)
        yield


def assert_edge_parse_matches_reference(text: str) -> None:
    got, got_error = outcome(parse_edge_list, text)
    pairs, want_error = outcome(reference_parse_pairs, text, "src dst")
    if want_error is None and not pairs:
        want_error = (ParseError, "empty graph", None)
    assert got_error == want_error
    if want_error is None:
        ids = first_appearance(token for pair in pairs for token in pair)
        assert got.labels == tuple(ids)
        indptr, indices = reference_adjacency(len(ids), [(ids[v], ids[u]) for u, v in pairs])
        assert np.array_equal(got.indptr, indptr) and np.array_equal(got.indices, indices)


@PARSE_SETTINGS
@given(line_texts() | ascii_line_texts())
def test_edge_list_parse_matches_per_line_reference(text):
    assert_edge_parse_matches_reference(text)


@PARSE_SETTINGS
@given(line_texts() | ascii_line_texts())
def test_edge_list_parse_matches_per_line_reference_in_smallest_windows(text):
    with smallest_windows():
        assert_edge_parse_matches_reference(text)


BLOCK_TEXTS = st.one_of(
    st.tuples(line_texts(malformed=False),
              line_texts(labels=st.sampled_from(["a", "b", "c", "zz"]))),
    st.tuples(ascii_line_texts(malformed=False), ascii_line_texts()),
)


def assert_graph_and_block_parse_match_reference(edges: str, blocks: str) -> None:
    g, _ = outcome(parse_edge_list, edges)
    if g is not None:
        assert_block_parse_matches_reference(blocks, g)


@PARSE_SETTINGS
@given(BLOCK_TEXTS)
def test_block_parse_matches_per_line_reference(texts):
    assert_graph_and_block_parse_match_reference(*texts)


@PARSE_SETTINGS
@given(BLOCK_TEXTS)
def test_block_parse_matches_per_line_reference_in_smallest_windows(texts):
    with smallest_windows():
        assert_graph_and_block_parse_match_reference(*texts)


W8, W9, W16, W17 = "abcdefgh", "abcdefghi", "abcdefgh" * 2, "abcdefgh" * 2 + "i"
E2, E3, E4, E5 = "\u00e9" * 2, "\u00e9" * 3, "\u00e9" * 4, "\u00e9" * 5


LABEL_EDGE_CASES = [
    # labels that prefix each other
    ("v1 v10\nv10 v100\nv100 v1", "v10 X\nv1 X\nv100 Y"),
    ("v1 v10\nv10 v100\nv100 v1", "v10 X\nv1 X\nv1000 Y"),
    # around the 64-bit word ends: a word is 8 UTF-8 bytes, 8 ASCII
    # characters or 4 two-byte ones (E2 to E5 are 4 to 10 bytes)
    (f"{W8} {W9}\n{W16} {W17}\n{W17} {W8}", f"{W17} X\n{W9} Y\n{W16} X\n{W8} Y"),
    (f"{W8} {W9}\n{W16} {W17}", f"{W17} X\n{W9} Y\n{W16}i X\n{W8} Y"),
    (f"{E2} {E3}\n{E4} {E5}", f"{E5} X\n{E3} Y\n{E4} X\n{E2} Y"),
    (f"{E2} {E3}\n{E4} {E5}", f"{E5} X\n{E3} Y\n{E4}\u00e9 X\n{E2} Y"),
    # a non-ASCII blocks file against ASCII graph labels, and the reverse
    ("a b\nb c", "a \u00c9\nb \u00c9\nc X"),
    ("a b\nb c", "a X\n\u00e9 X\nb X\nc X"),
    ("\u00e9 a\na b", "a X\nb X"),
    ("\u00e9 a\na b", "a X\nb X\ne X"),
    # a byte order mark kept on, or stripped from, either file's first label
    ("\ufeffa b\nb \ufeffa", "\ufeffa X\nb X"),
    ("\ufeffa b\nb \ufeffa", "a X\nb X"),
    ("a b\nb a", "\ufeffa X\nb X"),
    # an unknown label on an earlier line wins over a malformed later line,
    # and a malformed line wins over a later unknown label
    ("a b\nb a", "a X\nzz X\nb\nb X"),
    ("a b\nb a", "a X\nb\nzz X\nb X"),
    # labels led by 0xC2 and 0xE2 that are not spaces, between wider spaces
    ("\u00a9\u00a0\u20ac\n\u20ac\u2003\u2010", "\u00a9\u3000X\n\u20ac X\n\u2010 X"),
]


@pytest.mark.parametrize("graph, blocks", LABEL_EDGE_CASES)
def test_block_parse_matches_reference_on_label_edge_cases(graph, blocks):
    g = parse_edge_list(graph)
    assert_block_parse_matches_reference(blocks, g)


@pytest.mark.parametrize("graph, blocks", LABEL_EDGE_CASES)
def test_block_parse_matches_reference_on_label_edge_cases_in_smallest_windows(graph, blocks):
    with smallest_windows():
        assert_edge_parse_matches_reference(graph)
        assert_block_parse_matches_reference(blocks, parse_edge_list(graph))


@pytest.mark.parametrize("labels", [["a b", "a", ""], ["a\tb", "\u00e9 a", "a"]])
def test_graph_labels_with_whitespace_match_no_blocks_token(labels):
    """``Graph.from_edges`` takes any distinct strings as labels; a blocks
    file's token, which holds no whitespace, names only an equal label."""
    assert_block_parse_matches_reference("a X\n", Graph.from_edges(labels, []))


MALFORMED_LINES = [
    ("a b\r\n\r\n# c\r\na b c\r\n", 4),
    ("a b\u2028c\u2029d e", 2),
    ("a b\r\rc\n", 3),
    ("\x0ca b\x1cc", 3),
    (" a\x00 b\x1d\x1e\ta\x1fb c", 3),
    ("a b\x0b\rabcdefghi\x00\tb\x0c# x y z\x0c\x1fa b c", 5),
    ("a b\r#c\nd e f\n", 3),
    ("a b\r\u2028c d e\n", 3),  # two line breaks, not one "\r\n"
]


def assert_malformed_line(text: str, line: int) -> None:
    with pytest.raises(BlockRankError) as info:
        parse_edge_list(text)
    assert info.value.line == line and str(info.value).startswith(f"line {line}:")


@pytest.mark.parametrize("text, line", MALFORMED_LINES)
def test_malformed_line_number_counts_every_line_break(text, line):
    assert_malformed_line(text, line)


@pytest.mark.parametrize("text, line", MALFORMED_LINES)
def test_malformed_line_number_counts_every_line_break_in_smallest_windows(text, line):
    with smallest_windows():
        assert_malformed_line(text, line)


@contextlib.contextmanager
def colliding_until_rehash():
    """Give every hash key an interner makes with its first salt one value,
    so that any two sequences of a word or more collide until it draws a
    fresh salt.  Yields the fresh salts drawn so far, per interner made."""
    first, fresh = set(), {}
    keys, init, rehash = blockrank.tokens._keys, Interner.__init__, Interner._rehash

    def colliding_keys(tokens, salt):
        key = keys(tokens, salt)
        if int(salt) in first:
            key[key >= blockrank.tokens._HASHED] = blockrank.tokens._HASHED
        return key

    def made(self):
        init(self)
        first.add(int(self.salt))
        fresh[self] = 0

    def counted_rehash(self, salt=None):
        fresh[self] += salt is None
        rehash(self, salt)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(blockrank.tokens, "_keys", colliding_keys)
        patch.setattr(Interner, "__init__", made)
        patch.setattr(Interner, "_rehash", counted_rehash)
        yield fresh


@pytest.mark.parametrize("alphabet", ["abcdefgh\x00", "ab\u00e9\x00\u3042"])
def test_interning_is_exact_when_the_first_salt_collides(alphabet):
    """Labels of one 64-bit word or more (8 UTF-8 bytes) are keyed by a
    salted hash of their words, and so are block signatures of 2 or more
    blocks; these labels are 9 to 40 characters, so at least 9 bytes.
    With every such key of an interner's first salt forced to one value,
    the collision is found within a batch (for the node interner of the
    blocks parse, the first batch looked up in the graph's labels): each
    interner draws exactly one fresh salt, and each distinct label and
    signature still gets its own id, in both parsers."""
    with colliding_until_rehash() as fresh:
        assert_interning_is_exact(alphabet, fresh)


@pytest.mark.parametrize("alphabet", ["abcdefgh\x00", "ab\u00e9\x00\u3042"])
def test_interning_is_exact_when_the_first_salt_collides_in_smallest_windows(alphabet):
    """As above, with each token interned alone: the collision is then met
    against the sequences already stored, not inside one batch."""
    with colliding_until_rehash() as fresh, smallest_windows():
        assert_interning_is_exact(alphabet, fresh)


def assert_interning_is_exact(alphabet: str, fresh: dict) -> None:
    """Both parsers and the signatures against their references, and, when
    each stage is done, one fresh salt drawn by each interner it made."""
    rng = np.random.default_rng(3)
    labels = sorted({"".join(rng.choice(list(alphabet), size=rng.integers(9, 41)))
                     for _ in range(30)})
    labels += [labels[0] + "\x00", labels[0] + "\x00\x00",  # the same words, but longer
               labels[0][:-1] + "\x00"]  # the same length and first word
    edges = rng.choice(labels, size=(120, 2))
    # line 1: two labels that differ only in their last word, so that a
    # collision met against the store is told apart word by word
    text = "".join(f"{u} {v}\n" for u, v in [(labels[0], labels[-1]), *edges])
    g = parse_edge_list(text)
    assert list(fresh.values()) == [1]
    fresh.clear()
    pairs = reference_parse_pairs(text, "src dst")
    ids = first_appearance(label for pair in pairs for label in pair)
    assert g.labels == tuple(ids)
    indptr, indices = reference_adjacency(len(ids), [(ids[v], ids[u]) for u, v in pairs])
    assert np.array_equal(g.indptr, indptr) and np.array_equal(g.indices, indices)

    blocks = "".join(f"{u} {rng.choice(labels[:5])}\n" for u in g.labels)
    assert_block_parse_matches_reference(blocks, g)
    assert list(fresh.values()) == [1, 1]  # the node and the block interner
    fresh.clear()

    # every node in 3 or more of 8 blocks; some signatures share their
    # length and first word (blocks 0 and 1)
    pool = [(0, 1, 2), (0, 1, 3), (0, 1, 2, 3), (0, 1, 2, 3, 4, 5, 6), (0, 1, 2, 3, 4, 5, 7),
            (2, 4, 6)]
    blocks_of = [pool[i] for i in rng.permutation(np.arange(g.n) % len(pool))]
    d = Decomposition.from_members(
        [[u for u, blocks in enumerate(blocks_of) if k in blocks] for k in range(8)], n=g.n)
    h = build_hyperlink(g, DanglingPolicy.OWN_BLOCK, d)
    assert list(fresh.values()) == [1]
    signature, reach = reference_signatures(d, h.dangling)
    assert h.signature.tolist() == signature
    assert np.array_equal(h.reach[h.signature].toarray(), reach)


def parsed(parse) -> tuple:
    """``parse()``'s graph labels, block labels and ``B``, or its error."""
    got, error = outcome(parse)
    if error is not None:
        return error
    g, d = got
    return g.labels, d.block_labels, d.B.shape, d.B.indptr.tolist(), d.B.indices.tolist()


def cli_load(tmp_path, edges: str, blocks: str) -> tuple:
    """The CLI's load, in which the blocks parse looks node labels up in the
    edge parse's table (it must not build one), as :func:`parsed` gives it."""
    graph_file, blocks_file = tmp_path / "handoff.edges", tmp_path / "handoff.blocks"
    graph_file.write_text(edges, encoding="utf-8")
    blocks_file.write_text(blocks, encoding="utf-8")

    def rebuilt(*args):
        raise AssertionError("the blocks parse rebuilt the label table")

    def load():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Interner, "of", rebuilt)
            g, d, _ = cli._load(argparse.Namespace(graph=str(graph_file),
                                                   blocks=str(blocks_file)))
        return g, d

    return parsed(load)


def plain_load(edges: str, blocks: str) -> tuple:
    def load():
        g = parse_edge_list(edges)
        return g, parse_blocks(blocks, g)

    return parsed(load)


HANDOFF_CASES = {
    "ascii graph, ascii blocks": ("a b\nb c\nc a\n", "a X\nb X\nc Y\nb Y\n"),
    "ascii graph, wider blocks": ("a b\nb c\nc a\n", "a \u00c9\nb X\nc \u00c9\n"),
    "wider graph, ascii blocks": ("# caf\u00e9\na b\nb c\n", "c X\na X\nb Y\n"),
    "wider labels, wider blocks": ("\u00e9 a\na \u3042\n", "a X\n\u3042 X\n\u00e9 Y\n"),
    "unknown ascii label": ("a b\nb c\n", "a X\nb X\nzz X\nc X\n"),
    "unknown wider label": ("a b\nb c\n", "a X\n\u00e9 X\nb X\nc X\n"),
    "unknown label in a wider graph": ("\u00e9 a\na b\n", "a X\nb X\nab X\n"),
    "nodes missing from every block": ("a b\nb c\nc a\n", "b X\n"),
    "wider nodes missing from every block": ("\u00e9 a\na b\n", "a X\n"),
}


@pytest.mark.parametrize("edges, blocks", HANDOFF_CASES.values(), ids=HANDOFF_CASES)
def test_handed_off_label_table_parses_as_a_rebuilt_one(tmp_path, edges, blocks):
    assert cli_load(tmp_path, edges, blocks) == plain_load(edges, blocks)


@pytest.mark.parametrize("alphabet", ["abcdefgh\x00", "ab\u00e9\x00\u3042"])
@pytest.mark.parametrize("blocks_alphabet", ["XYZ", "\u00c9XYZ"])
def test_handed_off_label_table_is_exact_when_the_first_salt_collides(
        tmp_path, alphabet, blocks_alphabet):
    """Labels of a word or more (9 to 40 characters, so at least 9 UTF-8
    bytes) under the forced collision of :func:`colliding_until_rehash`:
    the edge parse's table draws one fresh salt, which the blocks parse
    keeps, and the block table draws its own."""
    rng = np.random.default_rng(5)
    labels = sorted({"".join(rng.choice(list(alphabet), size=rng.integers(9, 41)))
                     for _ in range(30)})
    edges = "".join(f"{u} {v}\n" for u, v in rng.choice(labels, size=(120, 2)))
    names = ["".join(rng.choice(list(blocks_alphabet), size=12)) for _ in range(5)]
    g = parse_edge_list(edges)
    blocks = "".join(f"{u} {rng.choice(names)}\n" for u in g.labels)
    for missing in (False, True):
        text = blocks.split("\n", 1)[1] if missing else blocks
        with colliding_until_rehash() as fresh:
            got = cli_load(tmp_path, edges, text)
            assert list(fresh.values()) == [1, 1]  # the edge parse's and the block table
        assert got == plain_load(edges, text)
        assert (got[0] is CoverageError) == missing


def many_lines(count: int) -> list[str]:
    """``count`` edge lines over a few hundred repeating labels."""
    return [f"v{i % 997}\tv{i * 7 % 1009}\n" for i in range(count)]


def test_crafted_hash_collision_above_several_windows():
    """An unsalted hash of a long token's two words is a bijection of their
    XOR, so ``aaaaaaaabbbbbbb`` and ``bbbbbbbaaaaaaaa`` would share a key,
    and so would the signatures (0, 2, 7) and (1, 2, 6).  With that pair on
    line 1 above three windows of edges, as node and as block labels, and
    those signatures in a cover, both parsers and the signatures match
    their references."""
    pair = ("aaaaaaaabbbbbbb", "bbbbbbbaaaaaaaa")
    text = "".join([f"{pair[0]} {pair[1]}\n"] + many_lines(60_000))
    assert len(text) > 2 * blockrank.tokens.WINDOW
    assert_edge_parse_matches_reference(text)
    g = parse_edge_list(text)
    assert_block_parse_matches_reference(
        "".join(f"{u} {pair[i % 2]}\n" for i, u in enumerate(g.labels)), g)
    pool = [(0, 2, 7), (1, 2, 6), (3, 4, 5)]
    d = Decomposition.from_members(
        [[u for u in range(g.n) if k in pool[u % len(pool)]] for k in range(8)], n=g.n)
    h = build_hyperlink(g, DanglingPolicy.OWN_BLOCK, d)
    signature, reach = reference_signatures(d, h.dangling)
    assert h.signature.tolist() == signature
    assert np.array_equal(h.reach[h.signature].toarray(), reach)


def test_short_labels_cannot_crowd_the_table():
    """A label shorter than a word is keyed by its word exactly, so with a
    fixed home multiplier labels could be chosen whose homes all lie in the
    first 1/32 of a table of any size, one run of taken slots.  These 2,000
    are such labels; with the salt as the multiplier the longest run of
    taken slots stays short."""
    rng = np.random.default_rng(7)
    chars = rng.integers(ord("a"), ord("z") + 1, (100_000, 7), dtype=np.uint64)
    word = (chars << np.arange(0, 56, 8, dtype=np.uint64)).sum(axis=1) | np.uint64(0x80 << 56)
    crowded = chars[word * blockrank.tokens._MULTIPLIER >> np.uint64(59) == 0]
    labels = sorted({bytes(row.astype(np.uint8)).decode() for row in crowded})[:2000]
    assert len(labels) == 2000
    taken = np.concatenate(([0], Interner.of(labels).slot_id >= 0, [0]))
    runs = np.diff(np.flatnonzero(np.diff(taken)))[::2]
    assert runs.max() < 200


def assert_table_holds_every_id(interner: Interner) -> None:
    """At most half the slots are taken, by the stored ids alone, and the
    table has at most 64 slots or four per id; no key sits in two of them,
    and each id is at the slot its key probes to."""
    taken = np.flatnonzero(interner.slot_id >= 0)
    assert taken.size == len(interner) and 2 * taken.size <= interner.slot_id.size
    assert interner.slot_id.size <= max(64, 4 * len(interner))
    assert np.unique(interner.slot_key[taken]).size == taken.size
    ids = np.arange(len(interner), dtype=np.int32)
    key = blockrank.tokens._keys(interner._stored(ids), interner.salt)
    assert np.array_equal(interner.slot_id[interner._slots(key, None)], ids)


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("alphabet", ["abcdefgh\x00", "ab\u00e9\x00\u3042"])
def test_table_invariants_through_growth_and_rehash(alphabet, forced):
    """Labels of 1 to 40 UTF-8 bytes, added in batches of random sizes
    through at least three table growths, keep the table's invariants after
    every batch; under the forced collision of :func:`colliding_until_rehash`
    also right after the fresh salt is drawn.  The labels shorter than a
    word come first, so the table is rebuilt with ids in it."""
    rng = np.random.default_rng(17)
    pool = {"".join(rng.choice(list(alphabet), size=rng.integers(1, 41))) for _ in range(1500)}
    labels = sorted((s for s in pool if len(s.encode()) <= 40), key=lambda s: len(s.encode()) >= 8)
    stream = labels + list(rng.choice(labels, size=1000))
    sizes, rehashed = set(), []
    with colliding_until_rehash() if forced else contextlib.nullcontext({}) as fresh, \
            pytest.MonkeyPatch.context() as patch:
        rehash = Interner._rehash

        def checked_rehash(self, salt=None):
            rehash(self, salt)
            assert_table_holds_every_id(self)
            rehashed.append(len(self))

        patch.setattr(Interner, "_rehash", checked_rehash)
        interner, ids, lo = Interner(), [], 0
        while lo < len(stream):
            batch = stream[lo:lo + int(rng.integers(1, 200))]
            ids += interner.add(tokens_of(*(s.encode() for s in batch))).tolist()
            assert_table_holds_every_id(interner)
            sizes.add(interner.slot_id.size)
            lo += len(batch)
    first = first_appearance(stream)
    assert ids == [first[s] for s in stream]
    assert len(sizes) >= 4 and interner.strings() == labels
    assert list(fresh.values()) == ([1] if forced else [])
    assert (len(rehashed) == 1 and rehashed[0] > 32) if forced else not rehashed


def tokens_of(*sequences: bytes) -> Tokens:
    """``sequences`` as tokens over one array of their bytes, each
    followed by a space, and 8 more."""
    code = np.frombuffer(b" ".join(sequences) + b" " * 9, dtype=np.uint8)
    end = np.cumsum([len(s) + 1 for s in sequences]) - 1
    return Tokens(code, end - [len(s) for s in sequences], end)


def test_joined_bytes_of_every_length():
    """Tokens of 0 to 40 bytes and one of 100,003, stored through their
    words, give back their bytes, each followed by one space: apart, as a
    window's labels are, and each ending where the next begins, as the rows
    of ``B`` are."""
    sequences = [bytes((7 * i + j) % 255 + 1 for j in range(i)) for i in range(41)]
    sequences.append(b"z" * 100_003)
    apart = tokens_of(*sequences[1:])
    assert apart.joined().tobytes() == b" ".join(sequences[1:]) + b" "
    size = np.array([len(s) for s in sequences])
    code = np.frombuffer(b"".join(sequences) + b"\xff" * 8, dtype=np.uint8)
    end = np.cumsum(size)
    assert Tokens(code, end - size, end).joined().tobytes() == b" ".join(sequences) + b" "


def test_hash_rounds_do_not_grow_with_token_length(monkeypatch):
    """A batch's hash keys take the same mixing rounds whatever its
    tokens' lengths: all their words are gathered and mixed at once, not a
    round per word (50,001 rounds for a 400,000-byte token)."""
    mix, rounds = blockrank.tokens._mix, []

    def counted(*args):
        rounds.append(args[0].size)
        return mix(*args)

    monkeypatch.setattr(blockrank.tokens, "_mix", counted)
    counts = []
    for size in (8, 4_000, 400_000):
        rounds.clear()
        batch = tokens_of(b"x" * size, b"v1", b"y" * (size + 5), b"x" * size)
        assert Interner().add(batch).tolist() == [0, 1, 2, 0]
        counts.append(len(rounds))
    assert counts[0] == counts[1] == counts[2] <= 4


def thue_morse(order: int, a: bytes, b: bytes) -> bytes:
    """The Thue-Morse word of ``2 ** order`` letters over ``a`` and ``b``."""
    return b"".join(b if bin(i).count("1") % 2 else a for i in range(2 ** order))


def test_crafted_pairs_keep_distinct_hash_keys_under_every_salt():
    """Pairs made to collide in simple word hashes keep distinct keys under
    each of 200 salts: Thue-Morse words over two words and their
    complements (which collide in a polynomial hash mod 2^64 whatever its
    odd base), swapped words, words that differ in their top bit at two
    places, and sequences that differ only in length or in their last
    byte."""
    a, b = b"abcdefgh", b"hgfedcba"
    flipped = a[:7] + bytes([a[7] ^ 0x80])
    pairs = [(thue_morse(11, a, b), thue_morse(11, b, a)), (a + b, b + a),
             (a + a + b, flipped + flipped + b), (a, a + b"\x00"), (a + b, a + b + b"\x00" * 8),
             (a * 3 + b"x", a * 3 + b"y")]
    tokens = tokens_of(*[s for pair in pairs for s in pair])
    for salt in np.random.default_rng(13).integers(0, 2**63, 200, dtype=np.uint64):
        key = blockrank.tokens._keys(tokens, salt)
        assert np.all(key[0::2] != key[1::2])


@pytest.mark.parametrize("forced", [False, True])
def test_long_labels_parse_as_the_reference(forced):
    """Labels of 100,000 bytes above a few parse windows, one of them on
    two lines and one differing from it only in its last byte, parse as
    the per-line reference does, also when every hash key of the first
    salt is one value (one fresh salt is drawn)."""
    label = "x" * 99_999
    text = f"{label}a v1\nv2 {label}b\n{label}a v3\n" + "".join(many_lines(30_000))
    with colliding_until_rehash() if forced else contextlib.nullcontext({}) as fresh:
        assert_edge_parse_matches_reference(text)
        g = parse_edge_list(text)
        assert list(fresh.values())[-1:] == ([1] if forced else [])
    assert g.labels[:5] == (label + "a", "v1", "v2", label + "b", "v3")
    assert_block_parse_matches_reference("".join(f"{u} {u[-1]}\n" for u in g.labels), g)


@pytest.mark.parametrize("window, count", [(1, 300), (16, 600), (None, 60_000)])
def test_malformed_line_in_a_later_window_names_its_line(window, count, monkeypatch):
    lines = many_lines(count)  # 60,000 are about 660 KB: three default windows
    if window is not None:
        monkeypatch.setattr(blockrank.tokens, "WINDOW", window)
    assert len("".join(lines)) > 2 * blockrank.tokens.WINDOW
    assert_edge_parse_matches_reference("".join(lines))
    lines[count - count // 12] = "v1 v2 v3\n"
    assert_malformed_line("".join(lines), count - count // 12 + 1)


@pytest.mark.parametrize("window", [1, None])
def test_block_errors_keep_line_order_across_windows(window, monkeypatch):
    """An unknown node label in one window wins over a malformed line in a
    later one, and a malformed line over an unknown label in a later one."""
    if window is not None:
        monkeypatch.setattr(blockrank.tokens, "WINDOW", window)
    g = parse_edge_list("a b\nb a\n")
    filler = ["a X\n", "b Y\n"] * 40_000  # about 320 KB: two windows at the default size
    assert len("".join(filler)) > blockrank.tokens.WINDOW
    unknown_first = ["a X\n", "zz X\n"] + filler + ["b\n"]
    malformed_first = ["a X\n", "b\n"] + filler + ["zz X\n"]
    for lines in (unknown_first, malformed_first):
        assert_block_parse_matches_reference("".join(lines), g)
    with pytest.raises(CoverageError, match="line 2: node label 'zz'"):
        parse_blocks("".join(unknown_first), g)
    with pytest.raises(ParseError, match="line 2: expected"):
        parse_blocks("".join(malformed_first), g)


def test_tokenizer_ends_after_its_error(monkeypatch):
    """A malformed line ends the windows: the window that holds it is the
    last one yielded, and it keeps only the lines before it."""
    monkeypatch.setattr(blockrank.tokens, "WINDOW", 16)
    lines = many_lines(100)
    lines[7] = "v1 v2 v3\n"
    windows = list(tokenize_pairs(codes("".join(lines)), "src dst"))
    assert len(windows) > 1
    assert [error is None for _, _, error in windows] == [True] * (len(windows) - 1) + [False]
    assert windows[-1][2].line == 8
    assert np.concatenate([line for _, line, _ in windows]).tolist() == list(range(1, 8))
    assert sum(tokens.start.size for tokens, _, _ in windows) == 2 * 7


@pytest.mark.parametrize("ending", ["\r", "\x0b", " "])
def test_text_without_a_newline_is_one_window(ending, monkeypatch):
    monkeypatch.setattr(blockrank.tokens, "WINDOW", 8)
    lines = [line.replace("\n", ending) for line in many_lines(500)]
    assert_edge_parse_matches_reference("".join(lines))
    lines[321] = "v1" + ending
    assert_malformed_line("".join(lines), 322)


@pytest.mark.parametrize("label", ["abcdefghijk", "abcdefgh", "ééééé", "éééé"])
def test_long_label_first_seen_in_a_later_window(label):
    """A label of a word (8 UTF-8 bytes) or more is keyed by a hash; it
    first appears in the third window and again in the fifth, and keeps
    one id."""
    text = f"a b\nb c\n{label} a\nc b\nc {label}\n{label}x {label}\n"
    with smallest_windows():
        assert_edge_parse_matches_reference(text)
        g = parse_edge_list(text)
        assert g.labels == ("a", "b", "c", label, label + "x")
        assert_block_parse_matches_reference(f"a X\nb X\nc X\n{label}x Y\n{label} Y\n", g)


def test_keys_sharing_their_top_48_bits_are_interned_by_a_stable_argsort(monkeypatch):
    """With the salt 0 the sort multiplier is 1, so the keys of "xa" and
    "ya" (their words, below 2^24) share their top 48 bits: the batch
    falls back to a stable argsort, once, and still gets exact ids."""
    argsort, kinds = np.argsort, []

    def counted(a, *args, **kwargs):
        kinds.append(kwargs.get("kind"))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    batch = tokens_of(b"xa", b"ya", b"xa")
    assert Interner().add(batch).tolist() == [0, 1, 0]  # a random salt: no fallback
    assert kinds.count("stable") == 0
    interner = Interner()
    interner.salt = np.uint64(0)  # the table is empty: no key was placed with the old salt
    assert interner.add(batch).tolist() == [0, 1, 0]
    assert kinds.count("stable") == 1
    assert_table_holds_every_id(interner)


def test_a_batch_whose_indices_overflow_the_sort_word_fails_loudly():
    """A batch's token indices fill the low 16 bits of its sort words, so
    a ``BATCH`` over 2^16 raises rather than giving wrong ids; 2^16 fits."""
    text = "a b\n" * (1 << 15)  # 2^16 tokens in one window
    assert parse_edge_list(text).labels == ("a", "b")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(blockrank.tokens, "BATCH", 1 << 17)
        with pytest.raises(ValueError, match="at most 2\\^16"):
            parse_edge_list(text + "a b\n")


def test_byte_order_mark_split_between_reads_is_dropped():
    """A source's byte-order mark, when it is to be dropped, is found
    however few bytes the first reads bring; error offsets count it."""
    data = b"\xef\xbb\xbfa b\nb \xc3\xa9\n"
    for chunk in (1, 2, 3, 64):
        g = parse_edge_list(Source.of(Trickle(data, chunk), mark=True))
        assert g.labels == ("a", "b", "\u00e9")
        with pytest.raises(ParseError, match="not valid UTF-8 at byte 7$"):
            parse_edge_list(Source.of(Trickle(data[:7] + b"\xff" + data[7:], chunk), mark=True))
    assert parse_edge_list(Source.of(Trickle(data, 1))).labels[0] == "\ufeffa"


@pytest.mark.parametrize("parse", [parse_edge_list,
                                   lambda text: parse_blocks(text, parse_edge_list("a b"))])
def test_text_that_is_not_a_str_bytes_or_binary_file_is_refused_by_type(parse, tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("a b\n")
    with open(path) as text_mode:
        for text in (text_mode, io.StringIO("a b"), 5):
            with pytest.raises(ConfigurationError, match=f"got {type(text).__name__} .*binary"):
                parse(text)


class Trickle(io.RawIOBase):
    """A pipe's bytes: of unknown size, read at most ``chunk`` at a time."""

    def __init__(self, data: bytes, chunk: int):
        self.data, self.at, self.chunk = data, 0, chunk

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        size = min(len(buffer), self.chunk, len(self.data) - self.at)
        memoryview(buffer).cast("B")[:size] = self.data[self.at:self.at + size]
        self.at += size
        return size


STREAM_LABELS = st.sampled_from(["a", "b", "d10", "\u00e9", "\U0001f600x", "abcdefghi\u00e9",
                                 "\u3042" * 5, "#x"])


@st.composite
def streamed_texts(draw, labels=STREAM_LABELS) -> tuple[bytes, bool]:
    """UTF-8 text of every line class (endings with and without ``'\\n'``,
    so some texts have none; comments, blank lines, a last line without
    an ending), perhaps opening with a byte-order mark; and, in text
    without malformed lines, one byte at any offset that makes it not UTF-8.
    Returns the bytes and whether that byte is in them."""
    bad = draw(st.booleans())
    texts = st.one_of(line_texts(labels, malformed=not bad),
                      ascii_line_texts(malformed=not bad))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))  # between texts, so no line is joined
    mark = draw(st.sampled_from(["", "\ufeffa b" + ending]))  # a byte-order mark on a pair line
    text = mark + ending.join(draw(st.lists(texts, max_size=4)))
    data = text.encode()
    if bad:  # a byte no sequence takes, or a lead byte cut off (at the end, by the end)
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3"])) + data[at:]
    return data, bad


def utf8_error(data: bytes) -> tuple | None:
    """The :func:`outcome` error of a parse that meets ``data``'s first
    byte that is not UTF-8, as ``bytes.decode`` names it."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return ParseError, f"not valid UTF-8 at byte {exc.start}", None
    return None


@contextlib.contextmanager
def counted_growth():
    """Record the dimensions of each buffer the parsers grow: 1 for the
    edge parse's ids, 2 for the block parse's pairs."""
    grown = []
    grow = blockrank.tokens._grow

    def counted(buffer, size):
        if len(buffer) < size:
            grown.append(buffer.ndim)
        return grow(buffer, size)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(blockrank.graph, "_grow", counted)
        patch.setattr(blockrank.decomp, "_grow", counted)
        yield grown


@PARSE_SETTINGS
@given(streamed_texts(), st.integers(16, 64), st.integers(1, 9), st.data())
def test_streamed_parse_matches_the_whole_text(case, window, chunk, data):
    """Read from a pipe in windows of 16 to 64 bytes and reads of 1 to 9
    (so a "\\r\\n" or a character is split between two reads), both parsers
    give what they give for the whole text in one window: the same graph
    and decomposition, or the same error, ``not valid UTF-8 at byte N``
    included.  A pipe's size is unknown, so its id buffers are grown."""
    edges, bad = case
    g, error = outcome(parse_edge_list, edges)
    if bad:  # no line is malformed, so the error is the one bytes.decode names
        assert error == utf8_error(edges)
    labels = list(g.labels) if g is not None else ["a"]
    if not bad:  # an unknown label would be met before a bad byte in a later window
        labels.append("zz")
    blocks = data.draw(line_texts(st.sampled_from(labels), malformed=not bad)).encode()
    if bad:
        at = data.draw(st.integers(0, len(blocks)))
        blocks = blocks[:at] + b"\xff" + blocks[at:]
    d = outcome(parse_blocks, blocks, g) if g is not None else None
    if bad and d is not None:
        assert d[1] == utf8_error(blocks)
    with pytest.MonkeyPatch.context() as patch, counted_growth() as grown:
        patch.setattr(blockrank.tokens, "WINDOW", window)
        assert Source.of(Trickle(edges, chunk)).size is None
        streamed, streamed_error = outcome(parse_edge_list, Trickle(edges, chunk))
        assert streamed_error == error
        if g is not None:
            assert grown and set(grown) == {1}
            assert streamed.labels == g.labels
            assert np.array_equal(streamed.indptr, g.indptr)
            assert np.array_equal(streamed.indices, g.indices)
            got = outcome(parse_blocks, Trickle(blocks, chunk), g)
            assert got[1] == d[1]
            if d[1] is None:
                assert 2 in grown
                assert got[0].block_labels == d[0].block_labels
                assert_same_csr(got[0].B, d[0].B)


@PARSE_SETTINGS
@given(streamed_texts(), st.integers(16, 64))
@example((b"\xef\xbb\xbfa b\r\n" + b"a \xc3\xa9\r\n" * 40 + b"\xff a\r\n", True), 16)
def test_cli_loader_reads_a_file_as_the_whole_text(case, window):
    """The CLI's loader reads a file in windows, less its byte-order mark:
    it gives what a parse of the text after the mark gives, and a bad
    byte's offset counts the mark."""
    edges, _ = case
    mark = 3 * edges.startswith(b"\xef\xbb\xbf")
    g, error = outcome(parse_edge_list, edges[mark:])
    if error is not None and "UTF-8" in error[1]:
        at = int(error[1].rsplit(" ", 1)[1]) + mark
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
        path = os.path.join(directory, "streamed.edges")
        with open(path, "wb") as file:
            file.write(edges)
        patch.setattr(blockrank.tokens, "WINDOW", window)
        got, got_error = outcome(cli._parse, path, parse_edge_list)
    if error is not None and "UTF-8" in error[1]:
        assert got_error == (ParseError, f"{path}: not valid UTF-8 at byte {at}", None)
    else:
        assert got_error == error
        if error is None:
            assert got.labels == g.labels and np.array_equal(got.indices, g.indices)
