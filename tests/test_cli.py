"""Command-line interface: subcommands, exit codes, deterministic output."""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np
import pytest

from blockrank.cli import main

from helpers import G4_BLOCKS, G4_EDGES

SPLIT_EDGES = "a b\nb a\nc d\nd c\n"
SPLIT_BLOCKS = "a B1\nb B1\nc B2\nd B2\n"


@pytest.fixture
def g4_files(tmp_path):
    graph = tmp_path / "g4.edges"
    blocks = tmp_path / "g4.blocks"
    graph.write_text(G4_EDGES, encoding="utf-8")
    blocks.write_text(G4_BLOCKS, encoding="utf-8")
    return str(graph), str(blocks)


@pytest.fixture
def split_files(tmp_path):
    graph = tmp_path / "split.edges"
    blocks = tmp_path / "split.blocks"
    graph.write_text(SPLIT_EDGES, encoding="utf-8")
    blocks.write_text(SPLIT_BLOCKS, encoding="utf-8")
    return str(graph), str(blocks)


def run(args):
    return main(args)


class TestCheck:
    def test_admissible_exits_zero(self, g4_files, capsys):
        graph, blocks = g4_files
        code = run(["check", "--graph", graph, "--blocks", blocks])
        out = capsys.readouterr().out
        assert code == 0
        assert "irreducible\ttrue" in out
        assert "admissible\ttrue" in out
        assert "scc_count\t1" in out

    def test_reducible_exits_one_and_lists_components(self, split_files, capsys):
        graph, blocks = split_files
        code = run(["check", "--graph", graph, "--blocks", blocks])
        out = capsys.readouterr().out
        assert code == 1
        assert "irreducible\tfalse" in out
        assert "component\tB1" in out
        assert "component\tB2" in out

    def test_json_format(self, g4_files, capsys):
        graph, blocks = g4_files
        code = run(["check", "--graph", graph, "--blocks", blocks, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload == {
            "blocks": 2,
            "scc_count": 1,
            "irreducible": True,
            "admissible": True,
            "components": [],
        }

    def test_missing_graph_file_exits_two(self, g4_files, capsys):
        _, blocks = g4_files
        code = run(["check", "--graph", "/nonexistent.edges", "--blocks", blocks])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_coverage_error_exits_two(self, tmp_path, g4_files, capsys):
        graph, _ = g4_files
        partial = tmp_path / "partial.blocks"
        partial.write_text("a B1\nb B1\nc B2\n", encoding="utf-8")
        code = run(["check", "--graph", graph, "--blocks", str(partial)])
        assert code == 2
        assert "d" in capsys.readouterr().err


class TestRank:
    def test_scores_sorted_and_normalized(self, g4_files, capsys):
        graph, blocks = g4_files
        code = run(["rank", "--graph", graph, "--blocks", blocks,
                    "--eta", "0.5", "--mu", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert len(rows) == 4
        scores = [float(s) for _, s in rows]
        assert abs(sum(scores) - 1.0) <= 1e-9
        assert scores == sorted(scores, reverse=True)
        assert [label for label, _ in rows] == ["a", "b", "d", "c"]

    def test_top_truncates(self, g4_files, capsys):
        graph, blocks = g4_files
        code = run(["rank", "--graph", graph, "--blocks", blocks, "--top", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_json_meta(self, g4_files, capsys):
        graph, blocks = g4_files
        code = run(["rank", "--graph", graph, "--blocks", blocks,
                    "--eta", "0.5", "--mu", "0.5", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert set(payload) == {"scores", "meta"}
        meta = payload["meta"]
        assert meta["converged"] is True
        assert meta["admissible"] is True
        assert meta["eta"] == 0.5 and meta["mu"] == 0.5 and meta["teleport"] == 0.0
        assert meta["residual"] <= 1e-9
        assert abs(sum(payload["scores"].values()) - 1.0) <= 1e-9

    def test_three_term_model(self, g4_files, capsys):
        graph, blocks = g4_files
        code = run(["rank", "--graph", graph, "--blocks", blocks,
                    "--eta", "0.6", "--mu", "0.3", "--teleport", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        scores = [float(line.split("\t")[1]) for line in out.strip().splitlines()]
        assert abs(sum(scores) - 1.0) <= 1e-9

    def test_inconsistent_weights_exit_two(self, g4_files, capsys):
        graph, blocks = g4_files
        code = run(["rank", "--graph", graph, "--blocks", blocks,
                    "--eta", "0.6", "--mu", "0.3", "--teleport", "0.2"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--eta", "--mu", "--teleport", "--tol"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_flags_exit_two(self, g4_files, capsys, flag, value):
        graph, blocks = g4_files
        for command in ("rank", "compare"):
            code = run([command, "--graph", graph, "--blocks", blocks, f"{flag}={value}"])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert "finite" in captured.err or "must be in" in captured.err

    def test_non_positive_top_exits_two(self, g4_files, capsys):
        graph, blocks = g4_files
        for top in ("0", "-2"):
            code = run(["rank", "--graph", graph, "--blocks", blocks, "--top", top])
            assert code == 2
            assert "--top" in capsys.readouterr().err

    def test_strict_reducible_exits_one(self, split_files, capsys):
        graph, blocks = split_files
        code = run(["rank", "--graph", graph, "--blocks", blocks,
                    "--eta", "0.5", "--mu", "0.5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "B1" in captured.err and "B2" in captured.err

    def test_no_strict_overrides_the_gate(self, split_files, capsys):
        graph, blocks = split_files
        code = run(["rank", "--graph", graph, "--blocks", blocks,
                    "--eta", "0.5", "--mu", "0.5", "--no-strict"])
        out = capsys.readouterr().out
        assert code in (0, 3)
        assert len(out.strip().splitlines()) == 4

    def test_pagerank_compatible_flags_match_baseline(self, g4_files, capsys):
        graph, blocks = g4_files
        assert run(["rank", "--graph", graph, "--blocks", blocks,
                    "--eta", "0.85", "--mu", "0", "--teleport", "0.15"]) == 0
        ours = capsys.readouterr().out
        # identical model expressed through the baseline path
        from blockrank import DanglingPolicy, build_hyperlink, pagerank, parse_blocks, parse_edge_list
        g = parse_edge_list(G4_EDGES)
        d = parse_blocks(G4_BLOCKS, g)
        h = build_hyperlink(g, DanglingPolicy.OWN_BLOCK, d)
        base = pagerank(h, alpha=0.85)
        got = {line.split("\t")[0]: float(line.split("\t")[1]) for line in ours.strip().splitlines()}
        for i, label in enumerate(g.labels):
            assert got[label] == pytest.approx(base.scores[i], abs=1e-12)

    def test_non_convergence_exits_three(self, tmp_path, capsys):
        # periodic pure-link chain with a single block passes the gate but
        # oscillates forever
        graph = tmp_path / "periodic.edges"
        blocks = tmp_path / "periodic.blocks"
        graph.write_text("a b\nb a\nb c\nc b\n", encoding="utf-8")
        blocks.write_text("a B\nb B\nc B\n", encoding="utf-8")
        code = run(["rank", "--graph", str(graph), "--blocks", str(blocks),
                    "--eta", "1.0", "--mu", "0", "--max-iter", "50"])
        captured = capsys.readouterr()
        assert code == 3
        assert "warning" in captured.err

    def test_non_convergence_warning_projects_the_remaining_steps(self, g4_files, capsys):
        graph, blocks = g4_files
        code = run(["rank", "--graph", graph, "--blocks", blocks, "--max-iter", "3"])
        captured = capsys.readouterr()
        assert code == 3
        assert "observed rate" in captured.err and "more to reach tol 1e-09" in captured.err
        assert "rate" not in captured.out

    def test_compare_names_the_run_that_did_not_converge(self, g4_files, capsys):
        graph, blocks = g4_files
        code = run(["compare", "--graph", graph, "--blocks", blocks, "--max-iter", "3"])
        err = capsys.readouterr().err
        assert code == 3
        assert "no convergence of the model after 3 iterations" in err
        assert "no convergence of the baseline after 3 iterations" in err


class TestCompare:
    def test_identical_models_have_zero_distance(self, tmp_path, capsys):
        # single block with eta=0.85, mu=0, teleport=0.15 IS the baseline
        graph = tmp_path / "g.edges"
        blocks = tmp_path / "g.blocks"
        graph.write_text(G4_EDGES, encoding="utf-8")
        blocks.write_text("a B\nb B\nc B\nd B\n", encoding="utf-8")
        code = run(["compare", "--graph", str(graph), "--blocks", str(blocks),
                    "--eta", "0.85", "--mu", "0", "--teleport", "0.15"])
        out = capsys.readouterr().out
        assert code == 0
        fields = dict(line.split("\t", 1) for line in out.strip().splitlines())
        assert float(fields["l1"]) == 0.0
        assert float(fields["overlap"]) == 1.0

    def test_reference_comparison(self, g4_files, capsys):
        graph, blocks = g4_files
        code = run(["compare", "--graph", graph, "--blocks", blocks,
                    "--eta", "0.5", "--mu", "0.5", "--top", "2"])
        out = capsys.readouterr().out
        assert code == 0
        fields = dict(line.split("\t", 1) for line in out.strip().splitlines())
        assert float(fields["l1"]) > 0
        assert fields["k"] == "2"
        assert fields["clipped"] == "false"
        assert set(fields["top_model"].split(",")) <= {"a", "b", "c", "d"}

    def test_top_clipped_with_warning(self, g4_files, capsys):
        graph, blocks = g4_files
        code = run(["compare", "--graph", graph, "--blocks", blocks, "--top", "9"])
        captured = capsys.readouterr()
        assert code == 0
        fields = dict(line.split("\t", 1) for line in captured.out.strip().splitlines())
        assert fields["k"] == "4"
        assert fields["clipped"] == "true"
        assert "clipped" in captured.err

    def test_json_payload(self, g4_files, capsys):
        graph, blocks = g4_files
        code = run(["compare", "--graph", graph, "--blocks", blocks,
                    "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["model_converged"] and payload["baseline_converged"]
        assert payload["k"] == 4  # default 10 clipped to n
        assert len(payload["top_model"]) == 4


class TestMaterialize:
    def test_reference_blocks(self, g4_files, capsys):
        graph, blocks = g4_files
        code = run(["materialize", "--graph", graph, "--blocks", blocks])
        out = capsys.readouterr().out
        assert code == 0
        sections: dict[str, list[list[float]]] = {}
        current = None
        for line in out.strip().splitlines():
            if line.startswith("# "):
                current = line[2:]
                sections[current] = []
            else:
                sections[current].append([float(tok) for tok in line.split("\t")])
        assert set(sections) == {"H", "M", "R", "A", "W"}
        assert sections["W"] == [[0.75, 0.25], [0.25, 0.75]]
        np.testing.assert_allclose(
            np.array(sections["M"]),
            np.array(sections["R"]) @ np.array(sections["A"]),
            atol=1e-15,
        )
        assert sections["H"][2] == [0.0, 0.0, 0.0, 1.0]

    def test_dangling_row_under_block_policy(self, tmp_path, capsys):
        # dangling c with a singleton block: its substituted row is e_c
        graph = tmp_path / "d.edges"
        blocks = tmp_path / "d.blocks"
        graph.write_text("a b\nb c\n", encoding="utf-8")
        blocks.write_text("a B1\nb B1\nc B2\n", encoding="utf-8")
        code = run(["materialize", "--graph", str(graph), "--blocks", str(blocks),
                    "--dangling", "block"])
        out = capsys.readouterr().out
        assert code == 0
        h_rows = out.split("# H\n")[1].split("# ")[0].strip().splitlines()
        assert h_rows[2] == "0\t0\t1"

    def test_unknown_block_label_exits_two(self, tmp_path, capsys):
        graph = tmp_path / "d.edges"
        blocks = tmp_path / "d.blocks"
        graph.write_text("a b\n", encoding="utf-8")
        blocks.write_text("a B1\nb B1\nc B2\n", encoding="utf-8")
        # c never appears in the graph text: unknown labels are hard errors
        code = run(["materialize", "--graph", str(graph), "--blocks", str(blocks)])
        assert code == 2
        assert "c" in capsys.readouterr().err

    def test_json_format(self, g4_files, capsys):
        graph, blocks = g4_files
        code = run(["materialize", "--graph", graph, "--blocks", blocks,
                    "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["W"] == [[0.75, 0.25], [0.25, 0.75]]

    def test_cap_exceeded_exits_two(self, tmp_path, capsys):
        n = 2101  # above the 2000-node materialization cap
        graph = tmp_path / "big.edges"
        blocks = tmp_path / "big.blocks"
        graph.write_text(
            "\n".join(f"n{i} n{(i + 1) % n}" for i in range(n)), encoding="utf-8"
        )
        blocks.write_text("\n".join(f"n{i} B" for i in range(n)), encoding="utf-8")
        code = run(["materialize", "--graph", str(graph), "--blocks", str(blocks)])
        assert code == 2
        assert "cap" in capsys.readouterr().err


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, g4_files, capsys):
        graph, blocks = g4_files
        args = ["rank", "--graph", graph, "--blocks", blocks,
                "--eta", "0.5", "--mu", "0.5", "--format", "json"]
        assert run(args) == 0
        first = capsys.readouterr().out
        assert run(args) == 0
        second = capsys.readouterr().out
        assert first.encode() == second.encode()

    def test_all_commands_are_deterministic(self, g4_files, capsys):
        graph, blocks = g4_files
        for command in ("check", "rank", "compare", "materialize"):
            args = [command, "--graph", graph, "--blocks", blocks]
            run(args)
            first = capsys.readouterr().out
            run(args)
            assert first == capsys.readouterr().out


def _corpus(seed: int, n: int, k: int, overlap: float) -> tuple[bytes, bytes]:
    """Seeded edge and block files exercising every input-format corner.

    Node ``p<i>`` sits in block ``i % k``; a share ``overlap`` of the nodes
    joins a second block.  About 10% of the nodes are dangling.  The text
    mixes duplicate edges, self-loops, ``#`` comments, blank lines, ragged
    whitespace and CRLF line endings.  A ring of links through every block
    keeps the teleport-free model admissible.
    """
    rnd = random.Random(seed)
    labels = [f"p{i}" for i in range(n)]
    dangling = set(rnd.sample(range(k, n), n // 10))
    home = [[i for i in range(n) if i % k == b] for b in range(k)]
    edges = [(b, home[(b + 1) % k][0]) for b in range(k)]
    edges += [(u % k, u) for u in sorted(dangling)]  # labels come from edges
    for u in range(n):
        if u in dangling:
            continue
        for _ in range(rnd.randint(1, 6)):
            pool = home[u % k] if rnd.random() < 0.8 else range(n)
            edges.append((u, rnd.choice(pool)))
        if rnd.random() < 0.05:
            edges.append((u, u))
    edges += rnd.sample(edges, len(edges) // 20)
    rnd.shuffle(edges)

    lines = ["# seeded corpus"]
    for u, v in edges:
        if rnd.random() < 0.03:
            lines.append(rnd.choice(["", "   ", "# note", "  # indented comment"]))
        sep = rnd.choice([" ", "\t", "  ", " \t "])
        lines.append(f"{rnd.choice(['', ' '])}{labels[u]}{sep}{labels[v]}")
    memberships = [(u, u % k) for u in range(n)]
    memberships += [(u, (u % k + 1) % k) for u in range(n) if rnd.random() < overlap]
    rnd.shuffle(memberships)
    block_lines = ["# memberships", ""] + [f"{labels[u]} C{b}" for u, b in memberships]
    return ("\r\n".join(lines) + "\r\n").encode(), ("\n".join(block_lines) + "\n").encode()


CORPORA = {
    "g4": lambda: (G4_EDGES.encode(), G4_BLOCKS.encode()),
    "partition": lambda: _corpus(11, 300, 7, 0.0),
    "cover": lambda: _corpus(12, 300, 9, 0.15),
}

GOLDEN_ARGS = {
    "check": ["check"],
    "check-json": ["check", "--format", "json"],
    "rank": ["rank"],
    "rank-json": ["rank", "--format", "json"],
    "rank-uniform": ["rank", "--dangling", "uniform", "--eta", "0.8", "--mu", "0.1",
                     "--teleport", "0.1", "--top", "25"],
    "compare": ["compare"],
    "compare-json": ["compare", "--format", "json", "--top", "20"],
}

# (exit code, sha256 of stdout) recorded from the per-node reference
# implementation; any construction rewrite must reproduce them exactly.
GOLDEN = {
    "cover/check": (0, "f2d20651cf05d04b7d693a8b16f3fe71dbacc1d959a0e481097a19d6373cf716"),
    "cover/check-json": (0, "66159abb403aa04c211e563b909ff7157dfe0bfa4a98e8eae567c49dab9076fd"),
    "cover/compare": (0, "372bf0fbf23bbabe1ec216cde5d9981386dd1cd6613c5b8d1388877960ee7275"),
    "cover/compare-json": (0, "58cb02ecf959f5e0e5fbd2c1c37c852d0784e18f8f29a9c6c5a8aba54caf2807"),
    "cover/rank": (0, "dc8db71af81e380210dbeadf39807915e2970ae0201a5c872084538f591c7083"),
    "cover/rank-json": (0, "0117be24d8eac5ea40a1452419c752cd3283161570c993ef331a3748fc9289fd"),
    "cover/rank-uniform": (0, "c67215ac8151126667ad63d36a3bdae8851f15046c3c78b38929f469d4c5d71b"),
    "g4/check": (0, "1fce3837656fa4044d6bab1c6f72a826fc62e02278867a33383a4d1e85f45fc4"),
    "g4/check-json": (0, "83c191b2654b7193dc7783fbf3aa709faafa45503d873f90098769bb89a4acc2"),
    "g4/compare": (0, "0a55b9088e35285d533c8ce65fdd843dd1de335bd94732a531830f0786e9af0c"),
    "g4/compare-json": (0, "a8a2a1219479978cbdb606ae64d6a05daee4082fd09c3ee4f11fed08069c0c90"),
    "g4/rank": (0, "87d2b842f504af1b5099c52211fdd30d60a9479e0b23002b67c0434366adc357"),
    "g4/rank-json": (0, "d7056235b4f4b30e5f55d62e971a1b80cdc810416fe4007974b24b642f21f1d9"),
    "g4/rank-uniform": (0, "59841ca87a649becfb20d92297a1de35637a5335415cb5ea30b41fc8c301ddea"),
    "partition/check": (0, "1d38b0ec90c77776feacf0bad6d09fdb6553a49ad17828de5073135f588837b5"),
    "partition/check-json": (0, "035061b3e03fee64f33954baf9a4a1c04b75498180f03d344f2e67fb30f1f04c"),
    "partition/compare": (0, "dbd391e907fd255b59bc042c95b011fb55e39abd1b027b47111557cc9889a7e5"),
    "partition/compare-json": (0, "fb8590f09ad8a856594501b793a2ae826efa057e87169e657a1ceff72fe24231"),
    "partition/rank": (0, "bef4392331c6a7ddef3ff8ee9596951f0725d40cb9e8aba9136d14faba5f6f76"),
    "partition/rank-json": (0, "52efd643fd8dca5bf89b210fd3140b722661e498b98cb6ce19b51824c120be4a"),
    "partition/rank-uniform": (0, "6f8e30457978d5690545188e32e50cc530cb5d76e60a439dc67c6d6f7ecde9c1"),
}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
@pytest.mark.parametrize("command", sorted(GOLDEN_ARGS))
def test_golden_stdout(corpus, command, tmp_path, capsys):
    edges, blocks = CORPORA[corpus]()
    graph_path, blocks_path = tmp_path / "c.edges", tmp_path / "c.blocks"
    graph_path.write_bytes(edges)
    blocks_path.write_bytes(blocks)
    code = run(GOLDEN_ARGS[command] + ["--graph", str(graph_path), "--blocks", str(blocks_path)])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == GOLDEN[f"{corpus}/{command}"]
