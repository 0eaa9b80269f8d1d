"""Command-line interface: subcommands, exit codes, deterministic output."""

from __future__ import annotations

import argparse
import codecs
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
import types
from math import inf, nan

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import blockrank
from blockrank import (
    DanglingPolicy,
    FactorForm,
    RankParams,
    build_factors,
    build_hyperlink,
    dense_stationary,
    parse_blocks,
    parse_edge_list,
)
from blockrank.cli import _build_parser, _parse_args, main
from blockrank.ranker import block_aggregation, fmt

from helpers import G4_BLOCKS, G4_EDGES, dense_surfing

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

    @pytest.mark.parametrize("which", ["graph", "blocks"])
    def test_undecodable_file_exits_two(self, tmp_path, g4_files, capsys, which):
        files = dict(zip(("graph", "blocks"), g4_files))
        bad = tmp_path / f"bad.{which}"
        bad.write_bytes(b"a b\n\xff b\n")
        files[which] = str(bad)
        code = run(["check", "--graph", files["graph"], "--blocks", files["blocks"]])
        assert code == 2
        assert capsys.readouterr().err == f"error: {bad}: not valid UTF-8 at byte 4\n"

    @pytest.mark.parametrize("which, text, err", [
        ("graph", b"a b\nb c d\n", "line 2: expected 'src dst', got 3 token(s)"),
        ("graph", b"\xef\xbb\xbfa b\nb c d\n", "line 2: expected 'src dst', got 3 token(s)"),
        ("blocks", b"a B1\nb B1 B2\n", "line 2: expected 'node_label block_label', got 3 token(s)"),
        ("graph", b"# comment\n\n  \n# another\n", "empty graph"),
    ], ids=["edges", "edges-with-mark", "blocks", "comments-only"])
    def test_malformed_file_exits_two_naming_its_line(self, tmp_path, g4_files, capsys,
                                                      which, text, err):
        """A parse error that counts lines, not bytes, passes through as
        raised; a byte-order mark is not a line."""
        files = dict(zip(("graph", "blocks"), g4_files))
        bad = tmp_path / f"bad.{which}"
        bad.write_bytes(text)
        files[which] = str(bad)
        code = run(["check", "--graph", files["graph"], "--blocks", files["blocks"]])
        assert code == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    def test_utf8_is_checked_once_and_counted_from_the_byte_order_mark(
            self, tmp_path, g4_files, capsys, monkeypatch):
        """A non-ASCII file is decoded once on its way to a parse, and the
        offset of a byte that is not UTF-8 counts the byte-order mark."""
        decoders = []

        def counted(encoding):
            decoders.append(encoding)
            return codecs.getincrementaldecoder(encoding)

        monkeypatch.setattr(blockrank.tokens, "codecs",
                            types.SimpleNamespace(getincrementaldecoder=counted))
        wide, blocks = tmp_path / "wide.edges", tmp_path / "wide.blocks"
        wide.write_text("\ufeffa b\nb \u00e9\n\u00e9 a\n", encoding="utf-8")
        blocks.write_text("a X\nb X\n\u00e9 X\n", encoding="utf-8")
        assert run(["check", "--graph", str(wide), "--blocks", str(blocks)]) == 0
        assert decoders == ["utf-8", "utf-8"]  # one per non-ASCII file
        capsys.readouterr()
        bad = tmp_path / "bad.edges"
        bad.write_bytes(b"\xef\xbb\xbfa b\n\xff b\n")
        assert run(["check", "--graph", str(bad), "--blocks", g4_files[1]]) == 2
        assert capsys.readouterr().err == f"error: {bad}: not valid UTF-8 at byte 7\n"


# Run in a fresh interpreter: what `import blockrank.cli`, and then a
# `check`, load beyond numpy and scipy.sparse themselves.  scipy releases
# before lazy submodule loading import csgraph (and with it both linalg
# packages) in `import scipy.sparse`; there the differences are empty, and
# "csgraph" says whether the components pass can have run.
IMPORT_PROBE = """
import json, sys
import numpy, scipy.sparse
base = set(sys.modules)
from blockrank.cli import main
imported = sorted(set(sys.modules) - base)
code = main(sys.argv[1:])
checked = sorted(set(sys.modules) - base)
print(json.dumps({"code": code, "imported": imported, "checked": checked,
                  "csgraph": "scipy.sparse.csgraph" in sys.modules}))
"""
LINEAR_ALGEBRA = ("scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg")


def probe_imports(args: list[str]) -> tuple[list[str], dict]:
    src = os.path.dirname(os.path.dirname(blockrank.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *args], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout.splitlines()
    return out[:-1], json.loads(out[-1])


def linear_algebra(modules: list[str]) -> list[str]:
    return [m for m in modules
            if any(m == n or m.startswith(n + ".") for n in LINEAR_ALGEBRA)]


class TestImports:
    def test_admissible_check_loads_no_linear_algebra(self, g4_files):
        graph, blocks = g4_files
        printed, probe = probe_imports(["check", "--graph", graph, "--blocks", blocks])
        assert probe["code"] == 0 and "admissible\ttrue" in printed
        assert any(m.startswith("blockrank") for m in probe["imported"])
        assert linear_algebra(probe["imported"]) == []
        assert linear_algebra(probe["checked"]) == []

    def test_reducible_check_still_names_its_components(self, split_files):
        graph, blocks = split_files
        printed, probe = probe_imports(["check", "--graph", graph, "--blocks", blocks])
        assert probe["code"] == 1
        assert printed[-2:] == ["component\tB1", "component\tB2"]
        assert linear_algebra(probe["imported"]) == []
        assert probe["csgraph"]

    def test_materialize_runs_no_check(self, split_files):
        # W is dense output here, not a verdict: a reducible one leaves the
        # components pass unimported
        graph, blocks = split_files
        printed, probe = probe_imports(["materialize", "--graph", graph, "--blocks", blocks])
        assert probe["code"] == 0 and "# W" in printed
        assert linear_algebra(probe["checked"]) == []


FILES = ["--graph", "g", "--blocks", "b"]
MODEL_FLAGS = [["--eta", "0.5"], ["--mu", "0.5"], ["--teleport", "0"], ["--tol", "1e-6"],
               ["--max-iter", "5"], ["--top", "3"], ["--no-strict"]]


class TestFlags:
    @pytest.mark.parametrize("command, flag", [
        *(("check", flag) for flag in [["--dangling", "block"], *MODEL_FLAGS]),
        *(("materialize", flag) for flag in MODEL_FLAGS),
        ("rank", ["--bogus"]),
    ])
    def test_flag_the_command_does_not_read_exits_two(self, g4_files, capsys, command, flag):
        graph, blocks = g4_files
        with pytest.raises(SystemExit) as exc:
            run([command, "--graph", graph, "--blocks", blocks, *flag])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # the command's own parser reports it, with the command's usage line
        assert captured.err.startswith(f"usage: blockrank {command} [-h] --graph GRAPH")
        assert captured.err.endswith(
            f"blockrank {command}: error: unrecognized arguments: {' '.join(flag)}\n")

    def test_flags_per_command(self):
        parser = _build_parser()
        settable = {command: set(vars(parser.parse_args([command, *FILES]))) - {"command", "run"}
                    for command in ("check", "materialize", "rank", "compare")}
        assert settable["check"] == {"graph", "blocks", "output_format"}
        assert settable["materialize"] == settable["check"] | {"dangling"}
        assert settable["rank"] == settable["compare"]
        assert len(settable["rank"]) == 11

    def test_rank_and_compare_defaults_are_the_library_defaults(self):
        parser = _build_parser()
        rank, compare = (vars(parser.parse_args([command, *FILES]))
                         for command in ("rank", "compare"))
        for args in (rank, compare):
            del args["command"], args["run"]
        assert rank == compare
        assert (rank["eta"], rank["mu"], rank["tol"], rank["max_iter"]) == (
            RankParams.eta, RankParams.mu, RankParams.tol, RankParams.max_iter)
        assert DanglingPolicy(rank["dangling"]) is DanglingPolicy.OWN_BLOCK
        assert parser.parse_args(["check", *FILES]).output_format == "tsv"

    def test_flags_are_checked_before_the_files_are_read(self, g4_files, capsys, monkeypatch):
        def refuse(text):
            raise AssertionError("edge list parsed")

        monkeypatch.setattr("blockrank.cli.parse_edge_list", refuse)
        graph, blocks = g4_files
        assert run(["rank", "--graph", graph, "--blocks", blocks, "--tol", "nan"]) == 2
        assert capsys.readouterr().err == "error: tol must be positive and finite, got nan\n"

    def test_byte_order_marks_are_ignored(self, tmp_path, capsys):
        outputs = set()
        for marks in ("", "g", "b", "gb"):
            graph, blocks = tmp_path / f"{marks}.edges", tmp_path / f"{marks}.blocks"
            graph.write_text(("\ufeff" if "g" in marks else "") + G4_EDGES, encoding="utf-8")
            blocks.write_text(("\ufeff" if "b" in marks else "") + G4_BLOCKS, encoding="utf-8")
            assert run(["rank", "--graph", str(graph), "--blocks", str(blocks)]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1
        assert outputs.pop().startswith(("a\t", "b\t", "c\t", "d\t"))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_byte_order_mark_read_a_byte_at_a_time_from_a_pipe(self, tmp_path, g4_files, capsys):
        """A pipe may hand over fewer than the mark's 3 bytes in its first
        read: the mark is still dropped, and an offset still counts it."""
        graph, blocks = g4_files
        assert run(["rank", "--graph", graph, "--blocks", blocks]) == 0
        want = capsys.readouterr().out
        cases = [(G4_EDGES.encode(), 0, ""),
                 (b"a b\n\xff b\n", 2, "not valid UTF-8 at byte 7")]
        for i, (data, code, err) in enumerate(cases):
            pipe = tmp_path / f"pipe{i}"
            os.mkfifo(pipe)

            def write(pipe=pipe, data=b"\xef\xbb\xbf" + data):
                with open(pipe, "wb", buffering=0) as out:
                    for at in range(3):  # the mark, a byte per read
                        out.write(data[at:at + 1])
                        time.sleep(0.02)
                    out.write(data[3:])

            writer = threading.Thread(target=write, daemon=True)
            writer.start()
            assert run(["rank", "--graph", str(pipe), "--blocks", blocks]) == code
            writer.join(10)
            out, got = capsys.readouterr()
            if code:
                assert got == f"error: {pipe}: {err}\n"
            else:
                assert out == want


# Exit code and SHA-256 of stdout and stderr of each argv that ends at the
# parser, recorded from the top-level parser that held every command's, on
# Python 3.11 at 80 columns.  argparse's layout may differ on other Python
# releases, where only the comparison with that parser below runs.
EMPTY = hashlib.sha256(b"").hexdigest()
USAGE_PINS = {
    ("--help",):
        (0, "da676b5b70d5e864a02d2e27743e3eb9c360d1758ddd744a77760cfe0dac6702", EMPTY),
    ():
        (2, EMPTY, "a2be57c7ccfc1a95d62a8b4ee55d57127b03c8a3a44bb7235cd453268e23ec6a"),
    ("bogus",):
        (2, EMPTY, "860c4e83b652d8c2071c4cdd6553a2c82548e7c5b68a5730496f00ead04ecd7b"),
    ("check", "--help"):
        (0, "d2db0f629ab9b2a559785f064167e02c96b89c5a87b9c5151222a69511eab56b", EMPTY),
    ("rank", "--help"):
        (0, "7f8561470187290e969602d36f652a00de3f2e1f4ff955bbc5a409be13e93f4e", EMPTY),
    ("compare", "--help"):
        (0, "9d9afc2cd7e5b8896d7141f79f7d4b80995de27ced473dfe3708296aa5acc2b2", EMPTY),
    ("materialize", "--help"):
        (0, "aa7856ccbfbf7a61f7a8552875a77c33c38ef8cdfd1c64a08e7b6c39169585a2", EMPTY),
    ("check", *FILES, "--bogus"):
        (2, EMPTY, "bd61a5d241db8845cdcddd8080d51048b897b57b557b5240fab3ee94b36b9cfd"),
    ("rank", *FILES, "--bogus"):
        (2, EMPTY, "c9bc99021b35ba80ce01d8f0dcfc147cae21397874d2eab22595ce841d6bd658"),
    ("compare", *FILES, "--bogus"):
        (2, EMPTY, "52aede52c5273442d99a6849b898bcdc9b1cdecf9def5ca714917eb982a393aa"),
    ("materialize", *FILES, "--bogus"):
        (2, EMPTY, "e878fa8f6c3fa5791259fc8e0e7d46f821b2bf663021b5c5e982905150f83a13"),
}
USAGE_PINNED_ON = (3, 11)


def parse_outcome(parse, argv, capsys) -> tuple[object, str, str]:
    with pytest.raises(SystemExit) as exc:
        parse(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestUsage:
    @pytest.mark.skipif(sys.version_info[:2] != USAGE_PINNED_ON,
                        reason="usage bytes were recorded with Python 3.11's argparse")
    @pytest.mark.parametrize("argv", USAGE_PINS)
    def test_usage_bytes_are_pinned(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = parse_outcome(main, argv, capsys)
        digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
        assert (code, digest(out), digest(err)) == USAGE_PINS[argv]

    @pytest.mark.parametrize("argv", [
        *USAGE_PINS, ("rank",), ("compare", *FILES, "--t", "1"), ("check", *FILES, "--fo", "x"),
        ("materialize", "--graph"), ("rank", *FILES, "--max-iter", "1.5"), ("-h", "check"),
    ])
    def test_a_command_parses_as_inside_the_top_level_parser(self, argv, capsys, monkeypatch):
        # main builds only the named command's parser
        monkeypatch.setenv("COLUMNS", "80")
        got = parse_outcome(main, argv, capsys)
        assert got == parse_outcome(_build_parser().parse_args, argv, capsys)

    def test_a_command_builds_no_other_parser(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        commands = ["check", "rank", "compare", "materialize"]
        for command in commands:
            built.clear()
            _parse_args([command, *FILES])
            assert built == [f"blockrank {command}"]
        built.clear()
        with pytest.raises(SystemExit):
            _parse_args(["--help"])
        assert built == ["blockrank", *(f"blockrank {command}" for command in commands)]


@given(st.floats() | st.floats(min_value=-1e-300, max_value=1e-300))
def test_rank_tsv_format_matches_fmt(x):
    """cmd_rank formats whole chunks of lines with "%.12g", which must print
    every float as fmt does: subnormals, signed zeros, inf and nan too."""
    for y in (x, 5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0, inf, -inf, nan):
        assert "%.12g" % y == fmt(y)


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

    def test_mu_zero_without_teleport_is_refused(self, tmp_path, capsys):
        # the gate decides P = eta H + mu R A through mu R A alone; with
        # mu = 0 it cannot, though W (X = {a, b, c}, Y = {c, d}) is irreducible
        graph, blocks = tmp_path / "cycles.edges", tmp_path / "cycles.blocks"
        graph.write_text("a b\nb a\nc d\nd c\n", encoding="utf-8")
        blocks.write_text("a X\nb X\nc X\nc Y\nd Y\n", encoding="utf-8")
        files = ["--graph", str(graph), "--blocks", str(blocks)]
        assert run(["check", *files]) == 0
        capsys.readouterr()
        for command in ("rank", "compare"):
            assert run([command, *files, "--eta", "1", "--mu", "0"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert run(["rank", *files, "--eta", "1", "--mu", "0", "--no-strict",
                    "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["meta"]["admissible"] is False

    def test_uniform_dangling_gate_follows_the_policy(self, tmp_path, capsys):
        # W is reducible (X -> Y, and Y is a sink), but b dangles in Y: under
        # --dangling uniform P is primitive and ranks; under --dangling block
        # it is refused, and check keeps that (the paper's) verdict
        graph, blocks = tmp_path / "sink.edges", tmp_path / "sink.blocks"
        graph.write_text("a b\n", encoding="utf-8")
        blocks.write_text("a X\nb Y\n", encoding="utf-8")
        files = ["--graph", str(graph), "--blocks", str(blocks), "--eta", "0.7", "--mu", "0.3"]
        assert run(["rank", *files, "--dangling", "uniform", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["admissible"] is True
        assert payload["scores"] == {"b": 0.708333333299, "a": 0.291666666701}
        assert run(["compare", *files, "--dangling", "uniform"]) == 0
        capsys.readouterr()
        for command in ("rank", "compare"):
            assert run([command, *files, "--dangling", "block"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: indicator matrix is reducible; blocking components: X Y\n"
        assert run(["check", *files[:4]]) == 1

    def test_uniform_jump_without_a_dangling_node_is_refused(self, tmp_path, capsys):
        # b links to itself, so no node dangles and the sink block Y holds
        # none: refused under --dangling uniform too, naming W's components
        graph, blocks = tmp_path / "loop.edges", tmp_path / "loop.blocks"
        graph.write_text("a b\nb b\n", encoding="utf-8")
        blocks.write_text("a X\nb Y\n", encoding="utf-8")
        files = ["--graph", str(graph), "--blocks", str(blocks), "--dangling", "uniform"]
        for command in ("rank", "compare"):
            assert run([command, *files]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: indicator matrix is reducible; blocking components: X Y\n"

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
        assert captured.err == "error: indicator matrix is reducible; blocking components: B1 B2\n"

    @pytest.mark.parametrize("weights, code", [
        # eta + mu within 1e-9 of 1 leaves no teleportation, so the gate runs
        (("0.6", "0.3999999999", "0"), 1),
        (("0.6", "0.4000000001", "0"), 1),
        (("0.3333333333", "0.3333333333", "0.3333333334"), 0),
        (("0.9", "0.3"), 2),
    ])
    def test_one_weight_tolerance(self, split_files, capsys, weights, code):
        graph, blocks = split_files
        flags = [f"--{name}={value}" for name, value in zip(("eta", "mu", "teleport"), weights)]
        assert run(["rank", "--graph", graph, "--blocks", blocks, *flags]) == code
        err = capsys.readouterr().err
        if code == 1:
            assert err == "error: indicator matrix is reducible; blocking components: B1 B2\n"
        elif code == 2:
            assert "eta + mu exceeds 1" in err

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
        # periodic pure-link chain with a single block, run past the gate
        # (which refuses mu = 0 without teleportation): it oscillates forever
        graph = tmp_path / "periodic.edges"
        blocks = tmp_path / "periodic.blocks"
        graph.write_text("a b\nb a\nb c\nc b\n", encoding="utf-8")
        blocks.write_text("a B\nb B\nc B\n", encoding="utf-8")
        code = run(["rank", "--graph", str(graph), "--blocks", str(blocks),
                    "--eta", "1.0", "--mu", "0", "--max-iter", "50", "--no-strict"])
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

    @pytest.mark.parametrize("command", ["rank", "compare"])
    def test_one_step_projects_no_rate(self, g4_files, command, capsys):
        # a single step observes no residual ratio: no rate, no projection
        graph, blocks = g4_files
        code = run([command, "--graph", graph, "--blocks", blocks, "--max-iter", "1",
                    "--top", "2"])
        lines = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(lines) == (1 if command == "rank" else 2)
        for line in lines:
            assert line.startswith("warning: no convergence")
            assert line.endswith("after 1 iterations (residual 0.2125, "
                                 "one step gives no rate to project from)")

    def test_compare_names_the_run_that_did_not_converge(self, g4_files, capsys):
        graph, blocks = g4_files
        code = run(["compare", "--graph", graph, "--blocks", blocks, "--max-iter", "3"])
        err = capsys.readouterr().err
        assert code == 3
        assert "no convergence of the model after 3 iterations" in err
        assert "no convergence of the baseline after 3 iterations" in err

    def test_closed_output_pipe_prints_nothing_and_exits_141(self, tmp_path):
        """A reader that closes the output after its first line, as ``head
        -1`` does: no error line and status 141 (128 + SIGPIPE), where the
        closed pipe was once reported as an input error, status 2.  The
        20,000 rows (about 390 KB) outgrow the pipe's 64 KiB buffer, so the
        command is still writing when the pipe closes."""
        n = 20_000
        graph, blocks = tmp_path / "ring.edges", tmp_path / "ring.blocks"
        graph.write_text("".join(f"v{u}\tv{(u + 1) % n}\nv{u}\tv{(7 * u + 3) % n}\n"
                                 for u in range(n)), encoding="utf-8")
        blocks.write_text("".join(f"v{u}\tb{u % 10}\n" for u in range(n)), encoding="utf-8")
        src = os.path.dirname(os.path.dirname(blockrank.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        script = "import sys; from blockrank.cli import main; sys.exit(main())"
        argv = [sys.executable, "-c", script, "rank", "--graph", str(graph), "--blocks", str(blocks)]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env={**os.environ, "PYTHONPATH": path}) as proc:
            try:
                first = proc.stdout.readline()
                proc.stdout.close()
                err = proc.stderr.read()
                code = proc.wait(timeout=60)
            finally:
                proc.kill()
        assert first.startswith(b"v")
        assert (code, err) == (141, b"")


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


def _corpus(seed: int, n: int, k: int, overlap: float,
            in_block: float = 0.8) -> tuple[bytes, bytes]:
    """Seeded edge and block files exercising every input-format corner.

    Node ``p<i>`` sits in block ``i % k``; a share ``overlap`` of the nodes
    joins a second block.  Each link stays in its source's block with
    probability ``in_block`` or more.  About 10% of the nodes are dangling.  The text
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
            pool = home[u % k] if rnd.random() < in_block else range(n)
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


def _unicode_corpus() -> tuple[bytes, bytes]:
    """The cover corpus relabelled: node ``p<i>`` becomes ``\u00e9<i>`` for odd
    ``i`` and ``\U0001f600<i>`` (4 UTF-8 bytes) for even ``i``; tabs become
    U+3000 and double spaces U+00A0; and the edge file starts with a UTF-8
    byte-order mark."""
    def relabel(text: bytes) -> bytes:
        text = re.sub(r"p(\d+)", lambda m: ("\u00e9" if int(m[1]) % 2 else "\U0001f600") + m[1],
                      text.decode())
        return text.replace("\t", "\u3000").replace("  ", "\u00a0").encode()

    edges, blocks = _corpus(12, 300, 9, 0.15)
    return b"\xef\xbb\xbf" + relabel(edges), relabel(blocks)


CORPORA = {
    "g4": lambda: (G4_EDGES.encode(), G4_BLOCKS.encode()),
    "partition": lambda: _corpus(11, 300, 7, 0.0),
    "cover": lambda: _corpus(12, 300, 9, 0.15),
    "unicode": _unicode_corpus,
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
    # recorded while text with a non-ASCII character was read as code points
    "unicode/check": (0, "f2d20651cf05d04b7d693a8b16f3fe71dbacc1d959a0e481097a19d6373cf716"),
    "unicode/check-json": (0, "66159abb403aa04c211e563b909ff7157dfe0bfa4a98e8eae567c49dab9076fd"),
    "unicode/compare": (0, "c9899f0e0007037d768fb89aa525adc35ccc530f48d896281311aa51bcb3cde4"),
    "unicode/compare-json": (0, "e14d6d04a3577f55ee952e2eba08fa0830b05b94463963047629174949f6862b"),
    "unicode/rank": (0, "8f7feff211e315fe16e846090def2b12c58ef0e49dfc29a9e3d1ed225c54e6f9"),
    "unicode/rank-json": (0, "f739de4dcbf1c4bce2bb99e7328b5426201d153697d631ec0d089363876e35eb"),
    "unicode/rank-uniform": (0, "3a84df9191b6c126fc575b1bb6881a093dc69f37a37a53ed3d12700cdc389f98"),
}


def _run_stdout(args, corpus, tmp_path, capsys) -> tuple[int, str]:
    """(exit code, stdout) of ``args`` on the corpus's files."""
    edges, blocks = corpus
    graph_path, blocks_path = tmp_path / "c.edges", tmp_path / "c.blocks"
    graph_path.write_bytes(edges)
    blocks_path.write_bytes(blocks)
    code = run(args + ["--graph", str(graph_path), "--blocks", str(blocks_path)])
    return code, capsys.readouterr().out


def _run_digest(args, corpus, tmp_path, capsys) -> tuple[int, str]:
    """(exit code, sha256 of stdout) of ``args`` on the corpus's files."""
    code, out = _run_stdout(args, corpus, tmp_path, capsys)
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("corpus", sorted(CORPORA))
@pytest.mark.parametrize("command", sorted(GOLDEN_ARGS))
def test_golden_stdout(corpus, command, tmp_path, capsys):
    got = _run_digest(GOLDEN_ARGS[command], CORPORA[corpus](), tmp_path, capsys)
    assert got == GOLDEN[f"{corpus}/{command}"]


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_rank_top_is_the_head_of_the_full_output(corpus, tmp_path, capsys):
    # --top k selects the top k before it orders them; the output is the
    # head of the full output, in TSV and in JSON
    files = CORPORA[corpus]()
    code, full = _run_stdout(["rank"], files, tmp_path, capsys)
    lines = full.splitlines(keepends=True)
    full_json = json.loads(_run_stdout(["rank", "--format", "json"], files, tmp_path, capsys)[1])
    n = len(lines)
    assert code == 0 and n == len(full_json["scores"])
    for k in (1, n - 1, n, n + 3):
        top = ["rank", "--top", str(k)]
        assert _run_stdout(top, files, tmp_path, capsys) == (code, "".join(lines[:k]))
        head = json.loads(_run_stdout(top + ["--format", "json"], files, tmp_path, capsys)[1])
        assert list(head["scores"].items()) == list(full_json["scores"].items())[:k]
        assert head["meta"] == full_json["meta"]


def _ncd_corpus() -> tuple[bytes, bytes]:
    """A cover whose links leave their block with probability 0.01: the
    default teleport-free model takes aggregation-disaggregation corrections
    under both dangling policies."""
    return _corpus(14, 300, 7, 0.01, in_block=0.99)


CORRECTED_ARGS = {
    "rank": ["rank"],
    "rank-uniform": ["rank", "--dangling", "uniform"],
    "compare-json": ["compare", "--format", "json"],
    "compare-json-uniform": ["compare", "--format", "json", "--dangling", "uniform"],
}

# (exit code, sha256 of stdout) recorded before H's links were stored once.
CORRECTED_GOLDEN = {
    "compare-json": (0, "e9334e30691533ea4f406d38a53caafff5b7eb7d30e7b2f4b580313ae2e28d47"),
    "compare-json-uniform": (0, "15174206b5acc2c4afb7e428ae757cd688a267b5cc2fe831a9a50ffd41164195"),
    "rank": (0, "4f6e39585c7e0478740f49336981e67f772658540838e162b15941794525a116"),
    "rank-uniform": (0, "48b5e056f70db4119b943fca75963c82ba7c9a6434c418079b598b80d56b43d5"),
}


@pytest.mark.parametrize("policy", list(DanglingPolicy))
def test_ncd_corpus_takes_corrections(policy):
    edges, blocks = _ncd_corpus()
    g = parse_edge_list(edges.decode())
    d = parse_blocks(blocks.decode(), g)
    assert d.kind is FactorForm.COVER
    h, f = build_hyperlink(g, policy, d), build_factors(d, g)
    assert block_aggregation(h, f, RankParams()) is not None


@pytest.mark.parametrize("command", sorted(CORRECTED_ARGS))
def test_corrected_golden_stdout(command, tmp_path, capsys):
    got = _run_digest(CORRECTED_ARGS[command], _ncd_corpus(), tmp_path, capsys)
    assert got == CORRECTED_GOLDEN[command]


def _sparse_corpus() -> tuple[bytes, bytes]:
    """A cover of 20 blocks over 300 nodes (K^2 > n) whose links stay in
    their block with probability 0.99: the default teleport-free model takes
    corrections on the sparse coupled chain under both dangling policies."""
    return _corpus(15, 300, 20, 0.05, in_block=0.99)


SPARSE_ARGS = {
    "rank": ["rank"],
    "compare-json": ["compare", "--format", "json"],
}

# (exit code, sha256 of stdout) recorded when corrections first ran at K^2 > n;
# "rank" re-recorded when the coarse chain was kept factored, which sums its
# products in another order (3 of 300 printed scores moved by one unit in the
# 12th significant digit; the dense oracle test below holds the new bytes).
SPARSE_GOLDEN = {
    "compare-json": (0, "d3cc612b5f7ced19a3bcc1bfa4f81d50885b7ca298ffd1136806bc1db2467b09"),
    "rank": (0, "51ba7b3ca89bcbace180d53c884256d613f2b2c8c9d4beb53aaa6ec5a87213ce"),
}


@pytest.mark.parametrize("policy", list(DanglingPolicy))
def test_sparse_corpus_takes_corrections(policy):
    edges, blocks = _sparse_corpus()
    g = parse_edge_list(edges.decode())
    d = parse_blocks(blocks.decode(), g)
    assert d.K * d.K > g.n
    h, f = build_hyperlink(g, policy, d), build_factors(d, g)
    assert not block_aggregation(h, f, RankParams()).exact


@pytest.mark.parametrize("policy", list(DanglingPolicy))
def test_sparse_corpus_prints_the_dense_stationary_vector(policy, tmp_path, capsys):
    # the printed scores, not only their digest, are held to the dense
    # oracle: within tol / (1 - |lambda_2|) of the stationary vector, plus
    # 5e-12 for the print's 12 significant digits
    corpus = _sparse_corpus()
    g = parse_edge_list(corpus[0].decode())
    d = parse_blocks(corpus[1].decode(), g)
    code, out = _run_stdout(["rank", "--dangling", policy.value], corpus, tmp_path, capsys)
    assert code == 0
    printed = dict(line.split("\t") for line in out.splitlines())
    got = np.array([float(printed[label]) for label in g.labels])
    p = dense_surfing(g, d, policy, RankParams.eta, RankParams.mu)
    second = np.sort(np.abs(np.linalg.eigvals(p)))[-2]
    want = dense_stationary(p, tol=1e-15, max_iter=1_000_000)
    assert np.abs(got - want).sum() <= RankParams.tol / (1.0 - second) + 5e-12


@pytest.mark.parametrize("command", sorted(SPARSE_ARGS))
def test_sparse_corrected_golden_stdout(command, tmp_path, capsys):
    got = _run_digest(SPARSE_ARGS[command], _sparse_corpus(), tmp_path, capsys)
    assert got == SPARSE_GOLDEN[command]
