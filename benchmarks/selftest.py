"""Self-test of the benchmark at toy size; finishes in well under a minute.

    python3 benchmarks/selftest.py

Checks that ``BENCHMARK.json`` matches ``spec.py``; that the oracle agrees
with the package's dense oracles (``materialize_m``, ``dense_stationary``)
on instances of at most 2000 nodes; that perturbed outputs are counted as
failures; that every workload runs end to end in both modes with no
failure; that the tracer rebinds imported names and reports a vanished
function as absent; and that the benchmark refuses to run without sources.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import oracle
import run
import spec
import tracer
from generate import materialize

ROOT = run.ROOT
sys.path.insert(0, str(ROOT / "src"))

import blockrank  # noqa: E402
from blockrank import cli  # noqa: E402

TOY = {
    "web-partition": dict(n=1500, K=15),
    "hosts-cover": dict(n=1500, K=150, size_cap=60),
    "ncd-compare": dict(n=1200, K=6),
}


def toy(name: str) -> spec.Workload:
    w = spec.WORKLOADS[name]
    return dataclasses.replace(w, params=dataclasses.replace(w.params, **TOY[name]))


def cli_stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise AssertionError(f"blockrank {argv[0]} exited {rc}")
    return buf.getvalue()


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(what)
    print(f"ok  {what}")


def test_benchmark_json() -> None:
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(on_disk == spec.benchmark_json(), "BENCHMARK.json matches spec.py")


def test_oracle_against_dense(cache: Path) -> None:
    for name in TOY:
        w = toy(name)
        inst, files = materialize(w.params, 7, cache / name)
        g = blockrank.parse_edge_list(files["graph"].read_text())
        d = blockrank.parse_blocks(files["blocks"].read_text(), g)
        h = blockrank.build_hyperlink(g, blockrank.DanglingPolicy.OWN_BLOCK, d)
        f = blockrank.build_factors(d, g)
        perm = np.array([g.label_ids[label] for label in oracle.labels(inst.n)])
        H = h.to_dense()[np.ix_(perm, perm)]
        M = blockrank.materialize_m(f)[np.ix_(perm, perm)]
        eta = float(w.command[w.command.index("--eta") + 1])
        x = np.random.default_rng(0).random(inst.n)
        for a, b, P in ((eta, 1 - eta, eta * H + (1 - eta) * M),
                        (0.85, 0.0, 0.85 * H + 0.15 / inst.n)):
            op = oracle.build_operator(inst, a, b)
            expect(np.abs(op.apply(x) - x @ P).max() < 1e-12,
                   f"{name}: factored oracle P (eta={a}, mu={b}) equals the dense product")
            ref = oracle.stationary(op)
            dense = blockrank.dense_stationary(P, tol=1e-13, max_iter=200_000)
            expect(np.abs(ref.scores - dense).sum() < 1e-10,
                   f"{name}: oracle stationary vector equals dense_stationary")


def test_perturbed_outputs_fail(cache: Path) -> None:
    for name in ("web-partition", "ncd-compare"):
        w = toy(name)
        inst, files = materialize(w.params, 7, cache / name)
        verifier = run.Verifier(w, inst, cache / name)
        argv = ["--graph", str(files["graph"]), "--blocks", str(files["blocks"])]
        good = cli_stdout([*w.command, *argv])
        verdict = cli_stdout([*run.CHECK_COMMAND, *argv])
        if name == "web-partition":
            rows = [line.split("\t") for line in good.splitlines()]
            swapped = [rows[-1][0], rows[0][1]], *rows[1:-1], [rows[0][0], rows[-1][1]]
            scaled = [[rows[0][0], format(float(rows[0][1]) * (1 + 1e-6), ".12g")], *rows[1:]]
            bad = {"scores moved to other labels": swapped, "one score scaled by 1+1e-6": scaled}
            bad = {k: "".join(f"{a}\t{b}\n" for a, b in v) for k, v in bad.items()}
            bad["a label missing"] = "".join(good.splitlines(keepends=True)[:-1])
        else:
            out = json.loads(good)
            model = verifier.references()[0].scores
            ids = [int(s[1:]) for s in out["top_model"]]
            expect(model[ids[0]] - model[ids[-1]] > verifier.references()[0].error_bound(spec.TOL),
                   "toy compare: first and last top entries are resolvable at the tolerance")
            first_last = dict(out, top_model=[out["top_model"][-1], *out["top_model"][1:-1],
                                              out["top_model"][0]])
            bad = {"top_model first and last swapped": json.dumps(first_last),
                   "l1 off by 1e-3": json.dumps(dict(out, l1=out["l1"] + 1e-3))}
        bad["check verdict flipped"] = verdict.replace("irreducible\ttrue", "irreducible\tfalse")

        timing = {"rc": 0, "wall_s": 1.0, "cal_s": 1.0, "rss_mb": 1.0}
        series = run.Series(name)
        run.record(series, w.command, {**timing, "stdout": good}, verifier)
        expect(series.failed == 0, f"{name}: the unperturbed output passes the oracle")
        for what, stdout in bad.items():
            command = run.CHECK_COMMAND if what.startswith("check") else w.command
            fresh = run.Series(name)
            run.record(fresh, command, {**timing, "stdout": stdout}, verifier)
            expect(fresh.failed == 1 and fresh.attempted == 1 and not fresh.wall_s,
                   f"{name}: {what} counts as a failure")
        run.record(series, w.command, {**timing, "stdout": good + "\n"}, verifier)
        expect(series.failed == 1, f"{name}: a changed stdout digest counts as a failure")


def test_workloads_end_to_end(cache: Path) -> None:
    for name in TOY:
        for trace in (False, True):
            quiet: list[str] = []
            result = run.measure(toy(name), 3, 0.0, trace, cache, log=quiet.append)
            expected = {m["name"] for m in (spec.PER_LAYER if trace else spec.END_TO_END)}
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
                   and set(result["metrics"]) == expected
                   and all(v["value"] > 0 for k, v in result["metrics"].items()
                           if not k.endswith("overhead_pct") and "pagerank" not in k
                           and "compare" not in k),
                   f"{name} trace={int(trace)}: {result['attempted']} commands, all correct, "
                   "every metric reported")


def test_tracer() -> None:
    recorder = tracer.Recorder()
    names = tracer.install(recorder)
    expect("cli.main" in names and "ranker.rank" in names, "tracer wraps the layers' functions")
    from blockrank import graph, ranker
    expect(ranker.hyperlink_apply is graph.hyperlink_apply
           and getattr(ranker.hyperlink_apply, "__wrapped_by_tracer__", False),
           "tracer rebinds names imported into other blockrank modules")
    without_rank = [["cli.main", 0.0, 2.0, -1, None]]
    metrics, absent = run.layer_metrics([without_rank], [1.0])
    expect("ranker.rank.s" in absent and metrics["ranker.rank.s"]["value"] == 0.0
           and metrics["cli.main.self_s"]["value"] == 2.0,
           "a function that no longer exists is reported absent, not a crash")


def test_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "benchmarks", Path(bare, "benchmarks"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "ncd-compare",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without src/blockrank the benchmark exits non-zero and prints no result")


def main() -> int:
    cache_root = ROOT / ".bench_cache"
    cache_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=cache_root) as tmp:
        cache = Path(tmp)
        test_benchmark_json()
        test_oracle_against_dense(cache)
        test_perturbed_outputs_fail(cache)
        test_workloads_end_to_end(cache)
        test_refuses_without_sources()
        test_tracer()           # last: it rebinds functions in this process
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
