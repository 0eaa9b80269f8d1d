"""The blockrank benchmark: drive the ``blockrank`` CLI on seeded inputs.

Usage::

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has ``src/blockrank``.  Inputs are
generated from ``--seed`` (cached under ``.bench_cache/``, never timed).
Load model: a closed loop of one caller; each command runs in a fresh child
process forked by the sample server (``sample.py``), one at a time, with
BLAS/OpenMP pinned to one thread.  Every output is checked by the
independent oracle and its stdout digest must not change within the run.

``--trace 0`` alternates the workload command and ``blockrank check`` and
reports the end-to-end metrics; their times are scaled to a reference speed
by a calibration task timed in each child (``CALIBRATION_REF_S``).
``--trace 1`` alternates untraced and traced workload commands and reports
the per-layer metrics.  A readable report precedes the result, which is the
last line of stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
import tracer
from generate import materialize
from spec import (CALIBRATION_REF_S, CHECK_COMMAND, END_TO_END, PER_LAYER, TOL, WORKLOADS,
                  Workload)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SAMPLES = 3            # per series, even when a sample outlasts --seconds
CHILD_TIMEOUT_S = 120
THREAD_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


@dataclass
class Series:
    """Samples of one command within one run."""

    label: str
    wall_s: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)    # wall_s at the reference speed
    cal_s: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    spans: list[list] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: tuple[str, int] | None = None
    problems: list[str] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(why)


class Verifier:
    """Oracle checks for one instance, remembered per distinct output."""

    def __init__(self, workload: Workload, inst, cache: Path):
        self.workload, self.inst, self.cache = workload, inst, cache
        self.verdicts: dict[str, str | None] = {}
        self._model = self._references = None

    def model(self) -> oracle.Operator:
        if self._model is None:
            w = self.workload.command
            eta, mu = float(w[w.index("--eta") + 1]), float(w[w.index("--mu") + 1])
            self._model = oracle.build_operator(self.inst, eta, mu)
        return self._model

    def references(self) -> tuple[oracle.Reference, oracle.Reference]:
        """Reference rankings of the model and the PageRank baseline, cached per seed."""
        if self._references is None:
            path = self.cache / "reference.npz"
            if path.exists():
                with np.load(path) as z:
                    refs = [oracle.Reference(z[f"s{i}"], float(z[f"r{i}"])) for i in (0, 1)]
            else:
                baseline = oracle.build_operator(self.inst, 0.85, 0.0)
                refs = [oracle.stationary(self.model()), oracle.stationary(baseline)]
                np.savez(path, s0=refs[0].scores, r0=refs[0].rate,
                         s1=refs[1].scores, r1=refs[1].rate)
            self._references = tuple(refs)
        return self._references

    def check(self, command: tuple[str, ...], stdout: str) -> str | None:
        """None when the output is correct, else the reason it is not."""
        key = hashlib.sha256(f"{command}\0{stdout}".encode()).hexdigest()
        if key not in self.verdicts:
            try:
                if command[0] == "check":
                    oracle.check_verdict(stdout, self.inst.K)
                elif command[0] == "rank":
                    oracle.check_rank_tsv(stdout, self.model(), TOL)
                elif command[0] == "compare":
                    oracle.check_compare_json(stdout, *self.references(), TOL)
                else:
                    raise oracle.OutputRejected(f"no oracle for {command[0]!r}")
                self.verdicts[key] = None
            except oracle.OutputRejected as exc:
                self.verdicts[key] = str(exc)
        return self.verdicts[key]


class Sampler:
    """The sample server (``sample.py``): one fresh forked child per command."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.log = workdir / "server.log"
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "sample.py"), str(ROOT)], cwd=ROOT,
                env={**os.environ, **THREAD_ENV}, stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=log, text=True)

    def run(self, argv: list[str], trace: bool) -> dict:
        result, stdout = self.workdir / "result.json", self.workdir / "stdout.txt"
        for p in (result, stdout):
            p.unlink(missing_ok=True)
        request = {"argv": argv, "trace": int(trace), "result": str(result),
                   "stdout": str(stdout), "timeout": CHILD_TIMEOUT_S}
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
            reply = self.proc.stdout.readline()
        except OSError:
            reply = ""
        if not reply:
            return {"error": f"sample server ended: {self.log.read_text()[-500:]}"}
        reply = json.loads(reply)
        if reply["error"] or not result.exists():
            return {"error": f"{reply['error']}: {self.log.read_text()[-500:]}"}
        out = json.loads(result.read_text())
        out["stdout"] = stdout.read_text(encoding="utf-8")
        return out

    def close(self) -> None:
        """Stop the server and wait for it; it ends once its stdin closes."""
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def sample(series: Series, command: tuple[str, ...], files: dict, verifier: Verifier,
           sampler: Sampler, trace: bool = False) -> None:
    argv = [*command, "--graph", str(files["graph"]), "--blocks", str(files["blocks"])]
    record(series, command, sampler.run(argv, trace), verifier)


def record(series: Series, command: tuple[str, ...], out: dict, verifier: Verifier) -> None:
    """Count one attempted command; keep its figures only if it succeeded."""
    series.attempted += 1
    if out.get("error"):
        series.fail(out["error"])
        return
    if out["rc"] != 0:
        series.fail(f"exit code {out['rc']}: {out['stderr'][-300:]}")
        return
    digest = (hashlib.sha256(out["stdout"].encode("utf-8")).hexdigest(), len(out["stdout"]))
    if series.digest is None:
        series.digest = digest
    if digest != series.digest:
        series.fail(f"stdout digest {digest} differs from {series.digest}")
        return
    problem = verifier.check(command, out["stdout"])
    if problem:
        series.fail(problem)
        return
    if out.get("spans") is not None:
        series.spans.append(out["spans"])
    else:
        series.wall_s.append(out["wall_s"])
        series.ref_s.append(out["wall_s"] * CALIBRATION_REF_S / out["cal_s"])
        series.cal_s.append(out["cal_s"])
        series.rss_mb.append(out["rss_mb"])


def tail_percentile(count: int) -> int | None:
    """Highest whole percentile with at least ten samples beyond it."""
    p = int(100 * (1 - 10 / count)) if count else 0
    return p if p >= 50 else None


def describe(values: list[float], unit: str) -> str:
    if not values:
        return "no successful samples"
    p = tail_percentile(len(values))
    tail = (f"p{p} {np.percentile(values, p):.4g} {unit}" if p
            else "no percentile above the median has 10 samples beyond it")
    return f"median of {len(values)}; {tail}; min {min(values):.4g} max {max(values):.4g}"


def layer_metrics(traced: list[list], untraced_wall_s: list[float]) -> tuple[dict, list]:
    """Median of each per-layer metric over the traced samples.

    A metric whose span no sample recorded (say, a function a refactor
    removed) reads 0 and is listed as absent.  ``trace.overhead_pct`` compares
    the traced ``cli.main`` time with the untraced command time.
    """
    per_sample = [tracer.summarize(spans) for spans in traced]
    metrics, absent = {}, []
    for m in PER_LAYER:
        name = m["name"]
        if name == "trace.overhead_pct":
            found = [s["cli.main.s"] for s in per_sample if "cli.main.s" in s]
            value = (100.0 * (statistics.median(found) / statistics.median(untraced_wall_s) - 1)
                     if found and untraced_wall_s else 0.0)
        else:
            found = [s[name] for s in per_sample if name in s]
            value = float(statistics.median(found)) if found else 0.0
        if not found:
            absent.append(name)
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics, absent


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            cache_root: Path, log=print) -> dict:
    """One benchmark run; returns the result object of the last stdout line."""
    cache = cache_root / f"{workload.name}-{seed}"
    inst, files = materialize(workload.params, seed, cache)
    verifier = Verifier(workload, inst, cache)
    if workload.command[0] == "compare":
        verifier.references()       # once per seed, before any timing
    sizes = oracle.instance_sizes(inst)

    # In a traced run the traced and untraced commands share one series, so
    # the stdout digest must agree between them too.
    work, check = Series(workload.command[0]), Series("check")
    plan = ([(work, workload.command, False), (work, workload.command, True)] if trace
            else [(work, workload.command, False), (check, CHECK_COMMAND, False)])
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=cache_root))
    sampler = None
    try:
        sampler = Sampler(workdir)
        start, rounds = time.perf_counter(), 0
        while rounds < MIN_SAMPLES or time.perf_counter() - start < seconds:
            for series, command, traced in plan:
                sample(series, command, files, verifier, sampler, traced)
            rounds += 1
    finally:
        if sampler is not None:
            sampler.close()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = work.attempted + check.attempted
    failed = work.failed + check.failed
    log(f"# workload {workload.name} seed {seed} trace {int(trace)}: {workload.why}")
    log("# instance " + " ".join(f"{k}={v}" for k, v in sizes.items()))
    log(f"# command blockrank {' '.join(workload.command)} --graph G --blocks B")
    for s in (work, check):
        if s.digest:
            log(f"# {s.label}: stdout sha256 {s.digest[0]} length {s.digest[1]} "
                f"({'identical in every run' if not s.failed else 'see failures'})")
        for why in s.problems:
            log(f"# {s.label} FAILED: {why}")
    log(f"# fail_rate {failed / attempted:.4g} ratio ({failed} failed of {attempted} attempted)")

    metrics: dict[str, dict] = {}
    if not trace:
        values = {"cli_s": work.ref_s, "setup_s": check.ref_s, "peak_rss_mb": work.rss_mb}
        for m in END_TO_END:
            v = values[m["name"]]
            log(f"# {m['name']} {statistics.median(v) if v else float('nan'):.6g} {m['unit']} "
                f"({m['better']} is better): {describe(v, m['unit'])}")
            metrics[m["name"]] = {"value": statistics.median(v) if v else 0.0, "unit": m["unit"]}
        for s in (work, check):
            for what, v in (("wall time as measured", s.wall_s), ("calibration task", s.cal_s)):
                log(f"# {s.label} {what} {statistics.median(v) if v else float('nan'):.6g} s: "
                    f"{describe(v, 's')}")
        log(f"# calibration task at the reference speed: {CALIBRATION_REF_S} s")
    else:
        metrics, absent = layer_metrics(work.spans, work.wall_s)
        for m in PER_LAYER:
            moves = ", ".join(m["moves"]) or "-"
            log(f"# {m['name']} {metrics[m['name']]['value']:.6g} {m['unit']} (moves {moves}; "
                f"shows on {', '.join(m['on']) or '-'}; not on {', '.join(m['not_on']) or '-'})")
        log(f"# traced samples {len(work.spans)}, untraced {len(work.wall_s)}; "
            f"absent spans: {', '.join(absent) or 'none'}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "blockrank" / "cli.py").is_file():
        print(f"error: no blockrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     ROOT / ".bench_cache")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
