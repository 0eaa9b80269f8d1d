"""Workloads and metrics of the blockrank benchmark.

``BENCHMARK.json`` at the repository root is generated from this module:
``python3 benchmarks/spec.py > BENCHMARK.json``.  The self-test checks that
the two agree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from generate import InstanceParams

TOL = 1e-9              # one stated tolerance for every solver run
RUN_SECONDS = 30

# Time of the calibration task (``sample.py``) at the reference speed: the
# median over the runs the benchmark was tuned with, on a 2-vCPU Xeon VM.
# cli_s and setup_s scale each sample's wall time by this over the task's time
# in the same child, which takes out the VM's own speed changes.
CALIBRATION_REF_S = 0.04


@dataclass(frozen=True)
class Workload:
    name: str
    params: InstanceParams
    command: tuple[str, ...]   # CLI argv; --graph/--blocks are appended
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "web-partition",
            InstanceParams(n=12_000, K=60, size_law="uniform", size_cap=0,
                           out_degree=8, eps=0.2, dangling=0.05, overlap=0.0),
            ("rank", "--eta", "0.85", "--mu", "0.15", "--tol", str(TOL)),
            "rank, n=12k K=60 partition deg~8 eps=0.2 5% dangling: the paper's headline "
            "case; time goes to parsing, factor building and printing 12k rows",
        ),
        Workload(
            "hosts-cover",
            InstanceParams(n=8_000, K=800, size_law="zipf", size_cap=200,
                           out_degree=8, eps=0.1, dangling=0.25, overlap=0.1),
            ("rank", "--eta", "0.85", "--mu", "0.15", "--tol", str(TOL)),
            "rank, n=8k K=800 Zipf blocks<=200, 10% in 2 blocks, 25% dangling: cover "
            "path, dangling-row blow-up and dense KxK W set memory and step cost",
        ),
        Workload(
            "ncd-compare",
            InstanceParams(n=8_000, K=8, size_law="uniform", size_cap=0,
                           out_degree=8, eps=0.01, dangling=0.02, overlap=0.0),
            ("compare", "--eta", "0.9", "--mu", "0.1", "--max-iter", "10000",
             "--format", "json", "--tol", str(TOL)),
            "compare, n=8k K=8 eps=0.01 2% dangling: slow-mixing teleport-free NCD "
            "regime, ~1000 model iterations, time goes to the ranker",
        ),
    )
}

CHECK_COMMAND = ("check",)

# fail_rate is printed in the report but is not an end-to-end metric of
# BENCHMARK.json: it is 0 on a correct program, and the driver's relative
# bounds need metrics that are never 0.  Failures reach the driver through
# the result line's "failed" and "attempted" counts instead.
END_TO_END = [
    {"name": "cli_s", "unit": "s", "better": "lower", "bound": 0.25,
     "what": "median wall time of the workload's CLI command, argv to return code, "
             "at the reference speed"},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "what": "median wall time of `blockrank check` on the same files: time to the "
             "verdict, at the reference speed"},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1,
     "what": "median ru_maxrss of the child process that ran the workload command"},
]

# Per-layer metrics from the traced run.  "moves" names the end-to-end
# metrics each should move; "on"/"not_on" the workloads where it should and
# should not show.
_W, _H, _N = "web-partition", "hosts-cover", "ncd-compare"
PER_LAYER = [
    {"name": "graph.parse_edge_list.s", "unit": "s", "better": "lower",
     "moves": ["cli_s", "setup_s"], "on": [_W], "not_on": [_N]},
    {"name": "decomp.parse_blocks.s", "unit": "s", "better": "lower",
     "moves": ["setup_s", "cli_s"], "on": [_W, _H], "not_on": [_N]},
    {"name": "decomp.build_factors.s", "unit": "s", "better": "lower",
     "moves": ["setup_s", "cli_s"], "on": [_W], "not_on": []},
    {"name": "decomp.build_factors.out_bytes", "unit": "B", "better": "lower",
     "moves": ["setup_s", "cli_s"], "on": [_W], "not_on": []},
    {"name": "decomp.proximal_set.calls", "unit": "count", "better": "lower",
     "moves": ["setup_s", "cli_s"], "on": [_W, _H], "not_on": []},
    {"name": "graph.build_hyperlink.s", "unit": "s", "better": "lower",
     "moves": ["cli_s", "peak_rss_mb"], "on": [_H], "not_on": []},
    {"name": "graph.build_hyperlink.out_bytes", "unit": "B", "better": "lower",
     "moves": ["cli_s", "peak_rss_mb"], "on": [_H], "not_on": []},
    {"name": "decomp.indicator.s", "unit": "s", "better": "lower",
     "moves": ["peak_rss_mb", "setup_s"], "on": [_H], "not_on": [_N]},
    {"name": "decomp.indicator.out_bytes", "unit": "B", "better": "lower",
     "moves": ["peak_rss_mb", "setup_s"], "on": [_H], "not_on": [_N]},
    {"name": "spectra.teleportation_free_check.s", "unit": "s", "better": "lower",
     "moves": ["peak_rss_mb", "setup_s"], "on": [_H], "not_on": [_N]},
    {"name": "ranker.rank.s", "unit": "s", "better": "lower",
     "moves": ["cli_s"], "on": [_N], "not_on": [_W]},
    {"name": "ranker.rank.self_s", "unit": "s", "better": "lower",
     "moves": ["cli_s"], "on": [_N], "not_on": [_W]},
    {"name": "ranker.rank.iterations", "unit": "count", "better": "lower",
     "moves": ["cli_s"], "on": [_N], "not_on": [_W]},
    {"name": "ranker.s_per_iter", "unit": "s", "better": "lower",
     "moves": ["cli_s"], "on": [_N, _H], "not_on": [_W]},
    {"name": "graph.hyperlink_apply.calls", "unit": "count", "better": "lower",
     "moves": ["cli_s"], "on": [_N], "not_on": [_W]},
    {"name": "graph.hyperlink_apply.us_per_call", "unit": "us", "better": "lower",
     "moves": ["cli_s"], "on": [_N, _H], "not_on": [_W]},
    {"name": "ranker.bytes_per_iter", "unit": "B", "better": "lower",
     "moves": ["cli_s"], "on": [_N, _H], "not_on": [_W]},
    {"name": "ranker.ops_per_byte", "unit": "flop/B", "better": "higher",
     "moves": ["cli_s"], "on": [_N, _H], "not_on": [_W]},
    {"name": "ranker.pagerank.s", "unit": "s", "better": "lower",
     "moves": ["cli_s"], "on": [_N], "not_on": [_W, _H]},
    {"name": "ranker.pagerank.iterations", "unit": "count", "better": "lower",
     "moves": ["cli_s"], "on": [_N], "not_on": [_W, _H]},
    {"name": "ranker.compare.s", "unit": "s", "better": "lower",
     "moves": ["cli_s"], "on": [_N], "not_on": [_W, _H]},
    {"name": "cli.main.s", "unit": "s", "better": "lower",
     "moves": ["cli_s"], "on": [_W, _H, _N], "not_on": []},
    {"name": "cli.main.self_s", "unit": "s", "better": "lower",
     "moves": ["cli_s"], "on": [_W], "not_on": [_N]},
    {"name": "trace.overhead_pct", "unit": "%", "better": "lower",
     "moves": [], "on": [], "not_on": []},
] + [
    {"name": f"{span}.rss_hwm_mb", "unit": "MiB", "better": "lower",
     "moves": ["peak_rss_mb"], "on": on, "not_on": []}
    for span, on in (
        ("cli.main", [_W, _H, _N]),
        ("graph.parse_edge_list", [_W]),
        ("decomp.parse_blocks", [_W]),
        ("graph.build_hyperlink", [_H]),
        ("decomp.build_factors", [_W]),
        ("decomp.indicator", [_H]),
        ("spectra.teleportation_free_check", [_H]),
        ("ranker.rank", [_H]),
        ("ranker.pagerank", [_N]),
    )
]


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/run.py"],
        "paths": ["benchmarks"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {k: m[k] for k in ("name", "unit", "better", "bound")} for m in END_TO_END
        ],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")} for m in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
