"""Command-line front end: check / rank / compare / materialize.

Exit codes: 0 success, 1 admissibility criterion fails, 2 input error,
3 non-convergence.  Output is deterministic: identical inputs and flags
produce byte-identical bytes, with scores printed to 12 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .decomp import (
    Decomposition,
    build_factors,
    indicator,
    materialize_m,
    parse_blocks,
)
from .errors import BlockRankError, ConfigurationError, ReducibleModelError
from .graph import DanglingPolicy, Graph, build_hyperlink, parse_edge_list
from .ranker import RankParams, RankResult, compare, order_by_score, pagerank, rank
from .spectra import CheckReport, teleportation_free_check

BASELINE_ALPHA = 0.85
DEFAULT_TOP_K = 10
WEIGHT_FLAG_TOL = 1e-9

EXIT_OK = 0
EXIT_INADMISSIBLE = 1
EXIT_INPUT_ERROR = 2
EXIT_NO_CONVERGENCE = 3


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _jnum(x: float) -> float:
    # Round-trip through the printed form so JSON carries the same 12
    # significant digits as the TSV output.
    return float(_fmt(x))


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--graph", required=True, help="edge-list file (\"src dst\" per line)")
    common.add_argument("--blocks", required=True, help="block file (\"node block\" per line)")
    common.add_argument("--eta", type=float, default=None, help="link-following weight (default 0.85)")
    common.add_argument("--mu", type=float, default=None, help="block-proximity weight (default 0.15)")
    common.add_argument("--teleport", type=float, default=None,
                        help="teleportation weight (default 1 - eta - mu)")
    common.add_argument("--tol", type=float, default=1e-9, help="L1 convergence tolerance")
    common.add_argument("--max-iter", type=int, default=1000, help="iteration cap")
    common.add_argument("--dangling", choices=["block", "uniform"], default="block",
                        help="dangling-row policy: uniform over own block(s) or over all nodes")
    common.add_argument("--top", type=int, default=None, help="truncate output / overlap depth")
    common.add_argument("--format", choices=["tsv", "json"], default="tsv", dest="output_format")
    common.add_argument("--no-strict", action="store_true",
                        help="rank even when the admissibility check fails")

    parser = argparse.ArgumentParser(
        prog="blockrank",
        description="Block-aware graph ranking with a decidable no-teleportation mode.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("check", parents=[common],
                   help="decide whether ranking without teleportation is well-defined")
    sub.add_parser("rank", parents=[common], help="compute the ranking vector")
    sub.add_parser("compare", parents=[common],
                   help="compare the block-aware ranking against the PageRank baseline")
    sub.add_parser("materialize", parents=[common],
                   help="dump dense H, M, R, A, W (small graphs only)")
    return parser


def _top_arg(args) -> int | None:
    if args.top is not None and args.top < 1:
        raise ConfigurationError(f"--top must be a positive integer, got {args.top}")
    return args.top


def _resolve_weights(args) -> tuple[float, float]:
    eta = 0.85 if args.eta is None else args.eta
    mu = 0.15 if args.mu is None else args.mu
    for flag, value in (("--eta", eta), ("--mu", mu), ("--teleport", args.teleport)):
        if value is not None and not math.isfinite(value):
            raise ConfigurationError(f"{flag} must be finite, got {value}")
    if args.teleport is not None:
        if abs(eta + mu + args.teleport - 1.0) > WEIGHT_FLAG_TOL:
            raise ConfigurationError(
                f"eta + mu + teleport must equal 1, got {eta + mu + args.teleport!r}"
            )
    elif eta + mu > 1.0 + WEIGHT_FLAG_TOL:
        raise ConfigurationError(f"eta + mu exceeds 1 ({eta + mu!r}) and no teleport given")
    return eta, mu


def _load(args) -> tuple[Graph, Decomposition]:
    g = parse_edge_list(Path(args.graph).read_text(encoding="utf-8"))
    d = parse_blocks(Path(args.blocks).read_text(encoding="utf-8"), g)
    return g, d


def _policy(args) -> DanglingPolicy:
    return DanglingPolicy.OWN_BLOCK if args.dangling == "block" else DanglingPolicy.UNIFORM_ALL


def _component_labels(report: CheckReport, d: Decomposition) -> list[list[str]]:
    return [[d.block_labels[b] for b in comp] for comp in report.blocking_components]


def _strict_gate_refuses(args, params: RankParams, report: CheckReport, d: Decomposition) -> bool:
    """Strict mode refuses teleport-free ranking on a reducible indicator."""
    if params.teleport != 0.0 or args.no_strict or report.irreducible:
        return False
    components = _component_labels(report, d)
    print(
        "error: indicator matrix is reducible; blocking components: "
        + " ".join(",".join(comp) for comp in components),
        file=sys.stderr,
    )
    return True


def _warn_no_convergence(subject: str, result: RankResult, tol: float) -> None:
    """Say how far a run got, at what rate, and how many more steps that
    rate projects."""
    more = result.steps_to(tol)
    projection = ("the residual is not shrinking" if math.isinf(more)
                  else f"about {more} more to reach tol {_fmt(tol)}")
    print(f"warning: no convergence{subject} after {result.iterations} iterations "
          f"(residual {_fmt(result.residual)}, observed rate {_fmt(result.rate)} per step; "
          f"{projection})", file=sys.stderr)


def cmd_check(args) -> int:
    g, d = _load(args)
    report = teleportation_free_check(indicator(build_factors(d, g)))
    components = _component_labels(report, d)
    if args.output_format == "json":
        payload = {
            "blocks": d.K,
            "scc_count": report.scc_count,
            "irreducible": report.irreducible,
            "admissible": report.primitive_guarantee,
            "components": components,
        }
        print(json.dumps(payload))
    else:
        print(f"blocks\t{d.K}")
        print(f"scc_count\t{report.scc_count}")
        print(f"irreducible\t{_bool(report.irreducible)}")
        print(f"admissible\t{_bool(report.primitive_guarantee)}")
        for comp in components:
            print("component\t" + ",".join(comp))
    return EXIT_OK if report.irreducible else EXIT_INADMISSIBLE


def cmd_rank(args) -> int:
    g, d = _load(args)
    eta, mu = _resolve_weights(args)
    top = _top_arg(args)
    params = RankParams(eta=eta, mu=mu, tol=args.tol, max_iter=args.max_iter)
    f = build_factors(d, g)
    report = teleportation_free_check(indicator(f))
    if _strict_gate_refuses(args, params, report, d):
        return EXIT_INADMISSIBLE
    h = build_hyperlink(g, _policy(args), d)

    result = rank(h, f, params, strict=False)
    order = order_by_score(result.scores, g.labels)[:top]
    labels, scores = g.labels, result.scores.tolist()

    if args.output_format == "json":
        payload = {
            "scores": {labels[i]: _jnum(scores[i]) for i in order},
            "meta": {
                "iterations": result.iterations,
                "residual": _jnum(result.residual),
                "converged": result.converged,
                "eta": params.eta,
                "mu": params.mu,
                "teleport": params.teleport,
                "admissible": report.primitive_guarantee,
            },
        }
        print(json.dumps(payload))
    else:
        sys.stdout.write("".join(f"{labels[i]}\t{_fmt(scores[i])}\n" for i in order))
    if not result.converged:
        _warn_no_convergence("", result, params.tol)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_compare(args) -> int:
    g, d = _load(args)
    eta, mu = _resolve_weights(args)
    top = _top_arg(args)
    params = RankParams(eta=eta, mu=mu, tol=args.tol, max_iter=args.max_iter)
    f = build_factors(d, g)
    report = teleportation_free_check(indicator(f))
    if _strict_gate_refuses(args, params, report, d):
        return EXIT_INADMISSIBLE
    h = build_hyperlink(g, _policy(args), d)

    model = rank(h, f, params, strict=False)
    baseline = pagerank(h, alpha=BASELINE_ALPHA, tol=args.tol, max_iter=args.max_iter)
    k = DEFAULT_TOP_K if top is None else top
    cmp = compare(model, baseline, k, g.labels)
    if cmp.clipped:
        print(f"warning: top-k clipped to {cmp.k}", file=sys.stderr)

    if args.output_format == "json":
        payload = {
            "l1": _jnum(cmp.l1),
            "overlap": _jnum(cmp.overlap),
            "k": cmp.k,
            "clipped": cmp.clipped,
            "top_model": list(cmp.top_a),
            "top_baseline": list(cmp.top_b),
            "model_converged": model.converged,
            "baseline_converged": baseline.converged,
        }
        print(json.dumps(payload))
    else:
        print(f"l1\t{_fmt(cmp.l1)}")
        print(f"overlap\t{_fmt(cmp.overlap)}")
        print(f"k\t{cmp.k}")
        print(f"clipped\t{_bool(cmp.clipped)}")
        print("top_model\t" + ",".join(cmp.top_a))
        print("top_baseline\t" + ",".join(cmp.top_b))
    for subject, result in ((" of the model", model), (" of the baseline", baseline)):
        if not result.converged:
            _warn_no_convergence(subject, result, params.tol)
    if not (model.converged and baseline.converged):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _print_block(name: str, matrix: np.ndarray, out: list[str]) -> None:
    out.append(f"# {name}")
    for row in np.atleast_2d(matrix):
        out.append("\t".join(_fmt(x) for x in row))


def cmd_materialize(args) -> int:
    g, d = _load(args)
    h = build_hyperlink(g, _policy(args), d)
    f = build_factors(d, g)
    m = materialize_m(f)  # raises CapExceededError above the cap
    dense = {
        "H": h.to_dense(),
        "M": m,
        "R": f.R.toarray(),
        "A": f.A.toarray(),
        "W": indicator(f).W,
    }
    if args.output_format == "json":
        payload = {
            name: [[_jnum(x) for x in row] for row in np.atleast_2d(mat)]
            for name, mat in dense.items()
        }
        print(json.dumps(payload))
    else:
        lines: list[str] = []
        for name, mat in dense.items():
            _print_block(name, mat, lines)
        print("\n".join(lines))
    return EXIT_OK


_COMMANDS = {
    "check": cmd_check,
    "rank": cmd_rank,
    "compare": cmd_compare,
    "materialize": cmd_materialize,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReducibleModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except (BlockRankError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
