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
    ProximityFactors,
    build_factors,
    indicator,
    materialize_m,
    parse_blocks,
)
from .errors import BlockRankError, ConfigurationError, ParseError, ReducibleModelError
from .graph import DanglingPolicy, Graph, HyperlinkOperator, build_hyperlink, parse_edge_list
from .ranker import (
    WEIGHT_TOL,
    RankParams,
    RankResult,
    admissible,
    compare,
    fmt,
    order_by_score,
    pagerank,
    rank,
)
from .spectra import teleportation_free_check
from .tokens import Interner

DEFAULT_TOP_K = 10

EXIT_OK = 0
EXIT_INADMISSIBLE = 1  # also ReducibleModelError, raised by the strict gate
EXIT_INPUT_ERROR = 2
EXIT_NO_CONVERGENCE = 3


def _jnum(x: float) -> float:
    # Round-trip through the printed form so JSON carries the same 12
    # significant digits as the TSV output.
    return float(fmt(x))


def _bool(b: bool) -> str:
    return "true" if b else "false"


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: it reports the flags it does not read, under its usage line."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


# The flag table: (group, flag, add_argument options).  A command takes only
# the groups it reads (_COMMANDS).
_FLAGS = (
    ("files", "--graph", dict(required=True, help="edge-list file (\"src dst\" per line)")),
    ("files", "--blocks", dict(required=True, help="block file (\"node block\" per line)")),
    ("files", "--format", dict(choices=["tsv", "json"], default="tsv", dest="output_format")),
    ("dangling", "--dangling", dict(
        choices=[p.value for p in DanglingPolicy], default=DanglingPolicy.OWN_BLOCK.value,
        help="dangling-row policy: uniform over own block(s) or over all nodes")),
    ("model", "--eta", dict(type=float, default=RankParams.eta,
                            help="link-following weight (default %(default)s)")),
    ("model", "--mu", dict(type=float, default=RankParams.mu,
                           help="block-proximity weight (default %(default)s)")),
    ("model", "--teleport", dict(type=float, default=None,
                                 help="teleportation weight (default 1 - eta - mu)")),
    ("model", "--tol", dict(type=float, default=RankParams.tol,
                            help="L1 convergence tolerance (default %(default)s)")),
    ("model", "--max-iter", dict(type=int, default=RankParams.max_iter,
                                 help="iteration cap (default %(default)s)")),
    ("model", "--top", dict(type=int, default=None, help="truncate output / overlap depth")),
    ("model", "--no-strict", dict(action="store_true",
                                  help="rank even when the admissibility check fails")),
)


def _add_flags(parser: _CommandParser, command: str) -> _CommandParser:
    """``parser`` with ``command``'s flags and defaults."""
    run, groups, _ = _COMMANDS[command]
    for group, flag, options in _FLAGS:
        if group in groups:
            parser.add_argument(flag, **options)
    parser.set_defaults(command=command, run=run)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser, holding every command's."""
    parser = argparse.ArgumentParser(
        prog="blockrank",
        description="Block-aware graph ranking with a decidable no-teleportation mode.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for command, (_, _, text) in _COMMANDS.items():
        _add_flags(sub.add_parser(command, help=text), command)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed by its command's parser alone; the top-level parser,
    which builds all four, only when no command comes first."""
    if argv and argv[0] in _COMMANDS:
        parser = _add_flags(_CommandParser(prog=f"blockrank {argv[0]}"), argv[0])
        return parser.parse_args(argv[1:])
    return _build_parser().parse_args(argv)


def _parse(path: str, parse, *args, **kwargs):
    """``parse`` of a UTF-8 file's bytes, less a leading byte-order mark
    (not part of the first label).  The parser reads them without a copy
    and checks that they are UTF-8; an error names the file and counts the
    offset from its first byte."""
    data = Path(path).read_bytes()
    mark = 3 * data.startswith(b"\xef\xbb\xbf")
    data = data[mark:]
    try:
        return parse(data, *args, **kwargs)
    except ParseError as exc:
        if exc.byte is None:
            raise
        raise ParseError(f"{path}: not valid UTF-8 at byte {mark + exc.byte}") from None


def _load(args) -> tuple[Graph, Decomposition, ProximityFactors]:
    # The blocks parse looks node labels up in the edge parse's table, which
    # is then dropped: the later stages do not hold it.
    labels = Interner()
    g = _parse(args.graph, parse_edge_list, labels=labels)
    d = _parse(args.blocks, parse_blocks, g, labels=labels)
    del labels
    return g, d, build_factors(d, g)


def _prelude(args) -> tuple[Graph, ProximityFactors, bool, HyperlinkOperator, RankParams]:
    """Shared start of ``rank`` and ``compare``: check the flags, load,
    refuse a teleport-free model that is not admissible unless
    ``--no-strict``, and only then build ``H``; under ``--dangling
    uniform`` first, as that gate reads its dangling nodes."""
    params = RankParams(eta=args.eta, mu=args.mu, tol=args.tol, max_iter=args.max_iter)
    if args.teleport is not None:
        if not math.isfinite(args.teleport):
            raise ConfigurationError(f"--teleport must be finite, got {args.teleport}")
        total = args.eta + args.mu + args.teleport
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ConfigurationError(f"eta + mu + teleport must equal 1, got {total!r}")
    if args.top is not None and args.top < 1:
        raise ConfigurationError(f"--top must be a positive integer, got {args.top}")
    g, d, f = _load(args)
    policy = DanglingPolicy(args.dangling)
    h = build_hyperlink(g, policy, d) if policy is DanglingPolicy.UNIFORM_ALL else None
    verdict = admissible(f, params, d.block_labels, not args.no_strict, h)
    if h is None:
        h = build_hyperlink(g, policy, d)
    return g, f, verdict, h, params


def _warn_no_convergence(subject: str, result: RankResult, tol: float) -> None:
    """Say how far a run got, at what rate, and how many more steps that
    rate projects; a single step observes no rate."""
    more = result.steps_to(tol)
    projection = ("the residual is not shrinking" if math.isinf(more)
                  else f"about {more} more to reach tol {fmt(tol)}")
    rate = ("one step gives no rate to project from" if math.isnan(result.rate)
            else f"observed rate {fmt(result.rate)} per step; {projection}")
    print(f"warning: no convergence{subject} after {result.iterations} iterations "
          f"(residual {fmt(result.residual)}, {rate})", file=sys.stderr)


def cmd_check(args) -> int:
    _, d, f = _load(args)
    report = teleportation_free_check(indicator(f))
    components = [[d.block_labels[b] for b in comp] for comp in report.blocking_components]
    if args.output_format == "json":
        payload = {
            "blocks": d.K,
            "scc_count": report.scc_count,
            "irreducible": report.irreducible,
            "admissible": report.irreducible,
            "components": components,
        }
        print(json.dumps(payload))
    else:
        print(f"blocks\t{d.K}")
        print(f"scc_count\t{report.scc_count}")
        print(f"irreducible\t{_bool(report.irreducible)}")
        print(f"admissible\t{_bool(report.irreducible)}")
        for comp in components:
            print("component\t" + ",".join(comp))
    return EXIT_OK if report.irreducible else EXIT_INADMISSIBLE


def cmd_rank(args) -> int:
    g, f, verdict, h, params = _prelude(args)
    result = rank(h, f, params, strict=False)
    order = order_by_score(result.scores, g.labels, args.top)
    labels, scores = g.labels, result.scores

    if args.output_format == "json":
        payload = {
            "scores": {labels[i]: _jnum(x) for i, x in zip(order.tolist(), scores[order].tolist())},
            "meta": {
                "iterations": result.iterations,
                "residual": _jnum(result.residual),
                "converged": result.converged,
                "eta": params.eta,
                "mu": params.mu,
                "teleport": params.teleport,
                "admissible": verdict,
            },
        }
        print(json.dumps(payload))
    else:  # 1024 lines per write, each chunk in one format call ("%.12g" is fmt)
        for lo in range(0, order.size, 1024):
            chunk = order[lo:lo + 1024]
            values = [None] * (2 * chunk.size)
            values[0::2] = map(labels.__getitem__, chunk.tolist())
            values[1::2] = scores[chunk].tolist()
            sys.stdout.write(("%s\t%.12g\n" * chunk.size) % tuple(values))
    if not result.converged:
        _warn_no_convergence("", result, params.tol)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_compare(args) -> int:
    g, f, _, h, params = _prelude(args)
    model = rank(h, f, params, strict=False)
    baseline = pagerank(h, tol=params.tol, max_iter=params.max_iter)
    k = DEFAULT_TOP_K if args.top is None else args.top
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
        print(f"l1\t{fmt(cmp.l1)}")
        print(f"overlap\t{fmt(cmp.overlap)}")
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
        out.append("\t".join(fmt(x) for x in row))


def cmd_materialize(args) -> int:
    g, d, f = _load(args)
    dense = {  # H and M refuse (CapExceededError) above the cap
        "H": build_hyperlink(g, DanglingPolicy(args.dangling), d).to_dense(),
        "M": materialize_m(f),
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


# command: (its function, the flag groups it reads, its top-level help line)
_COMMANDS = {
    "check": (cmd_check, ("files",),
              "decide whether ranking without teleportation is well-defined"),
    "rank": (cmd_rank, ("files", "dangling", "model"), "compute the ranking vector"),
    "compare": (cmd_compare, ("files", "dangling", "model"),
                "compare the block-aware ranking against the PageRank baseline"),
    "materialize": (cmd_materialize, ("files", "dangling"),
                    "dump dense H, M, R, A, W (small graphs only)"),
}


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.run(args)
    except ReducibleModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except (BlockRankError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
