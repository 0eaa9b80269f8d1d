"""Seeded synthetic block-structured graphs for the blockrank benchmark.

An instance is a directed graph plus a block partition or cover, written as
the two text files the ``blockrank`` CLI reads.  Every instance is
admissible by construction: each block has a non-dangling member that links
to a member of the next block, so the block indicator matrix ``W = A @ R``
contains a ring through all ``K`` blocks and is irreducible.

The program under test only ever sees the written files; the arrays kept
here feed the benchmark's own oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1


@dataclass(frozen=True)
class InstanceParams:
    """Generator parameters; ``spec.py`` holds the values each workload uses."""

    n: int
    K: int
    size_law: str          # "uniform" or "zipf" (Zipf(1) rank sizes)
    size_cap: int          # largest block size under "zipf"
    out_degree: float      # Poisson mean of a non-dangling node's out-degree (min 1)
    eps: float             # fraction of each block's links that leave the block
    dangling: float        # fraction of nodes without out-links
    overlap: float         # fraction of nodes that also join a second block


@dataclass(frozen=True)
class Instance:
    """Generated graph and blocks, in integer ids (labels are ``v<id>``, ``b<k>``)."""

    n: int
    K: int
    src: np.ndarray        # edge sources (distinct edges, file order)
    dst: np.ndarray        # edge targets
    node: np.ndarray       # membership pairs: node ids ...
    block: np.ndarray      # ... and their block ids (file order)


def _block_sizes(p: InstanceParams, rng: np.random.Generator) -> np.ndarray:
    if p.size_law == "uniform":
        sizes = np.full(p.K, p.n // p.K, dtype=np.int64)
        sizes[: p.n % p.K] += 1
        return sizes
    if p.size_law != "zipf":
        raise ValueError(f"unknown size law {p.size_law!r}")
    # Zipf(1) rank sizes c/r clipped to [1, cap]; bisect c so they sum to n.
    ranks = np.arange(1, p.K + 1, dtype=np.float64)
    lo, hi = 0.0, float(p.n) * p.K
    for _ in range(200):
        c = (lo + hi) / 2
        total = np.clip(np.floor(c / ranks), 1, p.size_cap).sum()
        lo, hi = (c, hi) if total < p.n else (lo, c)
    sizes = np.clip(np.floor(hi / ranks), 1, p.size_cap).astype(np.int64)
    excess = int(sizes.sum()) - p.n      # >= 0: the bisection keeps sum(hi) >= n
    if excess:
        sizes[np.flatnonzero(sizes > 1)[-excess:]] -= 1
    if int(sizes.sum()) != p.n:
        raise ValueError("cannot fit Zipf block sizes to n; adjust K or the cap")
    return rng.permutation(sizes)


def generate(p: InstanceParams, seed: int) -> Instance:
    """Draw one admissible instance from ``p`` with ``numpy``'s PCG64 seeded by ``seed``."""
    if p.K < 2 or p.n < 2 * p.K:
        raise ValueError("need K >= 2 and at least two nodes per block")
    rng = np.random.default_rng(seed)
    n, K = p.n, p.K

    sizes = _block_sizes(p, rng)
    primary = np.repeat(np.arange(K), sizes)
    rng.shuffle(primary)
    members = [np.flatnonzero(primary == k) for k in range(K)]

    # One ring source per block, never dangling.
    ring_src = np.array([rng.choice(m) for m in members])
    may_dangle = np.ones(n, dtype=bool)
    may_dangle[ring_src] = False
    candidates = np.flatnonzero(may_dangle)
    n_dangling = min(int(round(p.dangling * n)), candidates.size)
    dangling = np.sort(rng.choice(candidates, size=n_dangling, replace=False))
    is_dangling = np.zeros(n, dtype=bool)
    is_dangling[dangling] = True

    deg = np.maximum(rng.poisson(p.out_degree, size=n), 1)
    deg[is_dangling] = 0
    src = np.repeat(np.arange(n), deg)
    src_block = primary[src]

    # Exactly round(eps * links) links leave each block, visiting the other
    # blocks round-robin.  Spreading the coupling evenly makes the mixing
    # rate a property of eps rather than of the draw, which keeps iteration
    # counts steady across seeds.
    order = np.lexsort((rng.random(src.size), src_block))
    links_per_block = np.bincount(src_block, minlength=K)
    first_link = np.concatenate(([0], np.cumsum(links_per_block)[:-1]))
    rank_in_block = np.empty(src.size, dtype=np.int64)
    rank_in_block[order] = np.arange(src.size) - first_link[src_block[order]]
    leave = rank_in_block < np.rint(p.eps * links_per_block)[src_block]
    hop = 1 + rank_in_block % (K - 1)
    dst_block = np.where(leave, (src_block + hop) % K, src_block)

    # Target: a uniform member of the target block, via a block-sorted order.
    by_block = np.argsort(primary, kind="stable")
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    offs = (rng.random(src.size) * sizes[dst_block]).astype(np.int64)
    dst = by_block[starts[dst_block] + offs]

    # Ring edges, and one in-link for every dangling node so it appears in the file.
    ring_dst = np.array([rng.choice(members[(k + 1) % K]) for k in range(K)])
    feeders = np.array(
        [rng.choice(members[primary[u]][~is_dangling[members[primary[u]]]]) for u in dangling],
        dtype=np.int64,
    )
    src = np.concatenate([src, ring_src, feeders])
    dst = np.concatenate([dst, ring_dst, dangling])

    # Distinct edges in first-appearance order, sources grouped.
    key = src * n + dst
    _, first = np.unique(key, return_index=True)
    first.sort()
    src, dst = src[first], dst[first]
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]

    node = np.arange(n)
    block = primary.copy()
    n_extra = int(round(p.overlap * n))
    if n_extra:
        extra_nodes = np.sort(rng.choice(n, size=n_extra, replace=False))
        shift = rng.integers(1, K, size=n_extra)
        node = np.concatenate([node, extra_nodes])
        block = np.concatenate([block, (primary[extra_nodes] + shift) % K])
    return Instance(n=n, K=K, src=src, dst=dst, node=node, block=block)


def _write_text(path: Path, left: np.ndarray, left_prefix: str,
                right: np.ndarray, right_prefix: str) -> None:
    lines = [f"{left_prefix}{a}\t{right_prefix}{b}" for a, b in zip(left.tolist(), right.tolist())]
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tmp.replace(path)


def materialize(p: InstanceParams, seed: int, directory: Path) -> tuple[Instance, dict]:
    """Generate (or reload) the instance for ``seed`` under ``directory``.

    Writes ``graph.tsv``, ``blocks.tsv`` and ``instance.npz`` once; later
    calls with the same parameters and seed reuse them.  Returns the
    instance and the paths of the two input files.
    """
    directory.mkdir(parents=True, exist_ok=True)
    stamp = directory / "params.json"
    expected = json.dumps({"version": FORMAT_VERSION, "seed": seed, **p.__dict__}, sort_keys=True)
    files = {"graph": directory / "graph.tsv", "blocks": directory / "blocks.tsv"}
    arrays = directory / "instance.npz"
    if stamp.exists() and stamp.read_text() == expected and arrays.exists():
        with np.load(arrays) as z:
            inst = Instance(n=int(z["n"]), K=int(z["K"]), src=z["src"], dst=z["dst"],
                            node=z["node"], block=z["block"])
        return inst, files

    for stale in directory.iterdir():   # files derived from other parameters
        if stale.is_file():
            stale.unlink()
    inst = generate(p, seed)
    _write_text(files["graph"], inst.src, "v", inst.dst, "v")
    _write_text(files["blocks"], inst.node, "v", inst.block, "b")
    np.savez(arrays, n=inst.n, K=inst.K, src=inst.src, dst=inst.dst,
             node=inst.node, block=inst.block)
    stamp.write_text(expected)
    return inst, files
