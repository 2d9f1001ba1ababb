"""Benchmark inputs and units of work.

A unit is one ``turanlab.scanner.scan`` call followed by the report
serialisation ``turanlab scan`` performs.  Every input is drawn with numpy
PCG64 from ``(seed, workload, unit index)`` and encoded by this module, so
a change to ``turanlab.graph`` cannot change what the program is given.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("enum7_connected", "g6_n8to10", "gnp1000")

# The three checks random_experiment evaluates, plus two walk checks:
# w_6 and w_3 are each recomputed from r = 1 by spectra.walk_counts.
GNP_CHECKS = "splus_wilf,vertex_local_splus_wilf,local_bn,walk_local_conj(6),walk_recursion(3)"

ENUM_N = 7
ENUM_BLOCK = 4096          # aligned blocks lie inside one 2^14-mask scanner chunk
G6_ORDERS = (8, 9, 10)     # n = 10 exposes a batch route with too few squarings
G6_LINES = 64
GNP_N = 1000
GNP_WARMUP_N = 65          # smallest order on the greedy clique path

TINY = {"enum_block": 256, "g6_lines": 8, "gnp_n": GNP_WARMUP_N}
FULL = {"enum_block": ENUM_BLOCK, "g6_lines": G6_LINES, "gnp_n": GNP_N}


@dataclass(frozen=True)
class Unit:
    """One scan call: its arguments and what a correct report must show."""

    kind: str                     # "enum" | "g6" | "gnp"
    checks: str
    consumed: int                 # input graphs handed to scan
    expected_processed: int
    index_range: tuple[int, int] | None = None
    path: str | None = None
    n: int = 0
    trial_seed: int = 0


def unit_rng(seed: int, workload: str, stream: int, k: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, WORKLOADS.index(workload), stream, k]))


# ---------------------------------------------------------------------------
# Independent encoders and oracles
# ---------------------------------------------------------------------------


def encode_graph6(n: int, bits: np.ndarray) -> str:
    """graph6 line from the upper-triangle bits in column order (0,1),(0,2),(1,2),..."""
    if not 1 <= n <= 62:
        raise ValueError("encoder covers 1 <= n <= 62")
    flat = [int(b) for b in bits] + [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, flat[i:i + 6])), 2)) for i in range(0, len(flat), 6)
    )
    return chr(63 + n) + body


def connected_mask_count(n: int, lo: int, hi: int) -> int:
    """Connected labeled graphs among edge masks [lo, hi); bit k = k-th lex pair."""
    masks = np.arange(lo, hi, dtype=np.int64)
    adj = np.zeros((n, len(masks)), dtype=np.int64)
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            e = (masks >> k) & 1
            adj[u] |= e << v
            adj[v] |= e << u
            k += 1
    reach = np.ones(len(masks), dtype=np.int64)
    for _ in range(n - 1):
        nxt = reach.copy()
        for v in range(n):
            nxt |= np.where((reach >> v) & 1, adj[v], 0)
        reach = nxt
    return int(np.count_nonzero(reach == (1 << n) - 1))


def gnp_graph6_lines(rng: np.random.Generator, n: int, count: int) -> list[str]:
    """``count`` distinct labeled G(n, p) graphs, p ~ U[0.1, 0.9] per graph."""
    npairs = n * (n - 1) // 2
    lines: list[str] = []
    seen: set[str] = set()
    while len(lines) < count:
        p = rng.uniform(0.1, 0.9)
        line = encode_graph6(n, rng.random(npairs) < p)
        if line not in seen:
            seen.add(line)
            lines.append(line)
    return lines


def write_lines(path: str, lines: list[str]) -> str:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------


def make_unit(workload: str, seed: int, k: int, workdir: str, tiny: bool = False) -> Unit:
    """Unit k of a workload; g6 units write their corpus file into ``workdir``."""
    size = TINY if tiny else FULL
    rng = unit_rng(seed, workload, 1, k)
    if workload == "enum7_connected":
        block = size["enum_block"]
        b = int(rng.integers(0, (1 << (ENUM_N * (ENUM_N - 1) // 2)) // block))
        lo, hi = b * block, (b + 1) * block
        return Unit("enum", "all", block, connected_mask_count(ENUM_N, lo, hi), index_range=(lo, hi))
    if workload == "g6_n8to10":
        n = G6_ORDERS[k % len(G6_ORDERS)]
        count = size["g6_lines"]
        path = write_lines(os.path.join(workdir, "unit.g6"), gnp_graph6_lines(rng, n, count))
        return Unit("g6", "all", count, count, path=path, n=n)
    if workload == "gnp1000":
        return Unit("gnp", GNP_CHECKS, 1, 1, n=size["gnp_n"], trial_seed=int(rng.integers(0, 2**31)))
    raise ValueError(f"unknown workload {workload!r}")


def make_warmup(workload: str, seed: int, workdir: str) -> Unit:
    """The single cold scan that set-up time includes, on the workload's path."""
    rng = unit_rng(seed, workload, 0)
    if workload == "enum7_connected":
        m = int(rng.integers(0, 1 << (ENUM_N * (ENUM_N - 1) // 2)))
        return Unit("enum", "all", 1, connected_mask_count(ENUM_N, m, m + 1), index_range=(m, m + 1))
    if workload == "g6_n8to10":
        lines = [gnp_graph6_lines(rng, n, 1)[0] for n in G6_ORDERS]
        path = write_lines(os.path.join(workdir, "warmup.g6"), lines)
        return Unit("g6", "all", len(lines), len(lines), path=path)
    if workload == "gnp1000":
        return Unit("gnp", GNP_CHECKS, 1, 1, n=GNP_WARMUP_N, trial_seed=int(rng.integers(0, 2**31)))
    raise ValueError(f"unknown workload {workload!r}")
