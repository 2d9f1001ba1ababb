"""Vectorized per-chunk evaluation for the labeled-graph enumeration scans.

A chunk of graphs on n <= 11 vertices is a vector of int64 edge masks (bit
k of a mask is the k-th pair in lexicographic order).  ``BatchContext``
computes the base arrays with batched numpy kernels:

 * the spectrum: one stacked ``eigvalsh`` call,
 * c(e): the subset table.  A vertex subset S is a clique of mask M iff
   required_edges(S) & ~M == 0, so one boolean (chunk x subsets) matrix
   gives each edge slot the largest clique through both endpoints,
 * c(v): the largest c(e) over the edges at v, and 1 on isolated vertices,
 * per-edge triangle counts: A^2 at the edge slots, which give t (their sum
   over 3) and diamond-freeness (no edge in two triangles),
 * walk counts: repeated int64 matmuls, extended on demand,
 * connectivity: boolean matrix squaring.

Every other catalogue field comes from the same ``DerivedFields`` as the
scalar ``GraphContext``, so catalogue formulas evaluate unchanged on whole
chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graph import lex_pairs
from .inequalities import DerivedFields


@dataclass(frozen=True)
class SubsetTables:
    pairs: tuple[tuple[int, int], ...]
    pair_u: np.ndarray
    pair_v: np.ndarray
    sub_req: np.ndarray      # required edge mask per nonempty vertex subset
    sub_pc: np.ndarray       # subset cardinality
    pair_idx: tuple[np.ndarray, ...]   # subsets containing both endpoints of pair k


@lru_cache(maxsize=None)
def subset_tables(n: int) -> SubsetTables:
    pairs = tuple(lex_pairs(n))
    subs = np.arange(1, 1 << n, dtype=np.int64)
    member = (subs[:, None] >> np.arange(n, dtype=np.int64)[None, :]) & 1
    both = [member[:, u] & member[:, v] for u, v in pairs]
    req = np.zeros(len(subs), dtype=np.int64)
    for k, b in enumerate(both):
        req |= b << k
    return SubsetTables(
        pairs=pairs,
        pair_u=np.array([p[0] for p in pairs], dtype=np.int64),
        pair_v=np.array([p[1] for p in pairs], dtype=np.int64),
        sub_req=req,
        sub_pc=member.sum(axis=1),
        pair_idx=tuple(np.flatnonzero(b) for b in both),
    )


# C(11, 2) = 55 pair bits are the most an int64 edge mask holds.
BATCH_MAX_ORDER = 11


class BatchContext(DerivedFields):
    """Aligned arrays of per-graph quantities for one chunk of edge masks."""

    def __init__(self, n: int, masks: np.ndarray):
        if not 1 <= n <= BATCH_MAX_ORDER:
            raise ValueError(f"batch kernel covers 1 <= n <= {BATCH_MAX_ORDER} (int64 edge masks)")
        tab = subset_tables(n)
        masks = np.asarray(masks, dtype=np.int64)
        nbits = len(tab.pairs)
        B = len(masks)
        self.exact_cliques = True

        edge_present = (masks[:, None] >> np.arange(nbits, dtype=np.int64)[None, :]) & 1

        a_int = np.zeros((B, n, n), dtype=np.int64)
        a_int[:, tab.pair_u, tab.pair_v] = edge_present
        a_int[:, tab.pair_v, tab.pair_u] = edge_present
        degrees = a_int.sum(axis=2)

        # Connectivity: (A+I)^(2^k) reaches along every path once 2^k >= n - 1.
        reach = (a_int + np.eye(n, dtype=np.int64)[None]) > 0
        for _ in range(max(n - 2, 0).bit_length()):
            reach = np.matmul(reach.astype(np.uint8), reach.astype(np.uint8)) > 0
        self.connected = reach[:, 0, :].all(axis=1)

        eigs = np.linalg.eigvalsh(a_int.astype(np.float64))
        # Triangles through each edge: the common neighbours of its endpoints.
        tri_per_edge = np.matmul(a_int, a_int)[:, tab.pair_u, tab.pair_v] * edge_present
        self.t = tri_per_edge.sum(axis=1) // 3
        self.diamond_free = (tri_per_edge <= 1).all(axis=1)

        is_clique = (masks[:, None] & tab.sub_req[None, :]) == tab.sub_req[None, :]
        pc_masked = np.where(is_clique, tab.sub_pc[None, :], 0)
        # c(e) of a non-edge is 0: no subset through both endpoints is a clique.
        c_e = np.zeros((B, nbits), dtype=np.int64)
        for k in range(nbits):
            c_e[:, k] = pc_masked[:, tab.pair_idx[k]].max(axis=1)
        # A largest clique through v with 2 or more vertices contains an edge
        # at v, and that edge's c(e) is the clique's size.
        c_v = np.stack([c_e[:, (tab.pair_u == v) | (tab.pair_v == v)].max(axis=1, initial=1)
                        for v in range(n)], axis=1)
        self.ce3_count = (c_e == 3).sum(axis=1)
        self.ce2_count = (c_e == 2).sum(axis=1)

        self._adj = a_int
        self._deg_max = float(degrees.max(initial=0))
        # Non-edge slots enter the c(e) sum as c = 1, which adds exactly 0.
        self._derive(eigs[:, ::-1], degrees, c_v, np.maximum(c_e, 1).astype(np.float64),
                     np.ones((B, n), dtype=np.int64))

    def _walk_step(self, w):
        # No w_{r+1}(v) exceeds the chunk's largest degree times its largest
        # w_r entry; refuse a step whose bound leaves int64.
        if self._deg_max * float(w.max(initial=0)) >= 2.0**63:
            raise OverflowError("walk counts exceed int64 at this order and walk length")
        return np.matmul(self._adj, w[:, :, None])[:, :, 0]
