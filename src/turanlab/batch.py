"""Vectorized per-chunk evaluation for the labeled-graph enumeration scans.

A chunk of graphs on n <= 11 vertices is a vector of int64 edge masks (bit
k of a mask is the k-th pair in lexicographic order).  Everything the catalogue
needs is computed with batched numpy kernels:

 * spectra via stacked ``eigvalsh`` calls,
 * clique quantities via the subset table: a vertex subset S is a clique of
   mask M iff required_edges(S) & ~M == 0, and there are 2^n - 1 nonempty
   subsets, so one boolean (chunk x subsets) matrix answers omega, c(v),
   c(e), t and diamond-freeness at once,
 * walk counts via repeated int64 matmuls, extended on demand,
 * connectivity via boolean matrix squaring.

The resulting ``BatchContext`` derives its catalogue fields through the same
``DerivedFields`` as the scalar ``GraphContext``, so catalogue formulas
evaluate unchanged on whole chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graph import lex_pairs
from .inequalities import DerivedFields
from .spectra import DEFAULT_SIGN_RTOL


@dataclass(frozen=True)
class SubsetTables:
    n: int
    pairs: tuple[tuple[int, int], ...]
    pair_u: np.ndarray
    pair_v: np.ndarray
    sub_req: np.ndarray      # required edge mask per nonempty vertex subset
    sub_pc: np.ndarray       # subset cardinality
    vert_idx: tuple[np.ndarray, ...]   # subsets containing v
    pair_idx: tuple[np.ndarray, ...]   # subsets containing both endpoints of pair k
    tri_pos: np.ndarray                # subsets of size 3
    tri_by_pair: tuple[np.ndarray, ...]  # size-3 subsets through pair k


@lru_cache(maxsize=None)
def subset_tables(n: int) -> SubsetTables:
    pairs = tuple(lex_pairs(n))
    bit_of_pair = {p: k for k, p in enumerate(pairs)}
    subs = list(range(1, 1 << n))
    req = np.zeros(len(subs), dtype=np.int64)
    pc = np.zeros(len(subs), dtype=np.int64)
    members: list[list[int]] = []
    for i, s in enumerate(subs):
        mem = [v for v in range(n) if s >> v & 1]
        members.append(mem)
        pc[i] = len(mem)
        mask = 0
        for a in range(len(mem)):
            for b in range(a + 1, len(mem)):
                mask |= 1 << bit_of_pair[(mem[a], mem[b])]
        req[i] = mask
    vert_idx = tuple(
        np.array([i for i, mem in enumerate(members) if v in mem], dtype=np.int64)
        for v in range(n)
    )
    pair_idx = tuple(
        np.array([i for i, mem in enumerate(members) if u in mem and v in mem], dtype=np.int64)
        for u, v in pairs
    )
    tri_pos = np.flatnonzero(pc == 3)
    tri_by_pair = tuple(
        np.array(
            [i for i in tri_pos if u in members[i] and v in members[i]],
            dtype=np.int64,
        )
        for u, v in pairs
    )
    return SubsetTables(
        n=n,
        pairs=pairs,
        pair_u=np.array([p[0] for p in pairs], dtype=np.int64),
        pair_v=np.array([p[1] for p in pairs], dtype=np.int64),
        sub_req=req,
        sub_pc=pc,
        vert_idx=vert_idx,
        pair_idx=pair_idx,
        tri_pos=tri_pos,
        tri_by_pair=tri_by_pair,
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
        edge_bool = edge_present.astype(bool)

        a_int = np.zeros((B, n, n), dtype=np.int64)
        a_int[:, tab.pair_u, tab.pair_v] = edge_present
        a_int[:, tab.pair_v, tab.pair_u] = edge_present
        degrees = a_int.sum(axis=2)

        self.n = n
        self.m = edge_present.sum(axis=1)
        self.complete = self.m == nbits
        self.regular = degrees.max(axis=1) == degrees.min(axis=1)

        # Connectivity: (A+I)^(2^k) reaches along every path once 2^k >= n - 1.
        reach = (a_int + np.eye(n, dtype=np.int64)[None]) > 0
        for _ in range(max(n - 2, 0).bit_length()):
            reach = np.matmul(reach.astype(np.uint8), reach.astype(np.uint8)) > 0
        self.connected = reach[:, 0, :].all(axis=1)

        eigs = np.linalg.eigvalsh(a_int.astype(np.float64))
        desc = eigs[:, ::-1]
        self.eigenvalues = desc
        self.lam1 = desc[:, 0].copy()
        self.lam2 = desc[:, 1].copy() if n >= 2 else np.zeros(B)
        thr = DEFAULT_SIGN_RTOL * np.maximum(1.0, self.lam1)[:, None]
        sq = desc * desc
        self.s_plus = np.where(desc > thr, sq, 0.0).sum(axis=1)
        self.s_minus = np.where(desc < -thr, sq, 0.0).sum(axis=1)

        is_clique = (masks[:, None] & tab.sub_req[None, :]) == tab.sub_req[None, :]
        pc_masked = np.where(is_clique, tab.sub_pc[None, :], 0)
        self.omega = pc_masked.max(axis=1)
        c_v = np.empty((B, n), dtype=np.int64)
        for v in range(n):
            c_v[:, v] = pc_masked[:, tab.vert_idx[v]].max(axis=1)
        # c(e) of a non-edge is 0: no subset through both endpoints is a clique.
        c_e = np.zeros((B, nbits), dtype=np.int64)
        for k in range(nbits):
            c_e[:, k] = pc_masked[:, tab.pair_idx[k]].max(axis=1)
        self.t = is_clique[:, tab.tri_pos].sum(axis=1)
        tri_per_edge = np.zeros((B, nbits), dtype=np.int64)
        for k in range(nbits):
            tri_per_edge[:, k] = is_clique[:, tab.tri_by_pair[k]].sum(axis=1)
        self.diamond_free = ((tri_per_edge <= 1) | ~edge_bool).all(axis=1)
        self.ce3_count = (c_e == 3).sum(axis=1)
        self.ce2_count = (c_e == 2).sum(axis=1)

        self._adj = a_int
        self._deg_max = float(degrees.max(initial=0))
        # Non-edge slots enter the c(e) sum as c = 1, which adds exactly 0.
        self._derive(c_v, np.maximum(c_e, 1).astype(np.float64), np.ones((B, n), dtype=np.int64))

    def _walk_step(self, w):
        # No w_{r+1}(v) exceeds the chunk's largest degree times its largest
        # w_r entry; refuse a step whose bound leaves int64.
        if self._deg_max * float(w.max(initial=0)) >= 2.0**63:
            raise OverflowError("walk counts exceed int64 at this order and walk length")
        return np.matmul(self._adj, w[:, :, None])[:, :, 0]
