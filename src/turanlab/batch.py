"""Vectorized evaluation of a chunk of small graphs given as edge masks.

A chunk of graphs on n <= 11 vertices is a vector of int64 edge masks (bit
k of a mask is the k-th pair in lexicographic order).  ``BatchContext``
computes the base arrays with batched numpy kernels:

 * the spectrum: one stacked ``eigvalsh`` call,
 * the clique table: a vertex subset S is a clique iff S minus its top
   vertex v is a clique inside N(v), which fills one boolean (chunk x 2^n)
   table in n slices; a subset-max pass turns it into the largest clique
   inside every subset, so c(v) = 1 + that of N(v) and an edge uv has
   c(uv) = 2 + that of N(u) & N(v),
 * per-edge triangle counts: A^2 at the edge slots, which give t (their sum
   over 3) and diamond-freeness (no edge in two triangles),
 * walk counts: ``spectra.walk_step``, the same exact step as the
   per-graph context, one uint64 matmul per step; the bound (n - 1)^19 of
   w_20 stays below 2^64 at every n <= 11, so no residue channel is added,
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
    sub_size: np.ndarray     # int8 cardinality of every vertex subset, the empty one first


@lru_cache(maxsize=None)
def subset_tables(n: int) -> SubsetTables:
    pairs = tuple(lex_pairs(n))
    subs = np.arange(1 << n, dtype=np.int64)
    member = (subs[:, None] >> np.arange(n, dtype=np.int64)[None, :]) & 1
    return SubsetTables(
        pairs=pairs,
        pair_u=np.array([p[0] for p in pairs], dtype=np.int64),
        pair_v=np.array([p[1] for p in pairs], dtype=np.int64),
        sub_size=member.sum(axis=1).astype(np.int8),
    )


def _clique_numbers(tab: SubsetTables, nbr: np.ndarray, edge_present: np.ndarray):
    """c(v) per vertex and c(e) per pair slot (0 on a non-edge) of every row."""
    B, n = nbr.shape
    full = 1 << n
    clique = np.ones((B, full), dtype=bool)
    for v in range(n):
        low = np.arange(1 << v, dtype=np.int16)
        np.logical_and(clique[:, :1 << v], (nbr[:, v, None] & low) == low,
                       out=clique[:, 1 << v:2 << v])
    # Subset-max over one vertex at a time: best[S] = the largest clique inside S.
    best = clique * tab.sub_size
    for i in range(n):
        half = best.reshape(B, full >> (i + 1), 2, 1 << i)
        np.maximum(half[:, :, 1], half[:, :, 0], out=half[:, :, 1])
    c_v = 1 + np.take_along_axis(best, nbr.astype(np.intp), axis=1).astype(np.int64)
    common = (nbr[:, tab.pair_u] & nbr[:, tab.pair_v]).astype(np.intp)
    c_e = (2 + np.take_along_axis(best, common, axis=1).astype(np.int64)) * edge_present
    return c_v, c_e


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

        # Neighbourhoods as n-bit vertex subsets; n <= 11 fits in int16.
        nbr = np.matmul(a_int, np.int64(1) << np.arange(n, dtype=np.int64)).astype(np.int16)
        c_v, c_e = _clique_numbers(tab, nbr, edge_present)
        self.ce3_count = (c_e == 3).sum(axis=1)
        self.ce2_count = (c_e == 2).sum(axis=1)

        # Non-edge slots enter the c(e) sum as c = 1, which adds exactly 0.
        # The 0/1 int64 adjacency is the same bits as uint64, so the walk
        # step reads it as it is.
        self._derive(eigs[:, ::-1], degrees, c_v, np.maximum(c_e, 1).astype(np.float64),
                     a_int.view(np.uint64))
