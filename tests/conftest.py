import numpy as np

from turanlab import graph as gr


def random_mask(rng: np.random.Generator, nbits: int) -> int:
    """Uniform nbits-bit integer (nbits may exceed 63)."""
    nbytes = max(1, (nbits + 7) // 8)
    return int.from_bytes(rng.bytes(nbytes), "little") & ((1 << nbits) - 1)


def random_graph(rng: np.random.Generator, n_lo: int = 1, n_hi: int = 9) -> gr.Graph:
    n = int(rng.integers(n_lo, n_hi + 1))
    return gr.from_edge_mask(n, random_mask(rng, n * (n - 1) // 2))


def neighbour_sum_walks(g, r_max):
    """Oracle: [w_1, ..., w_{r_max}] by big-integer neighbour sums."""
    nbrs = [[u for u in range(g.n) if g.has_edge(u, v)] for v in range(g.n)]
    table = [[1] * g.n]
    while len(table) < r_max:
        table.append([sum(table[-1][u] for u in nb) for nb in nbrs])
    return table
