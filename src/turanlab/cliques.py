"""Clique number, localized clique numbers c(v)/c(e), triangles, predicates.

The exact search is branch-and-bound over bitmask candidate sets with a
greedy-coloring upper bound and pivot-style pruning.  Localized quantities
restrict the universe to a single neighborhood (c(v) = 1 + omega(G[N(v)]),
c(uv) = 2 + omega(G[N(u) cap N(v)])), so per-call universes stay small even
on large graphs.

Above ``EXACT_ORDER_CAP`` vertices the exhaustive search becomes
impractical; there the localized quantities fall back to greedy clique
extension, which yields certified lower bounds.  Every inequality in the
catalogue is monotone increasing in the clique sizes on its bound side, so
lower bounds can only under-report the bound: a check that passes with them
is guaranteed, and a candidate violation is reported with a note in its
``notes`` that it is unconfirmed.

The greedy extension runs as one numpy kernel over packed uint64 neighbour
rows: each step takes the lowest candidate of every row of a block of
universes at once (all vertices for c(v), blocks of edges for c(e)).  On
G(1000, 1/2) it covers the ~250k edges in about 0.25 s, against about 1 s
for one Python big-int loop per edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, is_connected

EXACT_ORDER_CAP = 64
# One greedy block's candidate rows plus the neighbour rows gathered for them
# stay near 1 MB: 4,096 universes at n = 1,000.
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class CliqueProfile:
    """Clique-local summary of one graph."""

    omega: int
    c_v: tuple[int, ...]
    c_e: tuple[int, ...]  # aligned with Graph.edges order
    t: int
    tv: int
    diamond_free: bool  # no edge has two common neighbours
    exact: bool = True

    def __post_init__(self):
        if not all(1 <= c <= self.omega for c in self.c_v):
            raise ValueError(f"c(v) outside [1, omega = {self.omega}]")
        if self.c_v and max(self.c_v) != self.omega:
            raise ValueError(f"omega = {self.omega} but max c(v) = {max(self.c_v)}")


def _greedy_clique(adj: tuple[int, ...], universe: int) -> int:
    """Lowest-bit greedy extension; returns a clique mask within universe."""
    clique = 0
    cand = universe
    while cand:
        b = cand & -cand
        clique |= b
        cand &= adj[b.bit_length() - 1]
    return clique


def _pack(rows, n: int) -> np.ndarray:
    """Bitmask rows as (len(rows), ceil(n / 64)) uint64; bit v sits in word v // 64."""
    width = 8 * ((n + 63) // 64)
    data = bytearray(b"".join(row.to_bytes(width, "little") for row in rows))
    return np.frombuffer(data, dtype="<u8").reshape(-1, width // 8)


def _greedy_block(packed: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Lowest-bit greedy clique size inside every row of ``cand`` (consumed).

    Row for row this is ``_greedy_clique(adj, universe).bit_count()``.
    """
    size = np.zeros(len(cand), dtype=np.int64)
    rows = np.arange(len(cand))
    at = rows
    last = len(packed) - 1
    while True:
        word = (cand != 0).argmax(axis=1)
        low = cand[at, word]
        alive = low != 0
        live = np.count_nonzero(alive)
        if not live:
            return size
        # Depths spread (5 to 13 steps per edge of G(1000, 1/2)), so empty
        # rows are dropped once they are the majority.
        if 2 * live < len(cand):
            rows, cand, word, low = rows[alive], cand[alive], word[alive], low[alive]
            at = np.arange(live)
            size[rows] += 1
        else:
            size[rows] += alive
        # Trailing zeros of the lowest word: an empty row reads v = 63, which
        # the clamp keeps in range; its candidates stay empty either way.
        v = 64 * word + np.bitwise_count(low ^ (low - 1)).astype(np.intp) - 1
        np.minimum(v, last, out=v)
        cand &= packed[v]


def _greedy_sizes(packed: np.ndarray, u: np.ndarray,
                  v: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Greedy clique sizes in N(u) (or N(u) cap N(v)) and those sets' sizes."""
    block = max(1, _BLOCK_BYTES // (16 * packed.shape[1]))
    sizes = np.empty(len(u), dtype=np.int64)
    counts = np.empty(len(u), dtype=np.int64)
    for lo in range(0, len(u), block):
        cand = packed[u[lo:lo + block]]
        if v is not None:
            cand &= packed[v[lo:lo + block]]
        counts[lo:lo + block] = np.bitwise_count(cand).sum(axis=1)
        sizes[lo:lo + block] = _greedy_block(packed, cand)
    return sizes, counts


def max_clique(g: Graph, universe: int | None = None) -> tuple[int, tuple[int, ...]]:
    """Exact maximum clique size and one witness vertex set.

    ``universe`` restricts the search to an induced subgraph given as a
    vertex bitmask (used for the localized clique numbers).
    """
    adj = g.adj
    if universe is None:
        universe = (1 << g.n) - 1
    if universe.bit_count() > EXACT_ORDER_CAP:
        raise ValueError(f"exact clique search capped at {EXACT_ORDER_CAP} vertices")
    best_mask = _greedy_clique(adj, universe)
    best = [best_mask.bit_count(), best_mask]

    def expand(r_mask: int, r_size: int, cand: int):
        # Greedy coloring of cand: color classes are independent sets, so a
        # clique meets each class at most once and r_size + color bounds it.
        order: list[tuple[int, int]] = []
        q = cand
        color = 0
        while q:
            color += 1
            avail = q
            while avail:
                b = avail & -avail
                v = b.bit_length() - 1
                order.append((v, color))
                q ^= b
                avail = (avail ^ b) & ~adj[v]
        for v, c in reversed(order):
            if r_size + c <= best[0]:
                return
            bit = 1 << v
            if r_size + 1 > best[0]:
                best[0] = r_size + 1
                best[1] = r_mask | bit
            new_cand = cand & adj[v]
            if new_cand and r_size + 1 + new_cand.bit_count() > best[0]:
                expand(r_mask | bit, r_size + 1, new_cand)
            cand ^= bit

    if universe:
        expand(0, 0, universe)
    witness = tuple(v for v in range(g.n) if best[1] >> v & 1)
    return best[0], witness


def clique_number(g: Graph, universe: int | None = None, exact: bool = True) -> int:
    if exact:
        return max_clique(g, universe)[0]
    uni = (1 << g.n) - 1 if universe is None else universe
    return int(_greedy_block(_pack(g.adj, g.n), _pack((uni,), g.n))[0])


def vertex_clique_numbers(g: Graph, exact: bool | None = None) -> tuple[int, ...]:
    """c(v) = 1 + omega(G[N(v)]) for every vertex; isolated vertices get 1."""
    if exact is None:
        exact = g.n <= EXACT_ORDER_CAP
    if exact:
        return tuple(1 + max_clique(g, row)[0] for row in g.adj)
    sizes, _ = _greedy_sizes(_pack(g.adj, g.n), np.arange(g.n))
    return tuple((1 + sizes).tolist())


def _edge_scan(g: Graph, exact: bool) -> tuple[tuple[int, ...], np.ndarray]:
    """c(e) aligned with g.edges, and each edge's common-neighbour count."""
    if exact:
        adj = g.adj
        common = [adj[u] & adj[v] for u, v in g.edges]
        c_e = tuple(2 + max_clique(g, c)[0] for c in common)
        return c_e, np.array([c.bit_count() for c in common], dtype=np.int64)
    # np.nonzero walks the upper triangle row by row: g.edges order.
    u, v = np.nonzero(np.triu(g.dense(np.uint8), 1))
    sizes, counts = _greedy_sizes(_pack(g.adj, g.n), u, v)
    return tuple((2 + sizes).tolist()), counts


def edge_clique_numbers(g: Graph, exact: bool | None = None) -> tuple[int, ...]:
    """c(uv) = 2 + omega(G[N(u) cap N(v)]), aligned with g.edges."""
    if exact is None:
        exact = g.n <= EXACT_ORDER_CAP
    return _edge_scan(g, exact)[0]


def _triangles(common_total: int) -> int:
    """t(G) from the summed common-neighbour counts (each triangle hits 3 edges)."""
    if common_total % 3:
        raise ValueError(f"edge triangle counts sum to {common_total}, not a multiple of 3")
    return common_total // 3


def triangle_count(g: Graph) -> int:
    """Exact t(G) via neighbor-mask intersections."""
    adj = g.adj
    return _triangles(sum((adj[u] & adj[v]).bit_count() for u, v in g.edges))


def is_diamond_free(g: Graph) -> bool:
    """No edge whose endpoints share two common neighbors."""
    adj = g.adj
    return all((adj[u] & adj[v]).bit_count() <= 1 for u, v in g.edges)


def is_bipartite(g: Graph) -> bool:
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] >= 0:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            rest = g.adj[v]
            while rest:
                b = rest & -rest
                u = b.bit_length() - 1
                rest ^= b
                if color[u] < 0:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def is_complete_multipartite(g: Graph) -> bool:
    """True iff the complement is a disjoint union of cliques."""
    full = (1 << g.n) - 1
    comp = tuple(full ^ (1 << v) ^ g.adj[v] for v in range(g.n))
    seen = 0
    for start in range(g.n):
        if seen >> start & 1:
            continue
        # Component of the complement containing start.
        visited = 1 << start
        frontier = visited
        while frontier:
            nxt = 0
            rest = frontier
            while rest:
                b = rest & -rest
                nxt |= comp[b.bit_length() - 1]
                rest ^= b
            frontier = nxt & ~visited
            visited |= frontier
        rest = visited
        while rest:
            b = rest & -rest
            if comp[b.bit_length() - 1] & visited != visited ^ b:
                return False
            rest ^= b
        seen |= visited
    return True


def predicates(g: Graph) -> dict[str, bool]:
    degs = g.degrees
    return {
        "triangle_free": triangle_count(g) == 0,
        "diamond_free": is_diamond_free(g),
        "regular": min(degs) == max(degs),
        "complete": g.m == g.n * (g.n - 1) // 2,
        "bipartite": is_bipartite(g),
        "complete_multipartite": is_complete_multipartite(g),
        "connected": is_connected(g),
    }


def clique_profile(g: Graph, exact: bool | None = None) -> CliqueProfile:
    if exact is None:
        exact = g.n <= EXACT_ORDER_CAP
    c_v = vertex_clique_numbers(g, exact)
    c_e, common = _edge_scan(g, exact)
    return CliqueProfile(
        omega=max(c_v),
        c_v=c_v,
        c_e=c_e,
        t=_triangles(int(common.sum())),
        tv=sum(1 for c in c_v if c >= 3),
        diamond_free=bool((common <= 1).all()),
        exact=exact,
    )
