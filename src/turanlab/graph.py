"""Simple undirected graphs as per-vertex neighbor bitmasks.

Vertices are 0-indexed. Each adjacency row is a Python int whose bit v
marks a neighbor, so a row holds an arbitrary number of 64-bit words and
set operations (intersection of neighborhoods, candidate pruning in the
clique search) are single ``&`` / ``|`` operations.

Graphs intended for the clique machinery and graph6 interchange are capped
at 64 vertices.  Dense random graphs used by the spectral experiments may
go up to ``MAX_ORDER`` (4096); their adjacency rows simply span more words.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

# Order caps: graph6 I/O and built-in enumeration stay within one machine
# word; dense random-graph experiments may use larger orders.
GRAPH6_MAX_ORDER = 64
MAX_ORDER = 4096
ENUMERATION_MAX_ORDER = 7


class GraphError(ValueError):
    """Invalid graph construction parameters."""


class Graph6ParseError(GraphError):
    """Malformed graph6 input; carries the offending byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class CapabilityError(GraphError):
    """Request exceeds a built-in capability (e.g. enumeration order)."""


def lex_pairs(n: int) -> list[tuple[int, int]]:
    """All vertex pairs (u, v) with u < v in lexicographic order.

    Bit k of an enumeration edge mask refers to ``lex_pairs(n)[k]``.
    """
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: order ``n`` plus neighbor bitmask rows."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if not (1 <= self.n <= MAX_ORDER):
            raise GraphError(f"order {self.n} outside [1, {MAX_ORDER}]")
        if len(self.adj) != self.n:
            raise GraphError("adjacency row count differs from order")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise GraphError(f"row {v} has neighbor bits beyond order")
            if row >> v & 1:
                raise GraphError(f"loop at vertex {v}")
        # Symmetry: u in adj[v] iff v in adj[u].
        for v, row in enumerate(self.adj):
            rest = row >> (v + 1)
            while rest:
                u = (rest & -rest).bit_length() + v
                if not self.adj[u] >> v & 1:
                    raise GraphError(f"asymmetric edge ({v}, {u})")
                rest &= rest - 1

    @cached_property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edge list with u < v, lexicographic order."""
        out = []
        for u, row in enumerate(self.adj):
            rest = row >> (u + 1) << (u + 1)
            while rest:
                b = rest & -rest
                out.append((u, b.bit_length() - 1))
                rest ^= b
        return tuple(out)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def dense(self, dtype=np.float64) -> np.ndarray:
        """Dense 0/1 adjacency matrix (fed to the eigensolver and the walk step)."""
        width = (self.n + 7) // 8
        rows = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in self.adj),
                             dtype=np.uint8).reshape(self.n, width)
        bits = np.unpackbits(rows, axis=1, count=self.n, bitorder="little")
        return bits.astype(dtype, copy=False)

    def edge_mask(self) -> int:
        """Edge set packed into the lexicographic pair-bit order."""
        # Row u's neighbours above u fill the pair bits (u, u+1), ..., (u, n-1).
        mask = offset = 0
        for u, row in enumerate(self.adj):
            mask |= row >> (u + 1) << offset
            offset += self.n - 1 - u
        return mask

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise GraphError(f"loop ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def from_edge_mask(n: int, mask: int) -> Graph:
    """Graph for one index of the labeled enumeration (bit k = lex pair k)."""
    adj = [0] * n
    for k, (u, v) in enumerate(lex_pairs(n)):
        if mask >> k & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def from_numpy(a: np.ndarray) -> Graph:
    """Graph from a symmetric 0/1 matrix (diagonal ignored)."""
    n = a.shape[0]
    b = np.asarray(a) != 0
    np.fill_diagonal(b, False)
    if not (b == b.T).all():
        raise GraphError("adjacency matrix not symmetric")
    weights = 1 << np.arange(n, dtype=object)
    adj = tuple(int((row * weights).sum()) for row in b)
    return Graph(n, adj)


# ---------------------------------------------------------------------------
# graph6 codec
#
# Header: one byte 63+n for n <= 62, or '~' followed by three bytes carrying
# 18 big-endian bits (each byte 63+sixbits) for larger orders.  Body: the
# upper-triangle bits x(i,j) ordered column-major (j = 1..n-1, i = 0..j-1),
# packed big-endian into 6-bit groups, each group offset by 63.  Zero padding
# to a byte boundary is required.
# ---------------------------------------------------------------------------


def from_graph6(text: str) -> Graph:
    """Decode one graph6 line into a labeled graph (order <= 64).

    Only ASCII whitespace (``string.whitespace``) is stripped; other control
    characters are parse errors.  Error offsets count from the start of
    ``text``: leading whitespace and a ``>>graph6<<`` header are counted too.
    """
    line = text.rstrip(string.whitespace)
    start = len(line) - len(line.lstrip(string.whitespace))
    if line.startswith(">>graph6<<", start):
        start += len(">>graph6<<")
    line = line[start:]
    if not line:
        raise Graph6ParseError("empty graph6 line", start)
    if not line.isascii():
        bad = next(i for i, ch in enumerate(line) if not ch.isascii())
        raise Graph6ParseError("non-ASCII character", start + bad)
    data = line.encode("ascii")
    if data[0] == 126:  # '~': multi-byte order
        if len(data) >= 2 and data[1] == 126:
            raise Graph6ParseError("8-byte order form exceeds supported range", start + 1)
        if len(data) < 4:
            raise Graph6ParseError("truncated multi-byte order", start + len(data))
        n = 0
        for i in range(1, 4):
            c = data[i] - 63
            if not 0 <= c < 64:
                raise Graph6ParseError("order byte outside graph6 range", start + i)
            n = n << 6 | c
        if n < 63:
            raise Graph6ParseError("four-byte order form needs order >= 63", start + 1)
        pos = 4
    else:
        n = data[0] - 63
        if not 0 <= n < 63:
            raise Graph6ParseError("malformed header byte", start)
        pos = 1
    if n < 1:
        raise Graph6ParseError("graph6 order 0 not supported", start)
    if n > GRAPH6_MAX_ORDER:
        raise Graph6ParseError(f"order {n} exceeds the {GRAPH6_MAX_ORDER}-vertex cap", start)

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[pos:]
    pos += start  # offset of the body in text
    if len(body) < nbytes:
        raise Graph6ParseError("truncated bit body", pos + len(body))
    if len(body) > nbytes:
        raise Graph6ParseError("trailing bytes after bit body", pos + nbytes)

    adj = [0] * n
    bit = 0
    for off, byte in enumerate(body):
        group = byte - 63
        if not 0 <= group < 64:
            raise Graph6ParseError("body byte outside graph6 range", pos + off)
        for k in range(5, -1, -1):
            if bit >= nbits:
                if group >> k & 1:
                    raise Graph6ParseError("nonzero padding bits", pos + off)
                continue
            if group >> k & 1:
                i, j = _g6_pair(bit)
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            bit += 1
    return Graph(n, tuple(adj))


def _g6_pair(bit: int) -> tuple[int, int]:
    # Column-major upper triangle: column j holds bits for i = 0..j-1.
    j = 1
    while bit >= j:
        bit -= j
        j += 1
    return bit, j


def to_graph6(g: Graph) -> str:
    """Encode a labeled graph as one graph6 line (inverse of from_graph6)."""
    n = g.n
    if n > GRAPH6_MAX_ORDER:
        raise CapabilityError(f"graph6 output capped at {GRAPH6_MAX_ORDER} vertices")
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    bits = []
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            bits.append(col >> i & 1)
    while len(bits) % 6:
        bits.append(0)
    body = "".join(
        chr(63 + (bits[k] << 5 | bits[k + 1] << 4 | bits[k + 2] << 3
                  | bits[k + 3] << 2 | bits[k + 4] << 1 | bits[k + 5]))
        for k in range(0, len(bits), 6)
    )
    return head + body


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def empty(n: int) -> Graph:
    return Graph(n, (0,) * n)


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs n >= 1")
    return from_edges(n, [(v, v + 1) for v in range(n - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return complete_multipartite([a, b])


def complete_multipartite(part_sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph; edges exactly between distinct parts."""
    if not part_sizes:
        raise GraphError("part size list is empty")
    if any(s < 1 for s in part_sizes):
        raise GraphError("part sizes must be positive")
    n = sum(part_sizes)
    part_masks = []
    start = 0
    for s in part_sizes:
        part_masks.append(((1 << s) - 1) << start)
        start += s
    full = (1 << n) - 1
    adj = []
    for mask in part_masks:
        row = full ^ mask
        adj.extend([row] * mask.bit_count())
    return Graph(n, tuple(adj))


def petersen() -> Graph:
    outer = [(v, (v + 1) % 5) for v in range(5)]
    spokes = [(v, v + 5) for v in range(5)]
    inner = [(5 + v, 5 + (v + 2) % 5) for v in range(5)]
    return from_edges(10, outer + spokes + inner)


def diamond() -> Graph:
    """K4 minus one edge."""
    return from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def bowtie() -> Graph:
    """Two triangles sharing one vertex."""
    return from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


_NAMED_PARAMETRIC = {
    "complete": (complete, 1),
    "cycle": (cycle, 1),
    "path": (path, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "cmp": (complete_multipartite, None),
}

_NAMED_FIXED = {
    "petersen": petersen,
    "diamond": diamond,
    "bowtie": bowtie,
    "octahedron": lambda: complete_multipartite([2, 2, 2]),
}


def named(spec: str) -> Graph:
    """Build a standard graph from ``name`` or ``name:params`` syntax.

    Examples: ``complete:4``, ``cycle:5``, ``cmp:2,2,2``, ``petersen``.
    """
    name, _, argstr = spec.partition(":")
    name = name.strip().lower()
    if name in _NAMED_FIXED:
        if argstr:
            raise GraphError(f"{name} takes no parameters")
        return _NAMED_FIXED[name]()
    if name in _NAMED_PARAMETRIC:
        fn, arity = _NAMED_PARAMETRIC[name]
        try:
            args = [int(s) for s in argstr.split(",")] if argstr else []
        except ValueError:
            raise GraphError(f"bad parameters {argstr!r} for {name}") from None
        if arity is None:
            return fn(args)
        if len(args) != arity:
            raise GraphError(f"{name} takes {arity} parameter(s)")
        return fn(*args)
    known = sorted([*_NAMED_FIXED, *_NAMED_PARAMETRIC])
    raise GraphError(f"unknown graph name {name!r}; known: {', '.join(known)}")


# ---------------------------------------------------------------------------
# Randomness.  All streams come from PCG64 seeded through SeedSequence; the
# splitting rule is SeedSequence(seed, spawn_key=key) where key is () for a
# single draw, (graph_index,) for stream items and (trial,) for experiment
# trials.  Fixed seed therefore pins every stream independent of consumption
# order or worker layout.
# ---------------------------------------------------------------------------


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def random_gnp(n: int, p: float, seed: int, index: int | None = None) -> Graph:
    """Erdos-Renyi G(n, p): each pair independently an edge with probability p.

    The same (n, p, seed, index) always yields the same labeled graph.
    ``index`` selects a stream within the seed (used by trial loops).
    """
    if not 0.0 < p < 1.0:
        raise GraphError(f"p={p} outside (0, 1)")
    if not 1 <= n <= MAX_ORDER:
        raise GraphError(f"order {n} outside [1, {MAX_ORDER}]")
    rng = rng_for(seed) if index is None else rng_for(seed, index)
    iu = np.triu_indices(n, k=1)
    draws = rng.random(len(iu[0])) < p
    a = np.zeros((n, n), dtype=bool)
    a[iu] = draws
    a |= a.T
    return _from_bool_matrix(a)


def _from_bool_matrix(a: np.ndarray) -> Graph:
    n = a.shape[0]
    packed = np.packbits(a, axis=1, bitorder="little")
    adj = tuple(int.from_bytes(packed[v].tobytes(), "little") for v in range(n))
    return Graph(n, adj)


# ---------------------------------------------------------------------------
# Enumeration and basic operations
# ---------------------------------------------------------------------------


def enumerate_labeled(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """Every labeled graph on n vertices once, in edge-mask order.

    Built-in enumeration stops at 7 vertices (2^21 graphs); larger orders
    must be supplied as graph6 streams from an external generator.
    """
    if not 1 <= n <= ENUMERATION_MAX_ORDER:
        raise CapabilityError(
            f"built-in enumeration covers 1 <= n <= {ENUMERATION_MAX_ORDER}; "
            "provide a graph6 stream for larger orders"
        )
    for mask in range(1 << (n * (n - 1) // 2)):
        g = from_edge_mask(n, mask)
        if connected_only and not is_connected(g):
            continue
        yield g


def is_connected(g: Graph) -> bool:
    """BFS reachability of all vertices from vertex 0."""
    full = (1 << g.n) - 1
    visited = 1
    frontier = 1
    while frontier:
        nxt = 0
        rest = frontier
        while rest:
            b = rest & -rest
            nxt |= g.adj[b.bit_length() - 1]
            rest ^= b
        frontier = nxt & ~visited
        visited |= frontier
    return visited == full


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Block-diagonal union with h's vertices relabeled above g's."""
    n = g.n + h.n
    if n > GRAPH6_MAX_ORDER:
        raise GraphError(f"union order {n} exceeds {GRAPH6_MAX_ORDER}")
    adj = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(n, tuple(adj))
