import itertools
import string

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from turanlab import graph as gr


def g6_encode_reference(n, edge_set):
    """Independent graph6 encoder straight from the format definition."""
    assert 1 <= n <= 62
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in edge_set or (j, i) in edge_set else 0)
    while len(bits) % 6:
        bits.append(0)
    out = chr(63 + n)
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = val << 1 | b
        out += chr(63 + val)
    return out


def test_graph6_k1():
    assert gr.to_graph6(gr.complete(1)) == "@"
    g = gr.from_graph6("@")
    assert g.n == 1 and g.m == 0


def test_graph6_two_vertices():
    # Reference encoder: single upper-triangle bit, padded to 6 bits.
    assert g6_encode_reference(2, {(0, 1)}) == "A_"
    assert g6_encode_reference(2, set()) == "A?"
    assert gr.to_graph6(gr.complete(2)) == "A_"
    assert gr.to_graph6(gr.empty(2)) == "A?"
    assert gr.from_graph6("A_").edges == ((0, 1),)
    assert gr.from_graph6("A?").m == 0


def test_graph6_matches_reference_encoder_small():
    for n in range(1, 6):
        pairs = gr.lex_pairs(n)
        for mask in range(1 << len(pairs)):
            edge_set = {pairs[k] for k in range(len(pairs)) if mask >> k & 1}
            g = gr.from_edges(n, edge_set)
            assert gr.to_graph6(g) == g6_encode_reference(n, edge_set)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_graph6_round_trip_random(data):
    n = data.draw(st.integers(1, 64))
    pairs = gr.lex_pairs(n)
    picks = data.draw(st.sets(st.integers(0, len(pairs) - 1), max_size=60)) if pairs else set()
    g = gr.from_edges(n, [pairs[k] for k in picks])
    assert gr.from_graph6(gr.to_graph6(g)) == g


def test_graph6_round_trip_bulk_random():
    # Spec-level volume check: identity round-trip over 10^4 random graphs.
    rng = np.random.default_rng(12345)
    for _ in range(10_000):
        n = int(rng.integers(1, 17))
        nbits = n * (n - 1) // 2
        mask = int.from_bytes(rng.bytes(16), "little") & ((1 << nbits) - 1)
        g = gr.from_edge_mask(n, mask)
        assert gr.from_graph6(gr.to_graph6(g)) == g


def test_graph6_order_63_and_64_round_trip():
    for n in (63, 64):
        g = gr.from_edges(n, [(0, v) for v in range(1, n)])
        line = gr.to_graph6(g)
        assert line.startswith("~")
        assert gr.from_graph6(line) == g


def test_graph6_errors_name_offsets():
    with pytest.raises(gr.Graph6ParseError) as exc:
        gr.from_graph6("A")  # missing body byte
    assert exc.value.offset == 1
    with pytest.raises(gr.Graph6ParseError):
        gr.from_graph6("A__")  # trailing byte
    with pytest.raises(gr.Graph6ParseError):
        gr.from_graph6(chr(30) + "??")  # header below printable range
    with pytest.raises(gr.Graph6ParseError, match="cap"):
        gr.from_graph6("~?A?" + "?" * 100)  # order 65
    with pytest.raises(gr.Graph6ParseError):
        gr.from_graph6("B~")  # nonzero padding for n=3
    with pytest.raises(gr.Graph6ParseError, match="non-ASCII") as exc:
        gr.from_graph6("Cé")  # '?' after a lossy encoding would read as K4-bar
    assert exc.value.offset == 1
    with pytest.raises(gr.Graph6ParseError, match="order >= 63") as exc:
        gr.from_graph6("~??@")  # K1 in the four-byte order form
    assert exc.value.offset == 1
    # Offsets count from the start of the text passed in.
    for text, offset in ((">>graph6<<A", 11), (" A", 2), (">>graph6<<Cé", 11), (">>graph6<<", 10)):
        with pytest.raises(gr.Graph6ParseError) as exc:
            gr.from_graph6(text)
        assert exc.value.offset == offset, text


def _graph6_texts():
    """Valid lines, graph6-range text and arbitrary text, between whitespace,
    header, '~' and control-character affixes."""
    valid = st.integers(1, 64).flatmap(
        lambda n: st.integers(0, (1 << n * (n - 1) // 2) - 1).map(
            lambda mask: gr.to_graph6(gr.from_edge_mask(n, mask))))
    g6_range = st.text(st.characters(min_codepoint=63, max_codepoint=126))
    # "~??" before a one-byte order spells the same order in the four-byte form.
    core = st.one_of(valid, valid.map(lambda line: "~??" + line), g6_range,
                     st.text(st.characters(exclude_categories=())))
    prefix = st.sampled_from(["", " \t", ">>graph6<<", " >>graph6<<", "~", "\x1c", "\x1f", "\x85"])
    suffix = st.sampled_from(["", " \r\n", "\x1c", "\x1f"])
    return st.builds(lambda a, b, c: a + b + c, prefix, core, suffix)


@settings(max_examples=400, deadline=None)
@example("~??@")  # the four-byte order form is defined for n >= 63 only
@example("\x1cA_")  # str.strip would also remove \x1c-\x1f
@given(_graph6_texts())
def test_graph6_parse_or_offset_error_fuzz(text):
    try:
        g = gr.from_graph6(text)
    except gr.Graph6ParseError as exc:
        assert 0 <= exc.offset <= len(text)
        return
    body = text.strip(string.whitespace).removeprefix(">>graph6<<")
    assert gr.to_graph6(g) == body


def test_complete_multipartite_octahedron():
    g = gr.complete_multipartite([2, 2, 2])
    assert g.n == 6 and g.m == 12
    assert gr.named("octahedron") == g
    # Edges exactly between distinct parts.
    parts = [(0, 1), (2, 3), (4, 5)]
    for p in parts:
        assert not g.has_edge(*p)
    assert gr.complete_multipartite([1, 1, 1, 1]) == gr.complete(4)
    assert gr.complete_multipartite([3, 3]).m == 9


def test_complete_multipartite_rejects_bad_parts():
    with pytest.raises(gr.GraphError):
        gr.complete_multipartite([])
    with pytest.raises(gr.GraphError):
        gr.complete_multipartite([2, 0])


def triangle_count_triple_scan(g):
    return sum(
        1
        for a, b, c in itertools.combinations(range(g.n), 3)
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
    )


def test_named_graphs():
    d = gr.diamond()
    assert (d.n, d.m) == (4, 5)
    assert triangle_count_triple_scan(d) == 2
    c5 = gr.named("cycle:5")
    assert (c5.n, c5.m) == (5, 5)
    assert triangle_count_triple_scan(c5) == 0
    p = gr.petersen()
    assert (p.n, p.m) == (10, 15)
    assert triangle_count_triple_scan(p) == 0
    b = gr.bowtie()
    assert (b.n, b.m) == (5, 6)
    assert triangle_count_triple_scan(b) == 2
    assert gr.named("complete:4") == gr.complete(4)
    assert gr.named("complete_bipartite:3,3") == gr.complete_multipartite([3, 3])
    with pytest.raises(gr.GraphError):
        gr.named("cycle:2")
    with pytest.raises(gr.GraphError):
        gr.named("mystery")
    with pytest.raises(gr.GraphError):
        gr.named("petersen:3")


def test_degree_sum_and_symmetry_invariants():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        mask = int(rng.integers(0, 1 << (n * (n - 1) // 2)))
        g = gr.from_edge_mask(n, mask)
        assert sum(g.degrees) == 2 * g.m
        for u, v in g.edges:
            assert u < v and g.has_edge(v, u)


def test_random_gnp_determinism_and_edge_count():
    g1 = gr.random_gnp(100, 0.5, seed=42)
    g2 = gr.random_gnp(100, 0.5, seed=42)
    assert g1 == g2
    assert gr.random_gnp(100, 0.5, seed=43) != g1
    # Binomial(4950, 1/2) stays within +-13.5 sigma of the mean; the
    # [2000, 2950] window is far wider than any plausible draw.
    assert 2000 <= g1.m <= 2950


def test_random_gnp_edge_frequency_small():
    hits = sum(gr.random_gnp(2, 0.5, seed=s).m for s in range(10_000))
    assert abs(hits / 10_000 - 0.5) <= 0.02


def test_random_gnp_rejects_bad_p():
    for p in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(gr.GraphError):
            gr.random_gnp(5, p, seed=0)


def test_random_gnp_index_streams_differ():
    a = gr.random_gnp(30, 0.3, seed=5, index=0)
    b = gr.random_gnp(30, 0.3, seed=5, index=1)
    assert a != b
    assert gr.random_gnp(30, 0.3, seed=5, index=1) == b


def connected_reference(g):
    """Oracle: BFS on an adjacency dict built from the edge list."""
    nbrs = {v: set() for v in range(g.n)}
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def test_enumerate_labeled_counts():
    graphs3 = list(gr.enumerate_labeled(3))
    assert len(graphs3) == 8
    assert sum(1 for g in graphs3 if gr.is_connected(g)) == 4
    assert len(list(gr.enumerate_labeled(4))) == 64
    # Oracle: filter all 1024 graphs on 5 vertices by reference BFS.
    all5 = list(gr.enumerate_labeled(5))
    assert len(all5) == 1 << 10
    by_oracle = [g for g in all5 if connected_reference(g)]
    assert len(by_oracle) == 728
    assert len(list(gr.enumerate_labeled(5, connected_only=True))) == 728


def test_enumerate_labeled_order_and_cap():
    masks = [g.edge_mask() for g in gr.enumerate_labeled(3)]
    assert masks == list(range(8))
    with pytest.raises(gr.CapabilityError, match="graph6"):
        next(gr.enumerate_labeled(8))


def test_is_connected_matches_oracle_random():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 10))
        g = gr.from_edge_mask(n, int(rng.integers(0, 1 << (n * (n - 1) // 2))))
        assert gr.is_connected(g) == connected_reference(g)


def test_disjoint_union():
    u = gr.disjoint_union(gr.complete(2), gr.complete(2))
    assert not gr.is_connected(u)
    w = gr.disjoint_union(gr.complete_bipartite(2, 2), gr.complete_bipartite(3, 3))
    assert (w.n, w.m) == (10, 13)
    assert gr.is_connected(gr.petersen())
    with pytest.raises(gr.GraphError):
        gr.disjoint_union(gr.complete(40), gr.complete(30))


def test_dense_round_trip():
    g = gr.petersen()
    assert gr.from_numpy(g.dense()) == g


def test_dense_matches_per_bit_reference():
    for n in (1, 7, 8, 9, 63, 64, 65, 1000):
        g = gr.random_gnp(n, 0.5, 11, index=n)
        ref = np.zeros((n, n), dtype=np.uint8)
        for v, row in enumerate(g.adj):
            for u in range(n):
                ref[v, u] = row >> u & 1
        for dtype in (np.float64, np.uint8, np.int64, bool):
            a = g.dense(dtype)
            assert a.dtype == np.dtype(dtype) and a.shape == (n, n), (n, dtype)
            assert np.array_equal(a, ref.astype(dtype)), (n, dtype)
        assert g.dense().dtype == np.float64
        assert gr.from_numpy(g.dense()) == g
        assert gr.from_numpy(g.dense(np.uint8)) == g
