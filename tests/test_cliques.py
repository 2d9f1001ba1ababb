import itertools

import numpy as np
import pytest

from turanlab import cliques as cl
from turanlab import graph as gr


def cliques_brute(g):
    """Oracle: every vertex subset that induces a clique (n <= 8)."""
    out = []
    for size in range(1, g.n + 1):
        for sub in itertools.combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                out.append(sub)
    return out

def omega_brute(g):
    return max(len(s) for s in cliques_brute(g))

def c_v_brute(g):
    best = [1] * g.n
    for s in cliques_brute(g):
        for v in s:
            best[v] = max(best[v], len(s))
    return tuple(best)

def c_e_brute(g):
    best = {}
    for s in cliques_brute(g):
        for u, v in itertools.combinations(s, 2):
            best[(u, v)] = max(best.get((u, v), 0), len(s))
    return tuple(best[e] for e in g.edges)

def t_brute(g):
    return sum(
        1
        for a, b, c in itertools.combinations(range(g.n), 3)
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
    )


def random_graphs(count, n_hi, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, n_hi + 1))
        mask = int(rng.integers(0, 1 << (n * (n - 1) // 2)))
        yield gr.from_edge_mask(n, mask)


def test_max_clique_fixtures():
    size, witness = cl.max_clique(gr.complete(4))
    assert size == 4 and witness == (0, 1, 2, 3)
    assert cl.max_clique(gr.petersen())[0] == 2
    union = gr.disjoint_union(gr.cycle(5), gr.complete(3))
    assert cl.max_clique(union)[0] == 3


def test_max_clique_witness_is_clique():
    for g in random_graphs(200, 9, seed=3):
        size, witness = cl.max_clique(g)
        assert len(witness) == size == omega_brute(g)
        assert all(g.has_edge(u, v) for u, v in itertools.combinations(witness, 2))


def test_max_clique_respects_universe():
    g = gr.bowtie()
    # Restrict to one triangle's vertices.
    size, witness = cl.max_clique(g, universe=0b00111)
    assert size == 3 and witness == (0, 1, 2)


def test_vertex_clique_numbers():
    assert cl.vertex_clique_numbers(gr.diamond()) == (3, 3, 3, 3)
    assert cl.vertex_clique_numbers(gr.cycle(5)) == (2,) * 5
    assert cl.vertex_clique_numbers(gr.complete(1)) == (1,)
    for g in random_graphs(150, 8, seed=4):
        assert cl.vertex_clique_numbers(g) == c_v_brute(g)


def test_edge_clique_numbers():
    assert cl.edge_clique_numbers(gr.diamond()) == (3, 3, 3, 3, 3)
    assert cl.edge_clique_numbers(gr.complete_multipartite([2, 2, 2])) == (3,) * 12
    assert cl.edge_clique_numbers(gr.petersen()) == (2,) * 15
    for g in random_graphs(150, 8, seed=5):
        assert cl.edge_clique_numbers(g) == c_e_brute(g)


def test_triangle_count():
    assert cl.triangle_count(gr.complete(4)) == 4
    assert cl.triangle_count(gr.bowtie()) == 2
    assert cl.triangle_count(gr.complete_multipartite([3, 3])) == 0
    for g in random_graphs(200, 9, seed=6):
        assert cl.triangle_count(g) == t_brute(g)


def test_predicates():
    assert cl.predicates(gr.diamond())["diamond_free"] is False
    b = cl.predicates(gr.bowtie())
    assert b["diamond_free"] is True
    octa = cl.predicates(gr.complete_multipartite([2, 2, 2]))
    assert octa["complete_multipartite"] and octa["regular"]
    assert cl.predicates(gr.petersen())["triangle_free"]
    assert cl.predicates(gr.complete_bipartite(2, 3))["bipartite"]
    assert not cl.predicates(gr.cycle(5))["bipartite"]
    assert cl.predicates(gr.complete(5))["complete"]


def test_complete_multipartite_detection_brute():
    def oracle(g):
        # Complement components must be cliques in the complement.
        comp_edges = [
            (u, v)
            for u, v in itertools.combinations(range(g.n), 2)
            if not g.has_edge(u, v)
        ]
        comp = gr.from_edges(g.n, comp_edges)
        seen = set()
        for start in range(g.n):
            if start in seen:
                continue
            stack, compset = [start], {start}
            while stack:
                v = stack.pop()
                for u in range(g.n):
                    if comp.has_edge(v, u) and u not in compset:
                        compset.add(u)
                        stack.append(u)
            seen |= compset
            for u, v in itertools.combinations(sorted(compset), 2):
                if not comp.has_edge(u, v):
                    return False
        return True

    for g in random_graphs(200, 7, seed=8):
        assert cl.is_complete_multipartite(g) == oracle(g)


def test_diamond_free_identity_c3_edges_in_one_triangle():
    # Diamond-free: every edge with c(e) = 3 lies in exactly one triangle,
    # giving the exact integer identity sum_e 2(1 - 1/c(e)) = m + t.
    count = 0
    for g in random_graphs(400, 8, seed=9):
        if not cl.is_diamond_free(g):
            continue
        count += 1
        c_e = cl.edge_clique_numbers(g)
        m3 = sum(1 for c in c_e if c == 3)
        m2 = sum(1 for c in c_e if c == 2)
        assert m2 + m3 == g.m
        assert m3 == 3 * cl.triangle_count(g)
    assert count > 30


def test_diamond_free_triangle_bound():
    # Diamond-free neighborhoods are matchings, so t(G) <= m/3.
    count = 0
    for g in random_graphs(400, 9, seed=12):
        if not cl.is_diamond_free(g):
            continue
        count += 1
        assert 3 * cl.triangle_count(g) <= g.m
    assert count > 30


def test_c_v_monotone_under_edge_addition():
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        nbits = n * (n - 1) // 2
        mask = int(rng.integers(0, 1 << nbits))
        missing = [k for k in range(nbits) if not mask >> k & 1]
        if not missing:
            continue
        k = int(rng.choice(missing))
        before = cl.vertex_clique_numbers(gr.from_edge_mask(n, mask))
        after = cl.vertex_clique_numbers(gr.from_edge_mask(n, mask | 1 << k))
        assert all(a >= b for a, b in zip(after, before))


def test_clique_profile():
    p = cl.clique_profile(gr.bowtie())
    assert (p.omega, p.t, p.tv) == (3, 2, 5)
    assert p.exact
    p1 = cl.clique_profile(gr.complete(1))
    assert (p1.omega, p1.t, p1.tv) == (1, 0, 0)


def test_inconsistent_clique_profile_raises():
    # Consistent: omega is the largest c(v), every c(v) in [1, omega].
    cl.CliqueProfile(omega=3, c_v=(3, 3, 3, 2), c_e=(3, 3, 3, 2), t=1, tv=3, diamond_free=True)
    with pytest.raises(ValueError, match="outside"):
        cl.CliqueProfile(omega=2, c_v=(1, 3), c_e=(), t=0, tv=0, diamond_free=True)
    with pytest.raises(ValueError, match="outside"):
        cl.CliqueProfile(omega=2, c_v=(0, 2), c_e=(), t=0, tv=0, diamond_free=True)
    with pytest.raises(ValueError, match="max c"):
        cl.CliqueProfile(omega=3, c_v=(2, 2), c_e=(2,), t=0, tv=0, diamond_free=True)


def test_greedy_lower_bounds():
    for g in random_graphs(100, 9, seed=11):
        exact_cv = cl.vertex_clique_numbers(g, exact=True)
        greedy_cv = cl.vertex_clique_numbers(g, exact=False)
        assert all(gl <= ex for gl, ex in zip(greedy_cv, exact_cv))
        assert cl.clique_number(g, exact=False) <= cl.clique_number(g, exact=True)


def omega_bitmask_oracle(g):
    """Oracle for larger n: scan every vertex subset as a bitmask."""
    best = 0
    for s in range(1, 1 << g.n):
        size = s.bit_count()
        if size <= best:
            continue
        ok = True
        rest = s
        while rest:
            b = rest & -rest
            v = b.bit_length() - 1
            rest ^= b
            if (g.adj[v] & s).bit_count() != size - 1:
                ok = False
                break
        if ok:
            best = size
    return best


def test_max_clique_midsize_random_vs_oracle():
    rng = np.random.default_rng(13)
    for _ in range(6):
        n = int(rng.integers(10, 15))
        nbits = n * (n - 1) // 2
        mask = int.from_bytes(rng.bytes((nbits + 7) // 8), "little") & ((1 << nbits) - 1)
        g = gr.from_edge_mask(n, mask)
        assert cl.max_clique(g)[0] == omega_bitmask_oracle(g)


def test_max_clique_structured_known_omega():
    assert cl.max_clique(gr.complete_multipartite([3] * 5))[0] == 5
    assert cl.max_clique(gr.complete_multipartite([1] * 8))[0] == 8
    assert cl.max_clique(gr.cycle(30))[0] == 2
    assert cl.max_clique(gr.disjoint_union(gr.complete(6), gr.cycle(9)))[0] == 6
    big = gr.random_gnp(60, 0.5, seed=7)
    size, witness = cl.max_clique(big)
    assert size >= 4
    import itertools

    assert all(big.has_edge(u, v) for u, v in itertools.combinations(witness, 2))


def test_max_clique_cap():
    g = gr.random_gnp(80, 0.2, seed=1)
    with pytest.raises(ValueError, match="capped"):
        cl.max_clique(g)
    # Greedy path still works above the cap.
    assert cl.clique_number(g, exact=False) >= 2


def greedy_reference(g):
    """Scalar lowest-bit greedy per vertex and per edge (g.edges order)."""
    adj = g.adj
    c_v = tuple(1 + cl._greedy_clique(adj, row).bit_count() for row in adj)
    c_e = tuple(2 + cl._greedy_clique(adj, adj[u] & adj[v]).bit_count() for u, v in g.edges)
    return c_v, c_e


def kernel_cases():
    for n in (65, 127, 128, 129, 200):
        for p in (0.1, 0.5, 0.9):
            yield gr.random_gnp(n, p, seed=n)
    yield gr.empty(100)
    # Vertices 10k + 9 isolated among the 90 of a G(90, 1/2).
    sparse = gr.random_gnp(90, 0.5, seed=2)
    yield gr.from_edges(100, [(u + u // 9, v + v // 9) for u, v in sparse.edges])
    yield gr.complete(70)
    yield gr.complete_bipartite(35, 35)


def test_greedy_kernel_matches_scalar_greedy():
    for g in kernel_cases():
        prof = cl.clique_profile(g, exact=False)
        c_v, c_e = greedy_reference(g)
        assert prof.c_v == c_v and prof.c_e == c_e, g
        assert prof.t == cl.triangle_count(g)
        assert prof.diamond_free == cl.is_diamond_free(g)
        assert cl.vertex_clique_numbers(g, exact=False) == c_v
        assert cl.edge_clique_numbers(g, exact=False) == c_e
        full = (1 << g.n) - 1
        assert cl.clique_number(g, exact=False) == cl._greedy_clique(g.adj, full).bit_count()


def test_exact_cliques_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(14)
    cases = [gr.random_gnp(int(rng.integers(1, 31)), p, seed=int(rng.integers(1 << 30)))
             for p in (0.2, 0.5, 0.8) for _ in range(12)]
    cases += [gr.petersen(), gr.diamond(), gr.bowtie(), gr.cycle(7), gr.complete(9),
              gr.complete_multipartite([3, 2, 4]), gr.disjoint_union(gr.complete(5), gr.empty(3))]
    for g in cases:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        maximal = list(nx.find_cliques(h))
        node_cn = nx.node_clique_number(h, cliques=maximal)
        assert cl.max_clique(g)[0] == max(len(c) for c in maximal)
        assert cl.vertex_clique_numbers(g) == tuple(node_cn[v] for v in range(g.n))
        assert cl.edge_clique_numbers(g) == tuple(
            max(len(c) for c in maximal if u in c and v in c) for u, v in g.edges)


def k3_times_cycle(k):
    """K_3 x C_k (Cartesian): every edge in at most one triangle, k triangles."""
    edges = [(3 * i + a, 3 * i + b) for i in range(k) for a, b in ((0, 1), (0, 2), (1, 2))]
    edges += [(3 * i + a, 3 * ((i + 1) % k) + a) for i in range(k) for a in range(3)]
    return gr.from_edges(3 * k, edges)


def test_greedy_profile_diamond_flag():
    free = k3_times_cycle(30)
    k = gr.complete_bipartite(40, 40)
    # A perfect matching inside one side: each matching edge has 40 common neighbours.
    matched = gr.from_edges(80, list(k.edges) + [(2 * i, 2 * i + 1) for i in range(20)])
    for g, expect, t in ((free, True, 30), (matched, False, 20 * 40)):
        prof = cl.clique_profile(g)
        assert not prof.exact
        assert prof.diamond_free == cl.is_diamond_free(g) == expect
        assert prof.t == t
