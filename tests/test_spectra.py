import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turanlab import cliques as cl
from turanlab import graph as gr
from turanlab import spectra as sp
from turanlab.inequalities import GraphContext

from conftest import neighbour_sum_walks, random_graph


def char_poly_exact(g):
    """Oracle: integer characteristic polynomial via Leverrier-Faddeev.

    Returns coefficients of det(xI - A) from the leading power down.
    """
    n = g.n
    a = [[Fraction(int(g.has_edge(i, j))) for j in range(n)] for i in range(n)]

    def matmul(x, y):
        return [
            [sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    coeffs = [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += coeffs[-1]
        m = matmul(a, m)
        c = -Fraction(sum(m[i][i] for i in range(n)), k)
        coeffs.append(c)
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


def poly_eval(coeffs, x):
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def test_complete_graph_spectrum():
    s = sp.eigenvalues(gr.complete(4))
    assert np.allclose(s.eigenvalues, [3, -1, -1, -1], atol=1e-12)
    assert math.isclose(s.s_plus, 9.0, abs_tol=1e-9)
    assert math.isclose(s.s_minus, 3.0, abs_tol=1e-9)
    assert (s.n_plus, s.n_minus) == (1, 3)


def test_petersen_spectrum_against_char_poly():
    p = gr.petersen()
    coeffs = char_poly_exact(p)
    # Exact factorization check: (x-3)(x-1)^5(x+2)^4 has these integer roots.
    assert poly_eval(coeffs, 3) == 0
    assert poly_eval(coeffs, 1) == 0
    assert poly_eval(coeffs, -2) == 0
    s = sp.eigenvalues(p)
    expect = np.array([3] + [1] * 5 + [-2] * 4, dtype=float)
    assert np.allclose(s.eigenvalues, expect, atol=1e-9)
    assert math.isclose(s.s_plus, 14.0, abs_tol=1e-8)
    assert math.isclose(s.s_minus, 16.0, abs_tol=1e-8)


def test_cycle5_spectrum_circulant_closed_form():
    s = sp.eigenvalues(gr.cycle(5))
    expect = sorted((2 * math.cos(2 * math.pi * k / 5) for k in range(5)), reverse=True)
    assert np.allclose(s.eigenvalues, expect, atol=1e-12)
    assert math.isclose(s.s_plus, 4.0 + 2 * (2 * math.cos(2 * math.pi / 5)) ** 2, abs_tol=1e-9)
    assert math.isclose(s.s_plus, 4.7639320225, abs_tol=1e-9)
    assert math.isclose(s.s_minus, 5.2360679775, abs_tol=1e-9)


def test_diamond_spectrum_quadratic_closed_form():
    # Characteristic polynomial factors as (x^2 - x - 4) * x * (x + 1).
    coeffs = char_poly_exact(gr.diamond())
    assert poly_eval(coeffs, Fraction(-1)) == 0
    assert poly_eval(coeffs, 0) == 0
    s = sp.eigenvalues(gr.diamond())
    r17 = math.sqrt(17)
    expect = [(1 + r17) / 2, 0.0, -1.0, (1 - r17) / 2]
    assert np.allclose(s.eigenvalues, expect, atol=1e-12)
    assert math.isclose(s.s_plus, ((1 + r17) / 2) ** 2, abs_tol=1e-9)
    assert math.isclose(s.s_plus, 6.5615528128, abs_tol=1e-8)
    assert math.isclose(s.power_sum(3), 12.0, abs_tol=1e-8)


def test_bipartite_square_energies():
    s = sp.eigenvalues(gr.complete_bipartite(3, 3))
    assert math.isclose(s.s_plus, 9.0, abs_tol=1e-9)
    assert math.isclose(s.s_minus, 9.0, abs_tol=1e-9)


def trace_identities_ok(g, s=None):
    s = s or sp.eigenvalues(g)
    t = cl.triangle_count(g)
    ok1 = abs(s.eigenvalues.sum()) <= 1e-8 * g.n
    ok2 = abs(s.power_sum(2) - 2 * g.m) <= 1e-7 * max(1, g.m)
    ok3 = abs(s.power_sum(3) - 6 * t) <= 1e-6 * (1 + t)
    return ok1 and ok2 and ok3


def test_trace_identities_random():
    rng = np.random.default_rng(21)
    for _ in range(300):
        g = random_graph(rng, 1, 12)
        assert trace_identities_ok(g)
        s = sp.eigenvalues(g)
        # Average degree sits between the extreme eigenvalues.
        assert s.lambda1 >= 2 * g.m / g.n - 1e-9
        assert float(s.eigenvalues[-1]) <= 2 * g.m / g.n + 1e-9
        assert abs(s.s_plus + s.s_minus - 2 * g.m) <= 1e-7 * max(1, g.m)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 1 << 28))
def test_trace_identities_property(n, bits):
    g = gr.from_edge_mask(n, bits & ((1 << (n * (n - 1) // 2)) - 1))
    assert trace_identities_ok(g)


def walks_brute(g, r):
    """Oracle: explicit walk enumeration by depth-first extension."""
    def count(v, remaining):
        if remaining == 1:
            return 1
        return sum(count(u, remaining - 1) for u in range(g.n) if g.has_edge(v, u))

    return [count(v, r) for v in range(g.n)]


def test_walk_counts():
    g = gr.cycle(5)
    t1 = sp.walk_counts(g, 1)
    assert t1.per_vertex == (1,) * 5 and t1.total == 5
    t2 = sp.walk_counts(g, 2)
    assert t2.per_vertex == g.degrees and t2.total == 2 * g.m
    t3 = sp.walk_counts(g, 3)
    assert t3.per_vertex == (4,) * 5 and t3.total == 20
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        g = gr.from_edge_mask(n, int(rng.integers(0, 1 << (n * (n - 1) // 2))))
        for r in (1, 2, 3, 4, 5):
            assert list(sp.walk_counts(g, r).per_vertex) == walks_brute(g, r)


def test_walk_recursion_invariant_exact():
    rng = np.random.default_rng(32)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        g = gr.from_edge_mask(n, int(rng.integers(0, 1 << (n * (n - 1) // 2))))
        for r in range(1, 6):
            wr = sp.walk_counts(g, r)
            wr1 = sp.walk_counts(g, r + 1)
            for v in range(g.n):
                nb = [u for u in range(g.n) if g.has_edge(u, v)]
                assert wr1.per_vertex[v] == sum(wr.per_vertex[u] for u in nb)


def _oracle_graphs():
    rng = np.random.default_rng(33)
    for n in range(1, 12):
        for _ in range(3):
            yield gr.from_edge_mask(n, int(rng.integers(0, 1 << (n * (n - 1) // 2))))
    yield gr.complete(11)


def test_walk_tables_match_neighbour_sum_oracle():
    for g in _oracle_graphs():
        ctx = GraphContext(g)
        for r, want in enumerate(neighbour_sum_walks(g, 20), start=1):
            assert list(sp.walk_counts(g, r).per_vertex) == want, (g, r)
            vec = ctx._walk_vec(r)
            assert sp.walk_ints(ctx._walks[r - 1]).tolist() == want, (g, r)
            assert vec.tolist() == [float(x) for x in want], (g, r)


def test_walks_beyond_2_64_take_residue_channels():
    k40 = sp.walk_counts(gr.complete(40), 20)
    assert k40.per_vertex == (39**19,) * 40 and k40.total == 40 * 39**19
    for n, seed in ((62, 5), (200, 3)):
        g = gr.random_gnp(n, 0.5, seed, index=0)
        ctx = GraphContext(g)
        for r, want in enumerate(neighbour_sum_walks(g, 20), start=1):
            assert list(sp.walk_counts(g, r).per_vertex) == want, (n, r)
            assert ctx._walk_vec(r).tolist() == [float(x) for x in want], (n, r)
        # Past 2^64 the table carries prime channels and still rebuilds exactly.
        assert max(want) >= 2**64 and ctx._walks[19].res.shape[-1] > 1


def test_walk_floats_round_like_python_int_to_float():
    # Ties and near-ties above 2^53, where uint64 -> float64 must round half to even.
    vals = [2**53 + 1, 2**53 + 3, 2**60 + 2**7, 2**60 + 3 * 2**7, 2**63 + 2**10,
            2**64 - 1, 2**64 - 2**11, 2**64 - 2**10 - 1, 12345]
    rng = np.random.default_rng(35)
    vals += [int(x) for x in rng.integers(2**53, 2**64 - 1, size=2000, dtype=np.uint64)]
    w = sp.Walks(np.array(vals, dtype=np.uint64)[:, None], 2**64 - 1, 0)
    assert sp.walk_floats(w).tolist() == [float(x) for x in vals]
    # Above 2^64 the exact integers are rebuilt first, then rounded.
    big = [x * 3**40 + 7 for x in vals]
    res = np.array([[x % 2**64] + [x % p for p in sp.WALK_PRIMES[:3]] for x in big], dtype=np.uint64)
    w = sp.Walks(res, max(big), 0)
    assert sp.walk_ints(w).tolist() == big
    assert sp.walk_floats(w).tolist() == [float(x) for x in big]


def test_walk_moduli_and_capacity_limit():
    for p in sp.WALK_PRIMES:
        assert 2**30 < p < 2**31 and all(p % d for d in range(2, math.isqrt(p) + 1))
    assert len(set(sp.WALK_PRIMES)) == len(sp.WALK_PRIMES)
    capacity = 2**64 * math.prod(sp.WALK_PRIMES)
    # Every catalogue walk (r <= 20) at the largest order fits.
    assert 4095**19 < capacity
    # On K_3, w_r = 2^(r-1): the last r whose bound is below the capacity is
    # exact, the next one raises instead of wrapping.
    r = capacity.bit_length()
    assert 2 ** (r - 1) < capacity <= 2**r
    assert sp.walk_counts(gr.complete(3), r).per_vertex == (2 ** (r - 1),) * 3
    with pytest.raises(OverflowError):
        sp.walk_counts(gr.complete(3), r + 1)


def test_walk_counts_rejects_bad_r():
    with pytest.raises(ValueError):
        sp.walk_counts(gr.complete(3), 0)


def test_weighted_spectral_radius():
    g = gr.complete(2)
    assert math.isclose(sp.weighted_spectral_radius(g, {(0, 1): 2.5}), 2.5, abs_tol=1e-12)
    k3 = gr.complete(3)
    w1 = {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}
    assert math.isclose(
        sp.weighted_spectral_radius(k3, w1),
        sp.eigenvalues(k3).lambda1,
        abs_tol=1e-10,
    )
    w3 = {e: 3.0 * v for e, v in w1.items()}
    assert math.isclose(
        sp.weighted_spectral_radius(k3, w3),
        3.0 * sp.weighted_spectral_radius(k3, w1),
        rel_tol=1e-12,
    )
    with pytest.raises(ValueError, match="negative"):
        sp.weighted_spectral_radius(g, {(0, 1): -1.0})
    with pytest.raises(ValueError, match="not an edge"):
        sp.weighted_spectral_radius(gr.path(3), {(0, 2): 1.0})


def test_lambda2_convention_single_vertex():
    assert sp.eigenvalues(gr.complete(1)).lambda2 == 0.0
