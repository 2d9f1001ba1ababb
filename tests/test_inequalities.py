import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turanlab import graph as gr
from turanlab import inequalities as iq

from conftest import random_graph


def test_wilf_equality_on_octahedron():
    res = iq.check("wilf", gr.complete_multipartite([2, 2, 2]))
    assert math.isclose(res.lhs, 4.0, abs_tol=1e-9)
    assert math.isclose(res.rhs, 4.0, abs_tol=1e-12)
    assert res.equality and res.holds and res.applicable


def test_local_bn_equality_on_union_of_bipartite():
    g = gr.disjoint_union(gr.complete_bipartite(2, 2), gr.complete_bipartite(3, 3))
    res = iq.check("local_bn", g)
    # Component spectra: lambda1(K_{a,a}) = a, so lhs = 9 + 4.
    assert math.isclose(res.lhs, 13.0, abs_tol=1e-8)
    assert math.isclose(res.rhs, 13.0, abs_tol=1e-12)
    assert res.equality and res.applicable
    assert "disconnected" in res.notes


def test_vertex_local_splus_wilf_on_diamond():
    res = iq.check("vertex_local_splus_wilf", gr.diamond())
    assert math.isclose(res.lhs, (1 + math.sqrt(17)) / 2, abs_tol=1e-9)
    assert math.isclose(res.rhs, 8.0 / 3.0, abs_tol=1e-12)
    assert res.holds and not res.equality


def test_bn_on_complete_graph_not_applicable():
    res = iq.check("bn", gr.complete(4))
    assert not res.applicable
    assert not res.holds
    assert math.isclose(res.slack, -1.0, abs_tol=1e-8)
    assert "G != K_n" in res.notes


def test_splus_triangle_equality_on_balanced_bipartite():
    res = iq.check("splus_triangle", gr.complete_bipartite(3, 3))
    assert math.isclose(res.lhs, 3.0, abs_tol=1e-9)
    assert math.isclose(res.rhs, 3.0, abs_tol=1e-12)
    assert res.equality


def test_walk_local_conj_on_cycle5():
    res = iq.check("walk_local_conj(3)", gr.cycle(5))
    assert math.isclose(res.lhs, 8.0, abs_tol=1e-9)
    assert math.isclose(res.rhs, 10.0, abs_tol=1e-12)
    assert res.holds


def test_check_all_k1_everything_holds():
    results = iq.check_all(gr.complete(1))
    assert len(results) > 20
    for res in results:
        assert res.holds, res
    by_id = {r.id: r for r in results}
    for cid in ("wilf", "splus_wilf", "splus_weak", "spectral_turan"):
        assert by_id[cid].lhs == 0.0 and by_id[cid].rhs == 0.0


def test_check_all_petersen_all_hold():
    results = iq.check_all(gr.petersen())
    for res in results:
        assert res.holds, res
    local_bn = next(r for r in results if r.id == "local_bn")
    # Triangle-free: rhs is exactly m.
    assert local_bn.rhs == 15.0
    assert math.isclose(local_bn.lhs, 10.0, abs_tol=1e-8)


def test_triangle_free_rhs_exact_integer():
    for g in (gr.petersen(), gr.cycle(5), gr.complete_bipartite(4, 5), gr.path(7)):
        ctx = iq.GraphContext(g)
        assert float(ctx.sum_ce_local) == float(g.m)


def test_common_lhs_across_splus_checks():
    g = gr.bowtie()
    ctx = iq.GraphContext(g)
    ids = ("splus_wilf", "vertex_local_splus_wilf", "splus_triangle",
           "splus_weak", "splus_half_local")
    values = {iq.check(i, g, ctx).lhs for i in ids}
    assert len(values) == 1


def test_theorems_hold_on_random_graphs():
    rng = np.random.default_rng(99)
    theorem_ids = iq.expand_check_ids("theorems", walk_rs=(1, 2, 3))
    for _ in range(120):
        g = random_graph(rng, 1, 8)
        ctx = iq.GraphContext(g)
        for cid in theorem_ids:
            res = iq.check(cid, g, ctx)
            assert res.holds or not res.applicable, (gr.to_graph6(g), res)


def test_equality_fixtures_multipartite():
    for sizes in ([2, 2, 2], [3, 3, 3], [2, 2, 2, 2]):
        g = gr.complete_multipartite(sizes)
        ctx = iq.GraphContext(g)
        for cid in ("wilf", "spectral_turan", "edge_local_spectral_turan", "splus_wilf"):
            res = iq.check(cid, g, ctx)
            assert res.equality and res.holds, (sizes, res)


def test_splus_regular_local_applicability():
    res = iq.check("splus_regular_local", gr.cycle(4))
    assert res.applicable and res.equality  # s+ = 4, rhs = 4(1 - 1/2) = 2
    assert math.isclose(res.lhs, 2.0, abs_tol=1e-9)
    res_path = iq.check("splus_regular_local", gr.path(3))
    assert not res_path.applicable
    res_empty = iq.check("splus_regular_local", gr.empty(3))
    assert not res_empty.applicable and res_empty.holds
    assert res_empty.rhs == 0.0


def test_bn_triangle_strictness_and_hypothesis():
    # Stars have lambda1^2 + lambda2^2 = m and t = 0: not applicable.
    res = iq.check("bn_triangle", gr.complete_bipartite(1, 3))
    assert not res.applicable
    assert "strict" in res.notes
    res_k3 = iq.check("bn_triangle", gr.complete(3))
    assert res_k3.applicable and res_k3.holds
    assert math.isclose(res_k3.rhs - res_k3.lhs, 3 ** (2 / 3) - 2, abs_tol=1e-9)


def test_local_bn_diamond_applicability_window():
    # bowtie: diamond-free, t = 2 -> excluded by the t hypothesis.
    res = iq.check("local_bn_diamond", gr.bowtie())
    assert not res.applicable
    assert "t not in {1,2,3,4}" in res.notes
    # Informational Lemma-style bound still reported via bn_triangle_diamond.
    res2 = iq.check("bn_triangle_diamond", gr.bowtie())
    assert res2.applicable and res2.holds


def test_weighted_check_unit_weights_match_edge_local():
    g = gr.bowtie()
    unit = {e: 1.0 for e in g.edges}
    res_w = iq.weighted_edge_local_check(g, unit)
    res_u = iq.check("edge_local_spectral_turan", g)
    assert math.isclose(res_w.lhs, res_u.lhs, rel_tol=1e-12)
    assert math.isclose(res_w.rhs, res_u.rhs, rel_tol=1e-12)


def test_weighted_check_scaling_invariance():
    g = gr.complete(3)
    w1 = {(0, 1): 1.0, (0, 2): 2.0, (1, 2): 3.0}
    res1 = iq.weighted_edge_local_check(g, w1)
    # rhs = (4/3)(1 + 4 + 9) = 56/3; lambda1 of [[0,1,2],[1,0,3],[2,3,0]]
    # is the real root of x^3 - 14x - 12 near 4.11, so the bound holds.
    assert math.isclose(res1.rhs, 56.0 / 3.0, rel_tol=1e-12)
    assert res1.holds
    s = 2.5
    res_s = iq.weighted_edge_local_check(g, {e: s * v for e, v in w1.items()})
    assert math.isclose(res_s.lhs, s * s * res1.lhs, rel_tol=1e-10)
    assert math.isclose(res_s.rhs, s * s * res1.rhs, rel_tol=1e-12)
    assert (res_s.slack >= 0) == (res1.slack >= 0)


def test_weighted_check_disconnected_flagged():
    g = gr.disjoint_union(gr.complete(2), gr.complete(2))
    res = iq.weighted_edge_local_check(g, {e: 1.0 for e in g.edges})
    assert not res.applicable


def test_wilf_diamond_free_needs_42_vertices():
    res = iq.check("wilf_diamond_free", gr.bowtie())
    assert not res.applicable and "n >= 42" in res.notes


def test_expand_check_ids():
    ids = iq.expand_check_ids("all")
    assert ids[0] == "turan_edges"
    assert "walk_nikiforov(1)" in ids and "walk_nikiforov(6)" in ids
    conj = iq.expand_check_ids("conjectures")
    assert set(c.split("(")[0] for c in conj) == {
        "splus_wilf", "vertex_local_splus_wilf", "bn", "local_bn", "walk_local_conj",
    }
    assert iq.expand_check_ids(["wilf", "wilf"]) == ["wilf"]
    assert iq.expand_check_ids("walk_recursion(2)") == ["walk_recursion(2)"]
    with pytest.raises(KeyError, match="catalogue"):
        iq.expand_check_ids("nonsense")
    with pytest.raises(KeyError):
        iq.parse_check_id("walk_nikiforov(11)")
    with pytest.raises(KeyError):
        iq.parse_check_id("wilf(2)")
    with pytest.raises(KeyError):
        iq.parse_check_id("walk_nikiforov")


def test_majorization_basics():
    assert iq.weak_majorizes((3, 1), (2, 2))
    assert not iq.weak_majorizes((2, 2), (3, 1))
    assert iq.weak_majorizes((3, 1), (3, 1))
    # Unequal lengths are zero-padded.
    assert iq.weak_majorizes((3, 1), (2, 1, 1))
    assert iq.p_norm((3, 4), 2) == 5.0
    with pytest.raises(ValueError):
        iq.p_norm((1,), 0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(0, 100), min_size=1, max_size=8),
    st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
    st.floats(1.1, 4.0),
)
def test_majorization_implies_p_norm_order(xs, scales, p):
    x = np.sort(np.array(xs))[::-1]
    # Construct y weakly majorized by x: scale down the prefix-sum slack.
    y = x * np.resize(np.array(scales), x.shape)
    cy, cx = np.cumsum(np.sort(y)[::-1]), np.cumsum(x)
    rho = float(np.max(np.divide(cy, cx, out=np.ones_like(cy), where=cx > 0)))
    if rho > 1:
        y = y / rho
    assert iq.weak_majorizes(x, y, tol=1e-9 * (1 + float(cx[-1])))
    assert iq.p_norm(y, p) <= iq.p_norm(x, p) + 1e-7 * (1 + iq.p_norm(x, p))


RELABEL_IDS = iq.expand_check_ids("all")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_check_values_invariant_under_relabeling(data):
    n = data.draw(st.integers(1, 9))
    pairs = gr.lex_pairs(n)
    picks = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    perm = data.draw(st.permutations(range(n)))
    g = gr.from_edges(n, picks)
    h = gr.from_edges(n, [(perm[u], perm[v]) for u, v in picks])
    for a, b in zip(iq.check_all(g, RELABEL_IDS), iq.check_all(h, RELABEL_IDS)):
        assert a.id == b.id
        for x, y in ((a.lhs, b.lhs), (a.rhs, b.rhs)):
            assert abs(x - y) <= 1e-9 * max(1.0, abs(x), abs(y)), (a.id, x, y)
        assert (a.applicable, a.holds) == (b.applicable, b.holds), a.id


def test_majorization_equality_iff_equal():
    x = (5.0, 3.0, 1.0)
    assert iq.weak_majorizes(x, x) and iq.weak_majorizes(x, x)
    for p in (1.5, 2, 3):
        assert iq.p_norm(x, p) == iq.p_norm(x, p)


def test_load_weight_csv():
    lines = ["u,v,w", "0,1,1.5", "2,1,0.25"]
    w = iq.load_weight_csv(lines)
    assert w == {(0, 1): 1.5, (1, 2): 0.25}
    with pytest.raises(ValueError, match="header"):
        iq.load_weight_csv(["a,b,c", "0,1,1"])
    with pytest.raises(ValueError, match="negative"):
        iq.load_weight_csv(["u,v,w", "0,1,-2"])
    with pytest.raises(ValueError, match="duplicate"):
        iq.load_weight_csv(["u,v,w", "0,1,1", "1,0,2"])


def test_greedy_context_flags_unconfirmed():
    g = gr.random_gnp(30, 0.4, seed=3)
    ctx = iq.GraphContext(g, exact_cliques=False)
    res = iq.check("vertex_local_splus_wilf", g, ctx)
    assert "greedy lower bounds" in res.notes
    exact = iq.check("vertex_local_splus_wilf", g)
    assert res.rhs <= exact.rhs + 1e-12


def test_greedy_context_does_not_build_edge_list():
    g = gr.random_gnp(200, 0.5, seed=4)
    ctx = iq.GraphContext(g)
    assert not ctx.exact_cliques
    assert "edges" not in g.__dict__
