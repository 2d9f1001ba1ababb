import numpy as np
import pytest

from turanlab import batch as bt
from turanlab import graph as gr
from turanlab import inequalities as iq
from turanlab import spectra as sp

from conftest import neighbour_sum_walks


def assert_context_rows_match(bctx, i, sctx, tol=1e-10):
    scalars = [
        ("m", sctx.m), ("t", sctx.t), ("omega", sctx.omega),
        ("min_cv", sctx.min_cv),
    ]
    for name, want in scalars:
        assert getattr(bctx, name)[i] == want, name
    floats = [
        ("lam1", sctx.lam1), ("lam2", sctx.lam2),
        ("s_plus", sctx.s_plus), ("s_minus", sctx.s_minus),
        ("sum_cv_wilf", sctx.sum_cv_wilf), ("sum_cv_half", sctx.sum_cv_half),
        ("sum_cv_reg", sctx.sum_cv_reg), ("sum_ce_local", sctx.sum_ce_local),
    ]
    for name, want in floats:
        got = getattr(bctx, name)[i]
        assert abs(got - want) <= tol * max(1.0, abs(want)), (name, got, want)
    flags = [
        ("diamond_free", sctx.diamond_free), ("regular", sctx.regular),
        ("complete", sctx.complete), ("connected", sctx.connected),
    ]
    for name, want in flags:
        assert bool(getattr(bctx, name)[i]) == bool(want), name
    for r in (1, 2, 3):
        assert abs(bctx.walk_total(r)[i] - sctx.walk_total(r)) <= tol
        assert abs(bctx.walk_conj_sum(r)[i] - sctx.walk_conj_sum(r)) <= tol
        assert abs(bctx.walk_sqrt_sum(r)[i] - sctx.walk_sqrt_sum(r)) <= tol


def test_batch_matches_scalar_exhaustive_n_le_4():
    for n in (1, 2, 3, 4):
        masks = np.arange(1 << (n * (n - 1) // 2), dtype=np.int64)
        bctx = bt.BatchContext(n, masks)
        for mask in masks:
            sctx = iq.GraphContext(gr.from_edge_mask(n, int(mask)))
            assert_context_rows_match(bctx, int(mask), sctx)


def test_batch_matches_scalar_sampled_n7():
    rng = np.random.default_rng(41)
    for n in (7, 8, 9, 10, 11):
        masks = rng.integers(0, 1 << (n * (n - 1) // 2), size=300 if n == 7 else 100, dtype=np.int64)
        bctx = bt.BatchContext(n, masks)
        for i, mask in enumerate(masks):
            sctx = iq.GraphContext(gr.from_edge_mask(n, int(mask)))
            assert_context_rows_match(bctx, i, sctx)


def test_batch_spectral_fields_equal_scalar_bitwise():
    rng = np.random.default_rng(43)
    for n in range(1, 12):
        nbits = n * (n - 1) // 2
        masks = rng.integers(0, 1 << nbits, size=200, dtype=np.int64) if nbits else np.zeros(3, dtype=np.int64)
        bctx = bt.BatchContext(n, masks)
        for i, mask in enumerate(masks):
            sctx = iq.GraphContext(gr.from_edge_mask(n, int(mask)))
            for name in ("lam1", "lam2", "s_plus", "s_minus"):
                assert getattr(bctx, name)[i] == getattr(sctx, name), (n, int(mask), name)


@pytest.mark.parametrize("n", [6, 8, 9, 10, 11])
def test_batch_checks_match_scalar_results(n):
    rng = np.random.default_rng(42)
    masks = rng.integers(0, 1 << (n * (n - 1) // 2), size=64, dtype=np.int64)
    ids = iq.expand_check_ids("all", walk_rs=(1, 2, 3))
    bctx = bt.BatchContext(n, masks)
    rows = {}
    for cid in ids:
        entry, r = iq.parse_check_id(cid)
        rows[cid] = [np.broadcast_to(x, masks.shape) for x in iq.evaluate_entry(entry, bctx, r)]
    for i, mask in enumerate(masks):
        g = gr.from_edge_mask(n, int(mask))
        sctx = iq.GraphContext(g)
        for cid in ids:
            lhs, rhs, app = rows[cid]
            res = iq.check(cid, g, sctx)
            assert abs(lhs[i] - res.lhs) <= 1e-10 * max(1, abs(res.lhs)), (cid, i)
            assert abs(rhs[i] - res.rhs) <= 1e-10 * max(1, abs(res.rhs)), (cid, i)
            assert bool(app[i]) == res.applicable, (cid, i)


def test_triangle_cross_oracle_exact_n7():
    # Combinatorial t(G) must equal round(sum lambda_i^3 / 6) exactly on
    # every labeled graph with 7 vertices.
    for lo in range(0, 1 << 21, 1 << 16):
        masks = np.arange(lo, lo + (1 << 16), dtype=np.int64)
        ctx = bt.BatchContext(7, masks)
        spectral_t = np.rint((ctx.eigenvalues**3).sum(axis=1) / 6.0).astype(np.int64)
        assert np.array_equal(spectral_t, ctx.t)


def test_diamond_free_edge_identity_vectorized():
    masks = np.arange(1 << 10, dtype=np.int64)
    bctx = bt.BatchContext(5, masks)
    df = bctx.diamond_free
    # 3 * sum_e 2(1 - 1/c(e)) = 3m + 3t exactly on diamond-free graphs.
    lhs = 3 * bctx.ce2_count + 4 * bctx.ce3_count
    rhs = 3 * (bctx.m + bctx.t)
    assert np.array_equal(lhs[df], rhs[df])
    assert df.sum() > 100


def test_connectivity_squares_enough_for_long_paths():
    for n in (8, 9, 10, 11):
        bctx = bt.BatchContext(n, np.array([gr.path(n).edge_mask()]))
        assert bctx.connected.tolist() == [True], n
    rng = np.random.default_rng(7)
    masks = rng.integers(0, 1 << 45, size=200, dtype=np.int64) & rng.integers(0, 1 << 45, size=200, dtype=np.int64)
    bctx = bt.BatchContext(10, masks)
    want = [gr.is_connected(gr.from_edge_mask(10, int(m))) for m in masks]
    assert bctx.connected.tolist() == want


def test_order_beyond_int64_edge_masks_rejected():
    bt.BatchContext(11, np.array([(1 << 55) - 1]))
    with pytest.raises(ValueError, match="n <= 11"):
        bt.BatchContext(12, np.array([0]))


def test_walk_counts_exact_through_k11_w20():
    # K_11's w_20 is 10^19 per vertex: past int64, below 2^64.
    k10 = bt.BatchContext(10, np.array([(1 << 45) - 1]))
    assert k10.walk_total(20)[0] == pytest.approx(10 * 9**19, rel=1e-12)
    k11 = bt.BatchContext(11, np.array([(1 << 55) - 1]))
    assert k11.walk_total(19)[0] == pytest.approx(11 * 10**18, rel=1e-12)
    assert k11.walk_total(20)[0] == float(11 * 10**19)
    assert sp.walk_ints(k11._walks[19]).tolist() == [[10**19] * 11]


def test_batch_walk_table_matches_oracle():
    rng = np.random.default_rng(41)
    for n in range(1, 12):
        nbits = n * (n - 1) // 2
        masks = [int(m) for m in rng.integers(0, 1 << nbits, size=6, dtype=np.int64)]
        masks.append((1 << nbits) - 1)
        bctx = bt.BatchContext(n, np.array(masks, dtype=np.int64))
        graphs = [gr.from_edge_mask(n, m) for m in masks]
        sctxs = [iq.GraphContext(g) for g in graphs]
        tables = [neighbour_sum_walks(g, 20) for g in graphs]
        for r in range(1, 21):
            bvec = bctx._walk_vec(r)
            exact = sp.walk_ints(bctx._walks[r - 1]).tolist()
            for i, (table, sctx) in enumerate(zip(tables, sctxs)):
                want = table[r - 1]
                assert exact[i] == want, (n, r, i)
                # Batch rows and the per-graph context round the same exact
                # counts the same way as float(int).
                assert bvec[i].tolist() == [float(x) for x in want], (n, r, i)
                assert sctx._walk_vec(r).tolist() == bvec[i].tolist(), (n, r, i)
        # Every batch order stays in the uint64 channel up to w_20.
        assert bctx._walks[19].res.shape[-1] == 1
