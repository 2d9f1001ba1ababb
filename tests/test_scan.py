import numpy as np
import pytest

from turanlab import graph as gr
from turanlab import inequalities as iq
from turanlab import scanner as sc


def test_enumeration_connected_count_and_conjecture():
    report = sc.scan(
        sc.EnumerationSource(5),
        ["vertex_local_splus_wilf"],
        sc.ScanOptions(connected_only=True),
    )
    assert report.graphs_processed == 728
    agg = report.checks["vertex_local_splus_wilf"]
    assert agg["checked"] == 728
    assert agg["applicable"] == 728
    assert agg["violations"] == 0
    assert report.binding_violations == 0


def test_enumeration_bn_no_binding_violations_n4():
    report = sc.scan(sc.EnumerationSource(4), ["bn"], sc.ScanOptions())
    assert report.graphs_processed == 64
    # K4 is the only complete graph: excluded by hypothesis, never binding.
    assert report.checks["bn"]["applicable"] == 63
    assert report.binding_violations == 0


def test_graph6_stream_local_bn_equality_count():
    g = gr.disjoint_union(gr.complete_bipartite(2, 2), gr.complete_bipartite(3, 3))
    src = sc.Graph6Source(lines=(gr.to_graph6(g),))
    report = sc.scan(src, ["local_bn"], sc.ScanOptions())
    agg = report.checks["local_bn"]
    assert agg["checked"] == 1
    assert agg["equalities"] == 1
    assert report.binding_violations == 0


def test_graph6_stream_parse_errors_recorded():
    src = sc.Graph6Source(lines=("A_", "!!bogus!!", "A?"))
    report = sc.scan(src, ["wilf"], sc.ScanOptions())
    assert report.graphs_processed == 2
    assert len(report.parse_errors) == 1
    assert report.parse_errors[0]["line"] == 2
    with pytest.raises(sc.ScanError, match="line 2"):
        sc.scan(src, ["wilf"], sc.ScanOptions(strict_parse=True))


def test_reports_byte_identical_across_runs_and_workers():
    opts = sc.ScanOptions(connected_only=True, top_k=4)
    r1 = sc.scan(sc.EnumerationSource(5), "conjectures", opts)
    r2 = sc.scan(sc.EnumerationSource(5), "conjectures", opts)
    assert r1.to_json_bytes() == r2.to_json_bytes()
    r8 = sc.scan(sc.EnumerationSource(5), "conjectures",
                 sc.ScanOptions(connected_only=True, top_k=4, workers=8))
    assert r8.to_json_bytes() == r1.to_json_bytes()


def test_partition_soundness_index_ranges():
    full = sc.scan(sc.EnumerationSource(4), ["wilf", "local_bn"], sc.ScanOptions(top_k=3))
    left = sc.scan(sc.EnumerationSource(4), ["wilf", "local_bn"],
                   sc.ScanOptions(top_k=3, index_range=(0, 23)))
    right = sc.scan(sc.EnumerationSource(4), ["wilf", "local_bn"],
                    sc.ScanOptions(top_k=3, index_range=(23, 64)))
    assert left.graphs_processed + right.graphs_processed == full.graphs_processed
    for cid in full.check_ids:
        merged = sc._merge_check_aggs(left.checks[cid], right.checks[cid], 3)
        assert merged == full.checks[cid]


def test_negative_margin_flags_equalities_and_stops():
    # A negative holds tolerance demands strictly positive slack, so every
    # exact-equality graph turns into a binding violation; the empty graph
    # (omega = 1, both sides zero) is the very first enumeration index.
    tol = iq.Tolerances(holds_rtol=-1e-6)
    seen = []
    report = sc.scan(
        sc.EnumerationSource(3),
        ["wilf"],
        sc.ScanOptions(stop_on_violation=True, tol=tol),
        on_violation=seen.append,
    )
    assert report.partial
    assert report.graphs_processed == 1
    assert report.binding_violations == 1
    assert seen == report.violations
    assert report.violations[0]["graph6"] == gr.to_graph6(gr.empty(3))


def test_violation_records_agree_across_sources():
    tol = iq.Tolerances(holds_rtol=-1e-6)
    enum = sc.scan(sc.EnumerationSource(4), ["bn"], sc.ScanOptions(tol=tol))
    labels = tuple(v["graph6"] for v in enum.violations)
    assert "C?" in labels
    g6 = sc.scan(sc.Graph6Source(lines=labels), ["bn"], sc.ScanOptions(tol=tol))
    assert len(g6.violations) == len(enum.violations)
    by_label = {v["graph6"]: v for v in g6.violations}
    empty = next(v for v in enum.violations if v["graph6"] == "C?")
    assert empty == by_label["C?"]
    assert empty["notes"] == "disconnected input"
    for v in enum.violations:
        w = by_label[v["graph6"]]
        assert set(v) == set(w)
        assert v.get("notes") == w.get("notes")
        for key in ("lhs", "rhs", "slack"):
            assert v[key] == pytest.approx(w[key], rel=1e-12, abs=1e-12)


def test_graph6_file_closed_and_non_ascii_lines(tmp_path):
    import gc
    import warnings

    f = tmp_path / "corpus.g6"
    f.write_bytes(b"A_\nC\xc3\xa9\nA?\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = sc.scan(sc.Graph6Source(path=str(f)), ["wilf"])
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert report.graphs_processed == 2
    assert [e["line"] for e in report.parse_errors] == [2]
    assert "non-ASCII" in report.parse_errors[0]["error"]
    with pytest.raises(sc.ScanError, match="line 2"):
        sc.scan(sc.Graph6Source(path=str(f)), ["wilf"], sc.ScanOptions(strict_parse=True))


def test_exit_semantics_violations_list_fields():
    tol = iq.Tolerances(holds_rtol=-1e-6)
    report = sc.scan(sc.EnumerationSource(3), ["wilf"], sc.ScanOptions(tol=tol))
    assert report.binding_violations > 0
    v = report.violations[0]
    assert set(v) >= {"graph6", "check", "lhs", "rhs", "slack"}


def test_time_budget_partial():
    report = sc.scan(
        sc.EnumerationSource(7),
        ["wilf"],
        sc.ScanOptions(time_budget_s=0.0),
    )
    assert report.partial
    assert report.graphs_processed < 1 << 21
    # A budget that runs out on the last unit leaves no input unevaluated.
    for source, graphs in (
        (sc.Graph6Source(lines=("A_",)), 1),
        (sc.RandomSource(n=6, p=0.5, trials=1, seed=0), 1),
        (sc.EnumerationSource(4), 64),
    ):
        report = sc.scan(source, ["wilf"], sc.ScanOptions(time_budget_s=0.0))
        assert not report.partial, source
        assert report.graphs_processed == graphs, source


def test_extremal_search_wilf_n5():
    top = sc.extremal_search(sc.EnumerationSource(5), "wilf", k=1,
                             options=sc.ScanOptions(connected_only=True))
    assert len(top) == 1
    assert abs(top[0]["slack"]) <= 1e-9
    g = gr.from_graph6(top[0]["graph6"])
    from turanlab import cliques as cl

    assert cl.predicates(g)["complete_multipartite"]


def test_extremal_search_splus_triangle_n4():
    top = sc.extremal_search(sc.EnumerationSource(4), "splus_triangle", k=1)
    assert abs(top[0]["slack"]) <= 1e-9
    g = gr.from_graph6(top[0]["graph6"])
    from turanlab import cliques as cl

    preds = cl.predicates(g)
    assert preds["bipartite"] and preds["complete_multipartite"] and g.m == 4


def test_extremal_search_single_graph_stream():
    line = gr.to_graph6(gr.petersen())
    top = sc.extremal_search(sc.Graph6Source(lines=(line,)), "wilf", k=3)
    assert len(top) == 1 and top[0]["graph6"] == line


def test_random_source_scan():
    src = sc.RandomSource(n=20, p=0.3, trials=5, seed=11)
    report = sc.scan(src, "conjectures", sc.ScanOptions())
    assert report.graphs_processed == 5
    assert report.binding_violations == 0
    again = sc.scan(src, "conjectures", sc.ScanOptions())
    assert report.to_json_bytes() == again.to_json_bytes()


def test_random_source_above_graph6_cap_uses_trial_labels():
    src = sc.RandomSource(n=80, p=0.2, trials=2, seed=3)
    report = sc.scan(src, ["vertex_local_splus_wilf"], sc.ScanOptions(top_k=2))
    assert report.binding_violations == 0
    agg = report.checks["vertex_local_splus_wilf"]
    assert agg["checked"] == 2
    assert all(g6.startswith("trial:") for _, g6 in agg["top"])


def test_random_experiment_small_exact():
    exp = sc.random_experiment(n=30, p=0.4, trials=4, seed=9)
    assert exp.clique_exact
    assert exp.trials == 4
    assert set(exp.violations.values()) == {0}
    assert 0 < exp.stats["lambda1_over_n"]["mean"] < 1
    assert exp.stats["omega"]["mean"] >= 2
    assert sc.random_experiment(30, 0.4, 4, 9).to_json_bytes() == exp.to_json_bytes()


def test_random_experiment_greedy_above_cap():
    exp = sc.random_experiment(n=80, p=0.3, trials=2, seed=5)
    assert not exp.clique_exact
    assert set(exp.violations.values()) == {0}


def test_csv_summary():
    report = sc.scan(sc.EnumerationSource(3), ["wilf", "bn"], sc.ScanOptions())
    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0].startswith("check,checked,applicable")
    assert len(lines) == 3
    assert lines[1].startswith("wilf,8,8,0,")


def test_scan_rejects_bad_input():
    with pytest.raises(sc.ScanError, match="graph6 stream"):
        sc.scan(sc.EnumerationSource(9), ["wilf"])
    with pytest.raises(sc.ScanError, match="index range"):
        sc.scan(sc.EnumerationSource(3), ["wilf"], sc.ScanOptions(index_range=(0, 99)))
    with pytest.raises(KeyError):
        sc.scan(sc.EnumerationSource(3), ["not_a_check"])
    with pytest.raises(sc.ScanError, match="top_k"):
        sc.scan(sc.EnumerationSource(3), ["wilf"], sc.ScanOptions(top_k=0))


def test_theorem_sweep_n5_exhaustive():
    report = sc.scan(sc.EnumerationSource(5), "theorems",
                     sc.ScanOptions(connected_only=False, walk_rs=(1, 2, 3)))
    assert report.graphs_processed == 1 << 10
    assert report.binding_violations == 0, report.violations[:5]


def test_graph6_parse_error_offsets_count_from_line_start():
    # Only ASCII whitespace makes a line blank: \x1c-\x1f are parse errors.
    lines = ("", "  >>graph6<<A\n", "A_\n", "\x1f\n", "\x1cA_\n", " \t\r\n")
    report = sc.scan(sc.Graph6Source(lines=lines), "wilf")
    assert report.graphs_processed == 1
    assert [e["line"] for e in report.parse_errors] == [2, 4, 5]
    assert report.parse_errors[0]["error"].endswith("(byte offset 13)")


# ---------------------------------------------------------------------------
# graph6 routing: lines of order <= 10 run through the batch kernel in runs,
# larger ones through the per-graph path.
# ---------------------------------------------------------------------------


def _mixed_corpus() -> list[str]:
    """Orders 8-12 in runs and single lines, with blank lines, one malformed
    line in the middle of a run, disconnected graphs and equality cases."""
    def gnp(n, k):
        return gr.to_graph6(gr.random_gnp(n, (0.3, 0.55, 0.8)[k % 3], 17, index=100 * n + k))

    g6 = gr.to_graph6
    return (
        [gnp(8, k) for k in range(5)]
        + ["", gnp(9, 0), "   ", gnp(9, 1), g6(gr.disjoint_union(gr.complete(4), gr.cycle(5)))]
        + [gnp(11, 0)]
        + [gnp(10, 0), gnp(10, 1), "!!bogus!!", gnp(10, 2), g6(gr.complete_bipartite(5, 5)),
           g6(gr.empty(10)), gnp(10, 3)]
        + [gnp(12, 0), g6(gr.disjoint_union(gr.complete(6), gr.path(6))), gnp(10, 4)]
        + [gnp(8, 5), g6(gr.complete(8)), "", gnp(8, 6), gnp(11, 1), ">>graph6<<" + gnp(9, 3),
           gnp(12, 1)]
    )


def _per_line_aggregates(lines, ids, options):
    """Counts and ranked (slack, label, scale) lists from GraphContext and the scalar check."""
    aggs = {cid: {"checked": 0, "applicable": 0, "violations": 0, "equalities": 0, "ranked": []}
            for cid in ids}
    for line in lines:
        if not line.strip():
            continue
        try:
            g = gr.from_graph6(line)
        except gr.Graph6ParseError:
            continue
        ctx = iq.GraphContext(g)
        if options.connected_only and not ctx.connected:
            continue
        for cid in ids:
            res = iq.check(cid, g, ctx, options.tol)
            agg = aggs[cid]
            agg["checked"] += 1
            if res.applicable:
                agg["applicable"] += 1
                agg["violations"] += int(not res.holds)
                agg["equalities"] += int(res.equality)
                agg["ranked"].append((res.slack, gr.to_graph6(g), max(1.0, abs(res.lhs), abs(res.rhs))))
    for agg in aggs.values():
        agg["ranked"].sort()
    return aggs


@pytest.mark.parametrize("connected_only", [False, True])
def test_graph6_routed_aggregates_match_per_line_contexts(connected_only):
    lines = _mixed_corpus()
    options = sc.ScanOptions(connected_only=connected_only, top_k=3)
    report = sc.scan(sc.Graph6Source(lines=tuple(lines)), "all", options)
    want = _per_line_aggregates(lines, report.check_ids, options)
    assert [e["line"] for e in report.parse_errors] == [lines.index("!!bogus!!") + 1]
    for cid in report.check_ids:
        got, exp = report.checks[cid], want[cid]
        for key in ("checked", "applicable", "violations", "equalities"):
            assert got[key] == exp[key], (cid, key)
        top = exp["ranked"][:3]
        assert [label for _, label in got["top"]] == [label for _, label, _ in top], cid
        assert got["argmin_graph6"] == (top[0][1] if top else None), cid
        for (slack, _), (want_slack, _, scale) in zip(got["top"], top):
            assert abs(slack - want_slack) <= 1e-12 * scale, cid
    assert report.graphs_processed == want["wilf"]["checked"]


def _scan_fields(lines, checks, options):
    """(graphs_processed, parse_errors, partial, streamed violations, ScanError text)."""
    streamed = []
    try:
        report = sc.scan(sc.Graph6Source(lines=tuple(lines)), checks, options,
                         on_violation=streamed.append)
    except sc.ScanError as exc:
        return None, None, None, streamed, str(exc)
    assert streamed == report.violations
    return report.graphs_processed, report.parse_errors, report.partial, streamed, None


def _one_line_at_a_time(lines, checks, options):
    """The same fields when every line is scanned on its own."""
    processed, errors, violations = 0, [], []
    todo = [(lineno, line) for lineno, line in enumerate(lines, start=1) if line.strip()]
    for pos, (lineno, line) in enumerate(todo):
        try:
            report = sc.scan(sc.Graph6Source(lines=(line,)), checks, options)
        except sc.ScanError as exc:
            return None, None, None, violations, str(exc).replace("line 1:", f"line {lineno}:", 1)
        processed += report.graphs_processed
        errors += [dict(e, line=lineno) for e in report.parse_errors]
        violations += report.violations
        if options.stop_on_violation and report.violations:
            return processed, errors, pos < len(todo) - 1, violations, None
    return processed, errors, False, violations, None


@pytest.mark.parametrize("checks", ["wilf", "all"])
@pytest.mark.parametrize("connected_only", [False, True])
@pytest.mark.parametrize("stop_on_violation,strict_parse", [(False, False), (True, False), (False, True)])
def test_graph6_routed_scan_matches_one_line_at_a_time(checks, connected_only, stop_on_violation,
                                                       strict_parse):
    # A negative holds tolerance turns equality cases (K_{5,5}, K_8 and the
    # edgeless graph for wilf) into violations, so stops happen mid-run.
    lines = _mixed_corpus()
    options = sc.ScanOptions(connected_only=connected_only, stop_on_violation=stop_on_violation,
                             strict_parse=strict_parse, tol=iq.Tolerances(holds_rtol=-1e-6))
    got = _scan_fields(lines, checks, options)
    assert got == _one_line_at_a_time(lines, checks, options)
    if stop_on_violation:
        assert got[2] and got[3]
    if strict_parse:
        assert got[4].startswith(f"line {lines.index('!!bogus!!') + 1}:")


def test_graph6_only_small_orders_reach_batch_kernel(monkeypatch):
    batches, singles = [], []
    real_batch, real_single = sc.bt.BatchContext, sc.GraphContext

    def batch(n, masks):
        batches.append((n, len(masks)))
        return real_batch(n, masks)

    def single(g, *args, **kwargs):
        singles.append(g.n)
        return real_single(g, *args, **kwargs)

    monkeypatch.setattr(sc.bt, "BatchContext", batch)
    monkeypatch.setattr(sc, "GraphContext", single)
    report = sc.scan(sc.Graph6Source(lines=tuple(_mixed_corpus())), ["wilf"])
    # A run ends at a change of order, a larger order or a parse error.
    assert batches == [(8, 5), (9, 3), (11, 1), (10, 2), (10, 4), (10, 1), (8, 3), (11, 1), (9, 1)]
    assert singles == [12, 12, 12]
    assert report.graphs_processed == sum(rows for _, rows in batches) + len(singles)


def test_graph6_runs_stay_within_one_enumeration_chunk(monkeypatch):
    rows = []
    real_batch = sc.bt.BatchContext

    def batch(n, masks):
        rows.append(len(masks))
        return real_batch(n, masks)

    monkeypatch.setattr(sc.bt, "BatchContext", batch)
    rng = np.random.default_rng(3)
    distinct = [gr.to_graph6(gr.from_edge_mask(10, int(m))) for m in rng.integers(0, 1 << 45, 50)]
    report = sc.scan(sc.Graph6Source(lines=tuple(distinct * 100)), ["wilf"])
    assert report.graphs_processed == 5000
    assert sum(rows) == 5000 and len(rows) == 3
    assert max(rows) <= 2048
    assert max(rows) * ((1 << 10) - 1) <= sc.CHUNK * ((1 << 7) - 1)
