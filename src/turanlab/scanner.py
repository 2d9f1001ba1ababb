"""Batch verification engine: drive checks over graph sources.

Sources are labeled enumerations, graph6 streams and seeded G(n, p) trial
sets.  The order alone picks the path: graphs on at most
``batch.BATCH_MAX_ORDER`` (11) vertices are evaluated in chunks by the
vectorized kernel, larger ones one at a time; both take their walk counts
from the same exact ``spectra.walk_step``.  One aggregator, ``_aggregate``,
turns a context into a unit's aggregate: a chunk is a ``BatchContext`` and
a single graph a one-row ``GraphContext``.  Aggregation is merge-associative
per check: counts add, minima combine with a (slack, graph6) tie-break, and
top-k lists merge by sort-and-trim, so any partition of the input over
workers reproduces the single-worker report byte for byte.
"""

from __future__ import annotations

import string
import sys
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from typing import Callable, Iterator, Sequence

import numpy as np

from . import batch as bt
from .graph import (
    ENUMERATION_MAX_ORDER,
    GRAPH6_MAX_ORDER,
    Graph,
    Graph6ParseError,
    from_edge_mask,
    from_graph6,
    is_connected,
    random_gnp,
    to_graph6,
)
from .inequalities import (
    DEFAULT_TOL,
    DEFAULT_WALK_RS,
    GraphContext,
    Tolerances,
    evaluate_entry,
    expand_check_ids,
    parse_check_id,
    result_notes,
)
from .util import json_bytes, round12

CHUNK = 1 << 14


# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnumerationSource:
    """All labeled graphs on n vertices, indexed by edge mask."""

    n: int

    def descriptor(self) -> dict:
        return {"kind": "labeled-enumeration", "n": self.n}


@dataclass(frozen=True)
class Graph6Source:
    """Newline-delimited graph6 text (path, '-' for stdin, or lines)."""

    path: str | None = None
    lines: tuple[str, ...] | None = None

    def descriptor(self) -> dict:
        return {"kind": "graph6-stream", "path": self.path or "<lines>"}

    def iter_lines(self) -> Iterator[str]:
        """The stream's lines; a file is closed once iteration ends or stops.

        Bytes outside ASCII reach the parser as lone surrogates, so they
        make a parse error on their own line instead of ending the stream.
        """
        if self.lines is not None:
            yield from self.lines
        elif self.path in (None, "-"):
            for raw in sys.stdin.buffer:
                yield raw.decode("ascii", "surrogateescape")
        else:
            with open(self.path, "r", encoding="ascii", errors="surrogateescape") as fh:
                yield from fh


@dataclass(frozen=True)
class RandomSource:
    """G(n, p) trial set; trial i uses the (seed, i) substream."""

    n: int
    p: float
    trials: int
    seed: int

    def descriptor(self) -> dict:
        return {"kind": "random", "n": self.n, "p": self.p,
                "trials": self.trials, "seed": self.seed}


GraphSource = EnumerationSource | Graph6Source | RandomSource


@dataclass(frozen=True)
class ScanOptions:
    connected_only: bool = False
    stop_on_violation: bool = False
    top_k: int = 3
    tol: Tolerances = DEFAULT_TOL
    workers: int = 1
    index_range: tuple[int, int] | None = None
    walk_rs: tuple[int, ...] = DEFAULT_WALK_RS
    time_budget_s: float | None = None
    strict_parse: bool = False

    def descriptor(self) -> dict:
        return {
            "connected_only": self.connected_only,
            "stop_on_violation": self.stop_on_violation,
            "top_k": self.top_k,
            "holds_rtol": self.tol.holds_rtol,
            "equality_rtol": self.tol.equality_rtol,
            "index_range": list(self.index_range) if self.index_range else None,
            "walk_rs": list(self.walk_rs),
        }


class ScanError(RuntimeError):
    """Operational scan failure (unreadable source, malformed input)."""


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------


_COUNTS = ("checked", "applicable", "violations", "equalities")


def _check_agg(counts=(0, 0, 0, 0), top=()) -> dict:
    """One check's aggregate.  ``top`` is sorted by (slack, graph6) and holds
    at least the minimum whenever it is non-empty (top_k >= 1)."""
    top = list(top)
    head = top[0] if top else (None, None)
    return {**dict(zip(_COUNTS, counts)), "min_slack": head[0], "argmin_graph6": head[1],
            "top": top}


def _merge_check_aggs(a: dict, b: dict, top_k: int) -> dict:
    return _check_agg([a[k] + b[k] for k in _COUNTS], sorted(a["top"] + b["top"])[:top_k])


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


@dataclass
class ScanReport:
    source: dict
    options: dict
    check_ids: list[str]
    graphs_processed: int = 0
    parse_errors: list[dict] = field(default_factory=list)
    partial: bool = False
    checks: dict[str, dict] = field(default_factory=dict)
    violations: list[dict] = field(default_factory=list)

    @property
    def binding_violations(self) -> int:
        return len(self.violations)

    def to_dict(self) -> dict:
        checks = {}
        for cid in self.check_ids:
            agg = self.checks[cid]
            checks[cid] = {
                "checked": agg["checked"],
                "applicable": agg["applicable"],
                "violations": agg["violations"],
                "equalities": agg["equalities"],
                "min_slack": agg["min_slack"],
                "argmin_graph6": agg["argmin_graph6"],
                "top_k": [{"slack": s, "graph6": g} for s, g in agg["top"]],
            }
        return {
            "source": self.source,
            "options": self.options,
            "graphs_processed": self.graphs_processed,
            "parse_errors": self.parse_errors,
            "partial": self.partial,
            "binding_violations": self.binding_violations,
            "checks": checks,
            "violations": self.violations,
        }

    def to_json_bytes(self) -> bytes:
        return json_bytes(self.to_dict())

    def to_csv(self) -> str:
        rows = ["check,checked,applicable,violations,equalities,min_slack,argmin_graph6"]
        for cid in self.check_ids:
            agg = self.checks[cid]
            ms = "" if agg["min_slack"] is None else f"{round12(agg['min_slack']):.12g}"
            am = agg["argmin_graph6"] or ""
            rows.append(
                f"{cid},{agg['checked']},{agg['applicable']},{agg['violations']},"
                f"{agg['equalities']},{ms},{am}"
            )
        return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# Units: each is a call that evaluates one chunk of graphs on the vectorized
# kernel (an enumeration range or a graph6 run) or one larger graph, a chunk
# of one row.  Both go through ``_aggregate``.  A unit returns None when it
# contributes nothing, or its aggregate: "processed", per-check "checks",
# "violations", "stop" (end the scan after this unit) and "left" (the unit
# itself left input unevaluated).
# ---------------------------------------------------------------------------


def _aggregate(ctx, label: Callable[[int], str], ids: Sequence[str], options: ScanOptions,
               keep: np.ndarray) -> dict:
    """Every check on every row of a context, as one unit's aggregate.

    ``ctx`` is a ``BatchContext`` or a one-row ``GraphContext``; ``keep``
    marks the rows that count, and ``label(i)`` names row i.  The catalogue
    is evaluated as stacked (checks x rows) arrays.
    """
    top_k, rows = options.top_k, len(keep)
    entries = [parse_check_id(cid) for cid in ids]
    lhs = np.empty((len(ids), rows))
    rhs = np.empty_like(lhs)
    slack = np.empty_like(lhs)
    app = np.empty(lhs.shape, dtype=bool)
    holds = np.empty_like(app)
    eq = np.empty_like(app)
    for j, (entry, r) in enumerate(entries):
        lhs[j], rhs[j], app[j] = evaluate_entry(entry, ctx, r)
    strict = np.array([[entry.strict] for entry, _ in entries])
    # One verdict call per block of at most CHUNK cells, so its temporaries
    # stay small beside the stacks: one call for a graph or a graph6 run,
    # a few for an enumeration chunk.
    step = max(1, CHUNK // rows)
    for b in range(0, len(ids), step):
        blk = slice(b, b + step)
        slack[blk], holds[blk], eq[blk] = options.tol.verdict(lhs[blk], rhs[blk], strict[blk])
    app &= keep
    viol = app & ~holds
    # A stop keeps rows up to the first violating one, all of whose checks count.
    bad = np.flatnonzero(viol.any(axis=0))
    stop = options.stop_on_violation and len(bad) > 0
    end = int(bad[0]) + 1 if stop else rows
    app[:, end:] = False
    viol &= app
    eq &= app

    # Records in input order, then catalogue order.
    connected = np.broadcast_to(ctx.connected, (rows,))
    violations = []
    for i, j in zip(*np.nonzero(viol.T)):
        v = {"graph6": label(i), "check": ids[j], "lhs": float(lhs[j, i]),
             "rhs": float(rhs[j, i]), "slack": float(slack[j, i])}
        notes = result_notes(entries[j][0], (), bool(connected[i]), ctx.exact_cliques, False)
        if notes:
            v["notes"] = notes
        violations.append(v)
    del lhs, rhs  # only the records need them; the ranking takes two more stacks
    # Candidates for min/top-k: ties on the boundary slack are broken by
    # label, so pull the whole tie group.
    k = min(top_k, rows)
    part = np.where(app, slack, np.inf)
    part.partition(k - 1, axis=1)  # column k - 1 holds each check's k-th smallest
    ranked: list[list] = [[] for _ in ids]
    for j, i in zip(*np.nonzero(app & (slack <= part[:, k - 1:k]))):
        ranked[j].append((float(slack[j, i]), label(i)))
    processed = int(keep[:end].sum())
    counts = zip(app.sum(axis=1).tolist(), viol.sum(axis=1).tolist(), eq.sum(axis=1).tolist())
    checks = {cid: _check_agg((processed, *c), sorted(top)[:top_k])
              for cid, c, top in zip(ids, counts, ranked)}
    return {"processed": processed, "checks": checks, "violations": violations,
            "stop": stop, "left": end < rows}


def _enum_chunk(n: int, ids: tuple[str, ...], options: ScanOptions, masks: np.ndarray) -> dict:
    """Every check on a chunk of n-vertex graphs given by their lex-order edge masks."""
    ctx = bt.BatchContext(n, masks)
    keep = ctx.connected if options.connected_only else np.ones(len(masks), dtype=bool)
    label = lru_cache(maxsize=None)(lambda i: to_graph6(from_edge_mask(n, int(masks[i]))))
    return _aggregate(ctx, label, ids, options, keep)


def _graph_unit(g: Graph, ids: Sequence[str], options: ScanOptions, fallback_label: str = "",
                on_context=None) -> dict | None:
    """One graph as a one-row chunk, labelled by its graph6 line or, past the
    graph6 order cap, by ``fallback_label``."""
    if options.connected_only and not is_connected(g):
        return None
    ctx = GraphContext(g)
    if on_context is not None:
        on_context(ctx)
    label = to_graph6(g) if g.n <= GRAPH6_MAX_ORDER else fallback_label
    return _aggregate(ctx, lambda i: label, ids, options, np.ones(1, dtype=bool))


def _enum_range(n: int, ids: tuple[str, ...], options: ScanOptions, lo: int, hi: int) -> dict:
    # A pool task carries the two ends of its range, not the masks.
    return _enum_chunk(n, ids, options, np.arange(lo, hi, dtype=np.int64))


def _chunk_ranges(lo: int, hi: int) -> list[tuple[int, int]]:
    # Chunk boundaries are absolute so reports do not depend on the worker
    # count or on how an index range was split.
    out = []
    start = lo
    while start < hi:
        end = min(hi, (start // CHUNK + 1) * CHUNK)
        out.append((start, end))
        start = end
    return out


def _enumeration_units(source: EnumerationSource, ids: list[str], options: ScanOptions):
    n = source.n
    if not 1 <= n <= ENUMERATION_MAX_ORDER:
        raise ScanError(
            f"built-in enumeration covers n <= {ENUMERATION_MAX_ORDER}; "
            "use a graph6 stream for larger orders"
        )
    total = 1 << (n * (n - 1) // 2)
    lo, hi = options.index_range or (0, total)
    if not (0 <= lo <= hi <= total):
        raise ScanError(f"index range [{lo}, {hi}) outside [0, {total})")
    chunk = partial(_enum_range, n, tuple(ids), options)
    ranges = _chunk_ranges(lo, hi)
    if options.workers > 1 and not options.stop_on_violation and len(ranges) > 1:
        # Imported here: a one-worker scan does not pay for it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=options.workers) as pool:
            for agg in pool.map(chunk, *zip(*ranges)):
                yield lambda agg=agg: agg
    else:
        for clo, chi in ranges:
            yield partial(chunk, clo, chi)


def _run_rows(n: int) -> int:
    """Most lines of order n in one batched run: its clique table holds no
    more cells than that of one enumeration chunk at the largest order."""
    return max(1, CHUNK * ((1 << ENUMERATION_MAX_ORDER) - 1) // ((1 << n) - 1))


def _graph6_units(source: Graph6Source, ids: list[str], options: ScanOptions, report: ScanReport):
    """Units in input order: one per run of consecutive lines that share one
    order n <= ``bt.BATCH_MAX_ORDER`` (at most ``_run_rows(n)`` lines),
    one per line of larger order and one per parse error."""
    def parse_error(lineno: int, exc: Graph6ParseError):
        if options.strict_parse:
            raise ScanError(f"line {lineno}: {exc}") from exc
        report.parse_errors.append({"line": lineno, "error": str(exc)})

    run: list[int] = []  # lex-order edge masks of a run of order run_n
    run_n = 0

    def flush():
        masks = np.array(run, dtype=np.int64)
        run.clear()
        return partial(_enum_chunk, run_n, tuple(ids), options, masks)

    try:
        for lineno, raw in enumerate(source.iter_lines(), start=1):
            line = raw.rstrip("\n")
            if not line.strip(string.whitespace):
                continue
            try:
                g = from_graph6(line)
            except Graph6ParseError as exc:
                if run:
                    yield flush()
                yield partial(parse_error, lineno, exc)
                continue
            if run and (g.n != run_n or len(run) == _run_rows(run_n)):
                yield flush()
            if g.n <= bt.BATCH_MAX_ORDER:
                run_n = g.n
                run.append(g.edge_mask())
            else:
                yield partial(_graph_unit, g, ids, options)
        if run:
            yield flush()
    except OSError as exc:
        raise ScanError(f"unreadable source: {exc}") from exc


def _random_units(source: RandomSource, ids: list[str], options: ScanOptions, on_context=None):
    def unit(trial: int):
        g = random_gnp(source.n, source.p, source.seed, index=trial)
        return _graph_unit(g, ids, options, f"trial:{trial}", on_context)

    for trial in range(source.trials):
        yield partial(unit, trial)


# ---------------------------------------------------------------------------
# Driver and entry points
# ---------------------------------------------------------------------------


def _scan(source: GraphSource, ids: list[str], options: ScanOptions,
          on_violation=None, on_context=None) -> ScanReport:
    """Evaluate the source's units in order, merging each into one report.

    The scan stops after a unit that asks to stop or once the time budget
    is spent, and it is ``partial`` exactly when some input was left
    unevaluated.  Every unit is evaluated when the budget lasts.
    """
    report = ScanReport(
        source=source.descriptor(),
        options=options.descriptor(),
        check_ids=ids,
        checks={cid: _check_agg() for cid in ids},
    )
    if isinstance(source, EnumerationSource):
        units = _enumeration_units(source, ids, options)
    elif isinstance(source, Graph6Source):
        units = _graph6_units(source, ids, options, report)
    elif isinstance(source, RandomSource):
        units = _random_units(source, ids, options, on_context)
    else:
        raise ScanError(f"unknown source type {type(source)!r}")
    start_time = time.monotonic()
    stop = False
    try:
        for unit in units:
            if stop:
                report.partial = True  # this unit is left unevaluated
                break
            agg = unit()
            if agg is not None:
                report.graphs_processed += agg["processed"]
                for cid in ids:
                    report.checks[cid] = _merge_check_aggs(report.checks[cid], agg["checks"][cid],
                                                           options.top_k)
                for v in agg["violations"]:
                    report.violations.append(v)
                    if on_violation:
                        on_violation(v)
                report.partial = agg["left"]
                stop = agg["stop"]
            if options.time_budget_s is not None and time.monotonic() - start_time > options.time_budget_s:
                stop = True
    finally:
        units.close()
    return report


def scan(
    source: GraphSource,
    checks: str | Sequence[str],
    options: ScanOptions = ScanOptions(),
    on_violation: Callable[[dict], None] | None = None,
) -> ScanReport:
    """Run every selected check over every graph from the source."""
    ids = expand_check_ids(checks, options.walk_rs)
    if not ids:
        raise ScanError("no checks selected")
    if options.top_k < 1:
        raise ScanError("top_k >= 1 required")
    return _scan(source, ids, options, on_violation)


def extremal_search(
    source: GraphSource,
    check_id: str,
    k: int,
    options: ScanOptions = ScanOptions(),
) -> list[dict]:
    """The k graphs of smallest slack for one check, deterministic order."""
    options = replace(options, top_k=k)
    report = scan(source, [check_id], options)
    cid = expand_check_ids([check_id], options.walk_rs)[0]
    return [{"slack": s, "graph6": g} for s, g in report.checks[cid]["top"]]


# ---------------------------------------------------------------------------
# Random-graph experiments
# ---------------------------------------------------------------------------

EXPERIMENT_CHECKS = ("splus_wilf", "vertex_local_splus_wilf", "local_bn")


@dataclass
class RandomExperiment:
    n: int
    p: float
    trials: int
    seed: int
    stats: dict[str, dict[str, float]]
    violations: dict[str, int]
    clique_exact: bool
    partial: bool = False

    def to_dict(self) -> dict:
        return {
            "n": self.n, "p": self.p, "trials": self.trials, "seed": self.seed,
            "stats": self.stats, "violations": self.violations,
            "clique_exact": self.clique_exact, "partial": self.partial,
        }

    def to_json_bytes(self) -> bytes:
        return json_bytes(self.to_dict())


def random_experiment(
    n: int,
    p: float,
    trials: int,
    seed: int,
    checks: Sequence[str] = EXPERIMENT_CHECKS,
    tol: Tolerances = DEFAULT_TOL,
    time_budget_s: float | None = None,
) -> RandomExperiment:
    """Spectral and clique statistics of G(n, p) over seeded trials.

    Statistics: lambda1/n, lambda2/sqrt(n), s+/n^2, s-/n^2, omega, mean c(v),
    mean c(e).  Above the exact-clique cap the clique quantities are greedy
    lower bounds (flagged by ``clique_exact``); the evaluated checks are
    monotone in them, so reported non-violations are certified.
    """
    if trials < 1:
        raise ScanError("trials >= 1 required")
    samples: dict[str, list[float]] = {
        k: [] for k in ("lambda1_over_n", "lambda2_over_sqrt_n",
                        "s_plus_over_n2", "s_minus_over_n2",
                        "omega", "mean_c_v", "mean_c_e")
    }
    exact: list[bool] = []

    def observe(ctx: GraphContext):
        exact.append(ctx.exact_cliques)
        samples["lambda1_over_n"].append(float(ctx.lam1) / n)
        samples["lambda2_over_sqrt_n"].append(float(ctx.lam2) / np.sqrt(n))
        samples["s_plus_over_n2"].append(float(ctx.s_plus) / n**2)
        samples["s_minus_over_n2"].append(float(ctx.s_minus) / n**2)
        samples["omega"].append(float(ctx.omega))
        samples["mean_c_v"].append(float(np.mean(ctx.profile.c_v)))
        samples["mean_c_e"].append(float(np.mean(ctx.profile.c_e)) if ctx.profile.c_e else 0.0)

    report = _scan(RandomSource(n, p, trials, seed), list(checks),
                   ScanOptions(tol=tol, time_budget_s=time_budget_s), on_context=observe)
    stats = {
        name: {
            "mean": float(np.mean(vals)),
            "stddev": float(np.std(vals)),
        }
        for name, vals in samples.items()
    }
    return RandomExperiment(
        n=n, p=p, trials=report.graphs_processed, seed=seed, stats=stats,
        violations={cid: report.checks[cid]["violations"] for cid in checks},
        clique_exact=all(exact), partial=report.partial,
    )
