"""Output verification for one scan report, run outside the timed region.

* ``content_digest``: sha256 over graphs_processed, the per-check
  aggregates and each violation's (graph6, check, lhs, rhs, slack), floats
  at 12 significant digits.  The report header (source, options) and
  violation notes are left out on purpose.
* ``reproduce``: every argmin, top-k entry and violation is re-evaluated with
  one ``turanlab.check`` call on the decoded graph6 label; the slack must
  match within the holds tolerance.  On the enumeration workload this
  cross-checks the vectorized batch path against the scalar path.
* ``invariants``: counts and extrema that any correct report satisfies.
"""

from __future__ import annotations

import hashlib
import json

AGG_KEYS = ("checked", "applicable", "violations", "equalities",
            "min_slack", "argmin_graph6", "top_k")


def _fmt(obj):
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        return format(obj, ".12g")
    if isinstance(obj, dict):
        return {k: _fmt(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_fmt(v) for v in obj]
    return obj


def content_digest(report: dict) -> str:
    body = {
        "graphs_processed": report["graphs_processed"],
        "checks": {cid: {k: agg[k] for k in AGG_KEYS} for cid, agg in report["checks"].items()},
        "violations": [[v["graph6"], v["check"], v["lhs"], v["rhs"], v["slack"]]
                       for v in report["violations"]],
    }
    text = json.dumps(_fmt(body), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def invariants(report: dict, expected_processed: int, top_k: int) -> list[str]:
    problems = []
    if report["parse_errors"]:
        problems.append(f"{len(report['parse_errors'])} parse errors")
    if report["partial"]:
        problems.append("partial report")
    if report["graphs_processed"] != expected_processed:
        problems.append(f"graphs_processed {report['graphs_processed']} != {expected_processed}")
    for cid, agg in report["checks"].items():
        if agg["checked"] != report["graphs_processed"]:
            problems.append(f"{cid}: checked {agg['checked']} != graphs_processed")
        if not 0 <= agg["violations"] <= agg["applicable"] <= agg["checked"]:
            problems.append(f"{cid}: counts out of order")
        top = agg["top_k"]
        if len(top) > top_k or [t["slack"] for t in top] != sorted(t["slack"] for t in top):
            problems.append(f"{cid}: top-k list malformed")
        head = (top[0]["slack"], top[0]["graph6"]) if top else (None, None)
        if (agg["min_slack"], agg["argmin_graph6"]) != head:
            problems.append(f"{cid}: argmin differs from top-k head")
    return problems


def reproduce(report: dict, tl) -> tuple[int, int, list[str]]:
    """Re-evaluate reported slacks; returns (reproduced, skipped, problems).

    Labels that are not graph6 (``trial:<i>`` above 64 vertices) cannot be
    decoded and are counted as skipped.
    """
    items: dict[tuple[str, str, float], bool] = {}
    for cid, agg in report["checks"].items():
        for t in agg["top_k"]:
            items.setdefault((cid, t["graph6"], t["slack"]), False)
        if agg["argmin_graph6"] is not None:
            items.setdefault((cid, agg["argmin_graph6"], agg["min_slack"]), False)
    for v in report["violations"]:
        items[(v["check"], v["graph6"], v["slack"])] = True

    contexts: dict = {}
    done = skipped = 0
    problems = []
    for (cid, g6, slack), is_violation in items.items():
        if g6.startswith("trial:"):
            skipped += 1
            continue
        if g6 not in contexts:
            g = tl.from_graph6(g6)
            contexts[g6] = (g, tl.GraphContext(g))
        g, ctx = contexts[g6]
        res = tl.check(cid, g, context=ctx)
        done += 1
        if abs(res.slack - slack) > float(tl.Tolerances().holds_tol(res.lhs, res.rhs)):
            problems.append(f"{cid} on {g6}: reported slack {slack!r}, re-evaluated {res.slack!r}")
        elif is_violation and (res.holds or not res.applicable):
            problems.append(f"{cid} on {g6}: reported violation does not reproduce")
    return done, skipped, problems
