"""The inequality catalogue: named checks returning lhs/rhs/slack/holds.

Every check is a parameter-free statement about one graph.  A check can be
inapplicable (a hypothesis such as "G is not complete" fails); it is still
evaluated and reported, but a negative slack then does not count as a
violation.

Formulas are written with numpy ufunc-compatible operations over a context
object whose fields are either scalars (one graph) or aligned arrays (a
batch of graphs), so the per-graph path and the vectorized scan kernel
evaluate literally the same expressions.

Clique-dependent bound sides are monotone increasing in every c(v), c(e)
and omega, so contexts built from greedy clique lower bounds (large random
graphs) under-report the bound side only: "holds" is then certified, while
a candidate violation is flagged as unconfirmed.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import cliques, spectra
from .graph import Graph, is_connected
from .util import round12

WALK_R_MAX = 10
DEFAULT_WALK_RS = (1, 2, 3, 4, 5, 6)


@dataclass(frozen=True)
class Tolerances:
    """Relative tolerances for 'holds' and 'equality' flags."""

    holds_rtol: float = 1e-9
    equality_rtol: float = 1e-8

    @staticmethod
    def _scale(lhs, rhs):
        return np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))

    def holds_tol(self, lhs, rhs):
        return self.holds_rtol * self._scale(lhs, rhs)

    def verdict(self, lhs, rhs, strict):
        """(slack, holds, equality) of lhs <= rhs, or lhs < rhs where strict,
        elementwise; ``strict`` broadcasts, e.g. one flag per row of checks."""
        slack = rhs - lhs
        scale = self._scale(lhs, rhs)
        bound = -self.holds_rtol * scale
        holds = np.where(strict, slack > bound, slack >= bound)
        return slack, holds, np.abs(slack) <= self.equality_rtol * scale


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class InequalityResult:
    id: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    applicable: bool
    equality: bool
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "lhs": round12(self.lhs),
            "rhs": round12(self.rhs),
            "slack": round12(self.slack),
            "holds": self.holds,
            "applicable": self.applicable,
            "equality": self.equality,
            "notes": self.notes,
        }


def edge_local_sum(c_e, w=None):
    """sum_e 2(1 - 1/c(e)), each term times w(e)^2 when weights are given.

    Reduces over the last axis; a slot with c(e) = 1 adds exactly 0.
    """
    terms = 2.0 * (1.0 - 1.0 / c_e)
    if w is not None:
        terms = terms * w * w
    return terms.sum(axis=-1)


class DerivedFields:
    """Catalogue fields derived from a context's base arrays.

    The base arrays hold one graph (1-D) or one chunk of graphs (2-D, a row
    per graph), and every sum runs over the last axis.  The per-vertex sums
    add the same operands in the same order in both contexts; ``sum_ce_local``
    does not, because the batch context sums all n(n-1)/2 pair slots (a
    non-edge adds exactly 0) while the per-graph context sums its m edges,
    so the two can differ in the last bits.  A subclass sets
    ``t``, ``diamond_free``, ``connected`` and ``exact_cliques`` and calls
    ``_derive``.  Both contexts extend one exact walk table with the same
    ``spectra.walk_step``, so their walk fields agree bit for bit.  A chunk
    holds graphs on n <= 11 vertices, where every walk count up to w_20 stays
    in the step's uint64 channel; a larger graph may add residue channels.
    """

    def _derive(self, eigenvalues, degrees, c_v, c_e, adj):
        """eigenvalues: descending spectrum; degrees, c_v: integers per vertex;
        c_e: float c(e) per edge slot; adj: the 0/1 integer adjacency."""
        self.eigenvalues = eigenvalues
        self.lam1, self.lam2, self.s_plus, self.s_minus = spectra.spectral_fields(eigenvalues)
        self.n = degrees.shape[-1]
        self.m = degrees.sum(axis=-1) // 2
        self.regular = degrees.max(axis=-1) == degrees.min(axis=-1)
        self.complete = self.m == self.n * (self.n - 1) // 2
        self.omega = c_v.max(axis=-1)
        cv = c_v.astype(np.float64)
        self.min_cv = c_v.min(axis=-1)
        self._cv_wilf_weights = 1.0 - 1.0 / cv
        self._cv_sqrt_weights = np.sqrt(self._cv_wilf_weights)
        self.sum_cv_wilf = self._cv_wilf_weights.sum(axis=-1)
        self.sum_cv_half = (1.0 - 1.0 / (2.0 * cv)).sum(axis=-1)
        self.sum_cv_reg = np.where(
            cv >= 2.0, 1.0 - 1.0 / np.maximum(2.0 * cv - 2.0, 1.0), 0.0
        ).sum(axis=-1)
        self.sum_ce_local = edge_local_sum(c_e)
        # Weighted-check fields default to the unit-weight specialization.
        self.w_lam1 = self.lam1
        self.sum_ce_local_w = self.sum_ce_local
        self._adj = adj
        self._walks = [spectra.walk_start(adj, int(degrees.max(initial=0)))]

    def _walk_vec(self, r: int):
        """w_r(v) as float64; the exact walk table grows only as far as asked."""
        while len(self._walks) < r:
            self._walks.append(spectra.walk_step(self._adj, self._walks[-1]))
        return spectra.walk_floats(self._walks[r - 1])

    def walk_total(self, r: int):
        return self._walk_vec(r).sum(axis=-1)

    def walk_conj_sum(self, r: int):
        return (self._walk_vec(r) * self._cv_wilf_weights).sum(axis=-1)

    def walk_sqrt_sum(self, r: int):
        return (self._walk_vec(r) * self._cv_sqrt_weights).sum(axis=-1)


class GraphContext(DerivedFields):
    """Per-graph quantities shared by all checks.

    Bool flags are numpy scalars so the shared formulas may use ``~``, ``&``
    and ``|`` uniformly with the batch path.
    """

    def __init__(self, g: Graph, exact_cliques: bool | None = None):
        self.graph = g
        # One uint8 adjacency feeds the eigensolve (as a transient float64)
        # and the walk steps; no n x n float64 or int64 copy stays alive.
        # The eigensolve runs before the clique profile; the other order
        # raised peak RSS by 6 to 9 MB on G(1000, 1/2).
        adj = g.dense(np.uint8)
        eigenvalues = spectra.eigenvalues(adj, verify=False).eigenvalues
        self.profile = cliques.clique_profile(g, exact=exact_cliques)
        self.exact_cliques = self.profile.exact
        self.t = np.int64(self.profile.t)
        self.diamond_free = np.bool_(self.profile.diamond_free)
        self.connected = np.bool_(is_connected(g))
        self._derive(eigenvalues, np.array(g.degrees), np.array(self.profile.c_v),
                     np.array(self.profile.c_e, dtype=np.float64), adj)


# ---------------------------------------------------------------------------
# Catalogue
# ---------------------------------------------------------------------------

THEOREM = "theorem"
CONJECTURE = "conjecture"

Form = Callable[..., object]


@dataclass(frozen=True)
class CatalogueEntry:
    base: str
    kind: str
    statement: str
    lhs: Form
    rhs: Form
    hypotheses: tuple[tuple[str, Form], ...] = ()
    strict: bool = False
    walk: bool = False  # parameterized by walk length r

    def id_for(self, r: int | None = None) -> str:
        if self.walk:
            if r is None:
                raise ValueError(f"{self.base} needs a walk length r")
            return f"{self.base}({r})"
        return self.base

    def applicable(self, ctx, r=None):
        acc = np.bool_(True)
        for _, fn in self.hypotheses:
            acc = acc & fn(ctx, r)
        return acc

    def failed_hypotheses(self, ctx, r=None) -> list[str]:
        return [label for label, fn in self.hypotheses if not bool(fn(ctx, r))]


def _turan_rhs(c, r):
    return c.n * c.n / 2.0 * (1.0 - 1.0 / c.omega)


def _two_m_omega(c, r):
    return 2.0 * c.m * (1.0 - 1.0 / c.omega)


def _sqrt_splus(c, r):
    return np.sqrt(c.s_plus)


def _bn_lhs(c, r):
    return c.lam1 * c.lam1 + c.lam2 * c.lam2


_NOT_COMPLETE = ("G != K_n", lambda c, r: ~c.complete)
_DIAMOND_FREE = ("diamond-free", lambda c, r: c.diamond_free)


CATALOGUE: tuple[CatalogueEntry, ...] = (
    CatalogueEntry(
        "turan_edges", THEOREM, "m <= (n^2/2)(1 - 1/omega)",
        lhs=lambda c, r: c.m + 0.0,
        rhs=_turan_rhs,
    ),
    CatalogueEntry(
        "wilf", THEOREM, "lambda1 <= n(1 - 1/omega)",
        lhs=lambda c, r: c.lam1,
        rhs=lambda c, r: c.n * (1.0 - 1.0 / c.omega),
    ),
    CatalogueEntry(
        "spectral_turan", THEOREM, "lambda1^2 <= 2m(1 - 1/omega)",
        lhs=lambda c, r: c.lam1 * c.lam1,
        rhs=_two_m_omega,
    ),
    CatalogueEntry(
        "edge_local_spectral_turan", THEOREM, "lambda1^2 <= sum_e 2(1 - 1/c(e))",
        lhs=lambda c, r: c.lam1 * c.lam1,
        rhs=lambda c, r: c.sum_ce_local,
    ),
    CatalogueEntry(
        "weighted_edge_local_turan", THEOREM,
        "lambda1(W)^2 <= sum_e 2(1 - 1/c(e)) w(e)^2  [connected]",
        lhs=lambda c, r: c.w_lam1 * c.w_lam1,
        rhs=lambda c, r: c.sum_ce_local_w,
        hypotheses=(("connected", lambda c, r: c.connected),),
    ),
    CatalogueEntry(
        "splus_wilf", CONJECTURE, "sqrt(s+) <= n(1 - 1/omega)",
        lhs=_sqrt_splus,
        rhs=lambda c, r: c.n * (1.0 - 1.0 / c.omega),
    ),
    CatalogueEntry(
        "vertex_local_splus_wilf", CONJECTURE, "sqrt(s+) <= sum_v (1 - 1/c(v))",
        lhs=_sqrt_splus,
        rhs=lambda c, r: c.sum_cv_wilf,
    ),
    CatalogueEntry(
        "splus_triangle", THEOREM, "sqrt(s+) <= n/2 + 3t/lambda1^2",
        lhs=_sqrt_splus,
        # Triangle-free graphs contribute no correction term; this also keeps
        # the expression finite on edgeless graphs where lambda1 = 0.
        rhs=lambda c, r: c.n / 2.0
        + np.where(c.t > 0, 3.0 * c.t / np.maximum(c.lam1 * c.lam1, 1e-300), 0.0),
    ),
    CatalogueEntry(
        "splus_weak", THEOREM, "sqrt(s+) <= n sqrt(1 - 1/omega - 1/omega^2)",
        lhs=_sqrt_splus,
        # omega = 1 makes the radicand negative while s+ = 0; clamping at 0
        # keeps the edgeless case a 0 <= 0 equality.
        rhs=lambda c, r: c.n
        * np.sqrt(np.maximum(0.0, 1.0 - 1.0 / c.omega - 1.0 / (c.omega * c.omega))),
    ),
    CatalogueEntry(
        "splus_half_local", THEOREM, "sqrt(s+) <= sum_v (1 - 1/(2c(v)))",
        lhs=_sqrt_splus,
        rhs=lambda c, r: c.sum_cv_half,
    ),
    CatalogueEntry(
        "splus_regular_local", THEOREM,
        "sqrt(s+) <= sum_v (1 - 1/(2c(v)-2))  [regular, no isolated vertices]",
        lhs=_sqrt_splus,
        rhs=lambda c, r: c.sum_cv_reg,
        hypotheses=(
            ("regular", lambda c, r: c.regular),
            ("no isolated vertices", lambda c, r: c.min_cv >= 2),
        ),
    ),
    CatalogueEntry(
        "bn", CONJECTURE, "lambda1^2 + lambda2^2 <= 2m(1 - 1/omega)  [G != K_n]",
        lhs=_bn_lhs,
        rhs=_two_m_omega,
        hypotheses=(_NOT_COMPLETE,),
    ),
    CatalogueEntry(
        "local_bn", CONJECTURE,
        "lambda1^2 + lambda2^2 <= sum_e 2(1 - 1/c(e))  [G != K_n]",
        lhs=_bn_lhs,
        rhs=lambda c, r: c.sum_ce_local,
        hypotheses=(_NOT_COMPLETE,),
    ),
    CatalogueEntry(
        "bn_triangle", THEOREM,
        "lambda1^2 + lambda2^2 < m + (3t)^(2/3)  [t >= 1]",
        lhs=_bn_lhs,
        rhs=lambda c, r: c.m + (3.0 * c.t) ** (2.0 / 3.0),
        # Stars attain lambda1^2 + lambda2^2 = m with t = 0, so the strict
        # form needs at least one triangle.
        hypotheses=(("t >= 1", lambda c, r: c.t >= 1),),
        strict=True,
    ),
    CatalogueEntry(
        "bn_triangle_diamond", THEOREM,
        "lambda1^2 + lambda2^2 <= m + (3t/sqrt(2))^(2/3)  [diamond-free, G != K_n]",
        lhs=_bn_lhs,
        rhs=lambda c, r: c.m + (3.0 / np.sqrt(2.0) * c.t) ** (2.0 / 3.0),
        hypotheses=(_DIAMOND_FREE, _NOT_COMPLETE),
    ),
    CatalogueEntry(
        "local_bn_diamond", THEOREM,
        "lambda1^2 + lambda2^2 <= sum_e 2(1 - 1/c(e))  "
        "[diamond-free, t not in {1,2,3,4}, G != K_n]",
        lhs=_bn_lhs,
        rhs=lambda c, r: c.sum_ce_local,
        hypotheses=(
            _DIAMOND_FREE,
            ("t not in {1,2,3,4}", lambda c, r: (c.t < 1) | (c.t > 4)),
            _NOT_COMPLETE,
        ),
    ),
    CatalogueEntry(
        "bn_diamond", THEOREM,
        "lambda1^2 + lambda2^2 <= 2m(1 - 1/omega)  [diamond-free, G != K_n]",
        lhs=_bn_lhs,
        rhs=_two_m_omega,
        hypotheses=(_DIAMOND_FREE, _NOT_COMPLETE),
    ),
    CatalogueEntry(
        "triangle_lower_s_minus", THEOREM, "lambda1(lambda1^2 - s-)/6 <= t",
        lhs=lambda c, r: c.lam1 * (c.lam1 * c.lam1 - c.s_minus) / 6.0,
        rhs=lambda c, r: c.t + 0.0,
    ),
    CatalogueEntry(
        "triangle_lower_bn", THEOREM, "lambda1(lambda1^2 - m)/3 <= t",
        lhs=lambda c, r: c.lam1 * (c.lam1 * c.lam1 - c.m) / 3.0,
        rhs=lambda c, r: c.t + 0.0,
    ),
    CatalogueEntry(
        "wilf_diamond_free", THEOREM,
        "sqrt(s+) <= sum_v (1 - 1/c(v))  [diamond-free, n >= 42]",
        lhs=_sqrt_splus,
        rhs=lambda c, r: c.sum_cv_wilf,
        hypotheses=(_DIAMOND_FREE, ("n >= 42", lambda c, r: c.n >= 42)),
    ),
    CatalogueEntry(
        "walk_nikiforov", THEOREM, "lambda1^r <= w_r(G)(1 - 1/omega)",
        lhs=lambda c, r: c.lam1**r,
        rhs=lambda c, r: c.walk_total(r) * (1.0 - 1.0 / c.omega),
        walk=True,
    ),
    CatalogueEntry(
        "walk_local_mixed", THEOREM,
        "lambda1^r <= (sum_v w_r(v) sqrt(1 - 1/c(v))) sqrt(1 - 1/omega)",
        lhs=lambda c, r: c.lam1**r,
        rhs=lambda c, r: c.walk_sqrt_sum(r) * np.sqrt(1.0 - 1.0 / c.omega),
        walk=True,
    ),
    CatalogueEntry(
        "walk_local_conj", CONJECTURE, "lambda1^r <= sum_v w_r(v)(1 - 1/c(v))",
        lhs=lambda c, r: c.lam1**r,
        rhs=lambda c, r: c.walk_conj_sum(r),
        walk=True,
    ),
    CatalogueEntry(
        "walk_recursion", THEOREM,
        "w_2r(G) <= (sum_v w_r(v) sqrt(1 - 1/c(v)))^2",
        lhs=lambda c, r: c.walk_total(2 * r),
        rhs=lambda c, r: c.walk_sqrt_sum(r) ** 2,
        walk=True,
    ),
)

_BY_BASE = {e.base: e for e in CATALOGUE}
_ID_RE = re.compile(r"^([a-z0-9_]+)(?:\((\d+)\))?$")


def catalogue_entry(base: str) -> CatalogueEntry:
    if base not in _BY_BASE:
        known = ", ".join(e.base for e in CATALOGUE)
        raise KeyError(f"unknown check {base!r}; catalogue: {known}")
    return _BY_BASE[base]


def parse_check_id(check_id: str) -> tuple[CatalogueEntry, int | None]:
    m = _ID_RE.match(check_id.strip())
    if not m:
        raise KeyError(f"malformed check id {check_id!r}")
    entry = catalogue_entry(m.group(1))
    r = int(m.group(2)) if m.group(2) else None
    if entry.walk:
        if r is None:
            raise KeyError(f"{entry.base} needs a walk length, e.g. {entry.base}(3)")
        if not 1 <= r <= WALK_R_MAX:
            raise KeyError(f"walk length {r} outside [1, {WALK_R_MAX}]")
    elif r is not None:
        raise KeyError(f"{entry.base} takes no walk length")
    return entry, r


def expand_check_ids(
    spec: str | Sequence[str],
    walk_rs: Iterable[int] = DEFAULT_WALK_RS,
) -> list[str]:
    """Resolve a check selection into concrete ids in catalogue order.

    ``spec`` is 'all', 'theorems', 'conjectures', or an explicit list of ids
    (walk families without an explicit r expand over ``walk_rs``).
    """
    walk_rs = tuple(walk_rs)
    if isinstance(spec, str):
        spec = [s for s in spec.split(",") if s.strip()]
    out: list[str] = []

    def add_entry(entry, r=None):
        if entry.walk and r is None:
            out.extend(entry.id_for(rr) for rr in walk_rs)
        else:
            out.append(entry.id_for(r))

    for item in spec:
        item = item.strip()
        if item in ("all", "theorems", "conjectures"):
            want = None if item == "all" else (THEOREM if item == "theorems" else CONJECTURE)
            for entry in CATALOGUE:
                if want is None or entry.kind == want:
                    add_entry(entry)
        else:
            entry, r = parse_check_id(item)
            add_entry(entry, r)
    seen = set()
    ordered = []
    for cid in out:
        if cid not in seen:
            seen.add(cid)
            ordered.append(cid)
    key = {e.base: i for i, e in enumerate(CATALOGUE)}

    def sort_key(cid):
        entry, r = parse_check_id(cid)
        return (key[entry.base], r or 0)

    return sorted(ordered, key=sort_key)


def evaluate_entry(entry: CatalogueEntry, ctx, r: int | None):
    """(lhs, rhs, applicable) of one check on a context: scalars for one graph,
    arrays with a row per graph for a chunk."""
    return entry.lhs(ctx, r), entry.rhs(ctx, r), entry.applicable(ctx, r)


def result_notes(entry: CatalogueEntry, failed: Sequence[str], connected: bool,
                 exact_cliques: bool, holds: bool) -> str:
    """The ``notes`` of one result; every violation record carries the same."""
    notes = []
    if failed:
        notes.append("hypothesis failed: " + ", ".join(failed))
    if entry.base in ("bn", "local_bn", "local_bn_diamond") and not connected:
        notes.append("disconnected input")
    if entry.strict:
        notes.append("strict inequality")
    if not exact_cliques:
        notes.append("clique numbers are greedy lower bounds")
        if not holds:
            notes.append("violation unconfirmed (bound side under-reported)")
    return "; ".join(notes)


def check(check_id: str, g: Graph, context: GraphContext | None = None, tol: Tolerances = DEFAULT_TOL) -> InequalityResult:
    """Evaluate one catalogue check on one graph."""
    entry, r = parse_check_id(check_id)
    ctx = context if context is not None else GraphContext(g)
    lhs, rhs, applicable = evaluate_entry(entry, ctx, r)
    lhs, rhs = float(lhs), float(rhs)
    slack, holds, equality = tol.verdict(lhs, rhs, entry.strict)
    failed = [] if applicable else entry.failed_hypotheses(ctx, r)
    return InequalityResult(
        id=entry.id_for(r),
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        holds=bool(holds),
        applicable=bool(applicable),
        equality=bool(equality),
        notes=result_notes(entry, failed, bool(ctx.connected), ctx.exact_cliques, bool(holds)),
    )


def check_all(
    g: Graph,
    ids: str | Sequence[str] = "all",
    walk_rs: Iterable[int] = DEFAULT_WALK_RS,
    context: GraphContext | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> list[InequalityResult]:
    """Evaluate a check selection on one graph, in catalogue order."""
    ctx = context if context is not None else GraphContext(g)
    return [check(cid, g, ctx, tol) for cid in expand_check_ids(ids, walk_rs)]


def weighted_edge_local_check(
    g: Graph,
    weights: dict[tuple[int, int], float],
    tol: Tolerances = DEFAULT_TOL,
) -> InequalityResult:
    """lambda1(W)^2 against sum_e 2(1 - 1/c(e)) w(e)^2 for given weights."""
    ctx = GraphContext(g)
    ctx.w_lam1 = np.float64(spectra.weighted_spectral_radius(g, weights))
    w = np.array([weights.get((u, v), weights.get((v, u), 0.0)) for u, v in g.edges])
    if np.any(w < 0):
        raise ValueError("negative weight")
    ctx.sum_ce_local_w = edge_local_sum(np.array(ctx.profile.c_e, dtype=np.float64), w)
    return check("weighted_edge_local_turan", g, ctx, tol)


# ---------------------------------------------------------------------------
# Majorization utilities
# ---------------------------------------------------------------------------


def _padded_desc(x, y):
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    n = max(len(x), len(y))
    xd = np.sort(np.pad(x, (0, n - len(x))))[::-1]
    yd = np.sort(np.pad(y, (0, n - len(y))))[::-1]
    return xd, yd


def weak_majorizes(x, y, tol: float = 0.0) -> bool:
    """True iff y is weakly majorized by x (y prec_w x).

    Vectors of unequal length are zero-padded on the right before the
    descending rearrangement.
    """
    xd, yd = _padded_desc(x, y)
    return bool(np.all(np.cumsum(yd) <= np.cumsum(xd) + tol))


def p_norm(x, p: float) -> float:
    if p <= 0:
        raise ValueError("p-norm needs p > 0")
    x = np.abs(np.asarray(x, dtype=np.float64))
    return float(np.sum(x**p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Edge-weight CSV: header "u,v,w", one undirected edge per line.
# ---------------------------------------------------------------------------


def load_weight_csv(lines: Iterable[str]) -> dict[tuple[int, int], float]:
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty weight CSV") from None
    if [h.strip().lower() for h in header] != ["u", "v", "w"]:
        raise ValueError('weight CSV header must be "u,v,w"')
    weights: dict[tuple[int, int], float] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ValueError(f"line {lineno}: expected u,v,w")
        u, v, w = int(row[0]), int(row[1]), float(row[2])
        if u == v:
            raise ValueError(f"line {lineno}: loop edge ({u}, {v})")
        if w < 0:
            raise ValueError(f"line {lineno}: negative weight {w}")
        key = (min(u, v), max(u, v))
        if key in weights:
            raise ValueError(f"line {lineno}: duplicate edge {key}")
        weights[key] = w
    return weights
