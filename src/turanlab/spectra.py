"""Adjacency spectra and spectrum-derived quantities.

Eigenvalues come from LAPACK's symmetric solver (Householder
tridiagonalization plus implicit-shift QL/QR under the hood, via
``numpy.linalg``).  Sign classification for the square energies uses a
relative threshold: eigenvalues within ``sign_threshold`` of zero join
neither s+ nor s-.

Walk counts are kept in exact integer arithmetic (w_{r+1}(v) is the plain
neighbor sum of w_r), never floating matrix powers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph

DEFAULT_SIGN_RTOL = 1e-8
RESIDUAL_RTOL = 1e-8


class SpectralError(RuntimeError):
    """Eigensolver failure; message carries a fingerprint of the matrix."""


@dataclass(frozen=True)
class Spectrum:
    """Real adjacency spectrum, sorted descending, with square energies."""

    eigenvalues: np.ndarray
    sign_threshold: float
    s_plus: float
    s_minus: float
    n_plus: int
    n_minus: int

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda2(self) -> float:
        # Single-vertex graphs have no second eigenvalue; 0 keeps the
        # two-eigenvalue bounds well-defined (and exact: lhs is then lam1^2).
        return float(self.eigenvalues[1]) if self.n >= 2 else 0.0

    def power_sum(self, p: int = 3) -> float:
        return float(np.sum(self.eigenvalues**p))


def _fingerprint(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def classify(eigs_desc: np.ndarray, sign_threshold: float) -> tuple[float, float, int, int]:
    """(s_plus, s_minus, n_plus, n_minus) under the given zero threshold."""
    pos = eigs_desc > sign_threshold
    neg = eigs_desc < -sign_threshold
    s_plus = float(np.sum(eigs_desc[pos] ** 2))
    s_minus = float(np.sum(eigs_desc[neg] ** 2))
    return s_plus, s_minus, int(pos.sum()), int(neg.sum())


def eigenvalues(
    g: Graph | np.ndarray,
    sign_rtol: float = DEFAULT_SIGN_RTOL,
    verify: bool = True,
) -> Spectrum:
    """Full real spectrum of the adjacency matrix, descending.

    With ``verify`` the solver recomputes eigenvectors and checks the
    residual ||A v - lambda v|| <= 1e-8 * max(1, |lambda1|) on sampled
    eigenpairs.
    """
    a = g.dense(np.float64) if isinstance(g, Graph) else np.asarray(g, dtype=np.float64)
    try:
        if verify:
            vals, vecs = np.linalg.eigh(a)
        else:
            vals = np.linalg.eigvalsh(a)
            vecs = None
    except np.linalg.LinAlgError as exc:
        raise SpectralError(
            f"eigensolver did not converge (matrix fingerprint {_fingerprint(a)})"
        ) from exc
    lam1 = float(vals[-1]) if len(vals) else 0.0
    if vecs is not None and len(vals) > 1:
        tol = RESIDUAL_RTOL * max(1.0, abs(lam1))
        idx = sorted({0, len(vals) // 2, len(vals) - 1})
        for i in idx:
            res = np.linalg.norm(a @ vecs[:, i] - vals[i] * vecs[:, i])
            if res > tol:
                raise SpectralError(
                    f"residual {res:.3e} exceeds {tol:.3e} "
                    f"(matrix fingerprint {_fingerprint(a)})"
                )
    desc = vals[::-1].copy()
    thr = sign_rtol * max(1.0, lam1)
    s_plus, s_minus, n_plus, n_minus = classify(desc, thr)
    return Spectrum(desc, thr, s_plus, s_minus, n_plus, n_minus)


def square_energies(s: Spectrum) -> tuple[float, float]:
    """Recompute (s_plus, s_minus) from the stored eigenvalues."""
    sp, sm, _, _ = classify(s.eigenvalues, s.sign_threshold)
    return sp, sm


def power_sum(s: Spectrum, p: int = 3) -> float:
    if p < 1:
        raise ValueError("power sum needs p >= 1")
    return s.power_sum(p)


@dataclass(frozen=True)
class WalkTable:
    """Exact per-vertex counts of walks with r vertices (r-1 edges)."""

    r: int
    per_vertex: tuple[int, ...]
    total: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total", sum(self.per_vertex))


def walk_counts(g: Graph, r: int) -> WalkTable:
    """w_r(v) for every vertex: repeated exact neighbor-sum accumulation."""
    if r < 1:
        raise ValueError("walks need r >= 1")
    w = [1] * g.n
    for _ in range(r - 1):
        w = walk_step(g, w)
    return WalkTable(r, tuple(w))


def walk_step(g: Graph, w) -> list[int]:
    """w_{r+1}(v) = sum of w_r over the neighbors of v, in exact integers."""
    nxt = []
    for v in range(g.n):
        acc = 0
        rest = g.adj[v]
        while rest:
            b = rest & -rest
            acc += w[b.bit_length() - 1]
            rest ^= b
        nxt.append(acc)
    return nxt


def weighted_adjacency(g: Graph, weights: dict[tuple[int, int], float]) -> np.ndarray:
    """Symmetric weighted adjacency; weights indexed by (u, v) with u < v.

    Edges of g missing from the map default to weight 0; pairs that are not
    edges of g are rejected.
    """
    a = np.zeros((g.n, g.n))
    for (u, v), w in weights.items():
        if u > v:
            u, v = v, u
        if not g.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is not an edge of the graph")
        if w < 0:
            raise ValueError(f"negative weight {w} on edge ({u}, {v})")
        a[u, v] = a[v, u] = w
    return a


def weighted_spectral_radius(g: Graph, weights: dict[tuple[int, int], float]) -> float:
    """lambda_1 of the weighted adjacency matrix (nonnegative weights)."""
    a = weighted_adjacency(g, weights)
    try:
        vals = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(
            f"eigensolver did not converge (matrix fingerprint {_fingerprint(a)})"
        ) from exc
    return float(vals[-1])
