"""Adjacency spectra and spectrum-derived quantities.

Eigenvalues come from LAPACK's symmetric solver (Householder
tridiagonalization plus implicit-shift QL/QR under the hood, via
``numpy.linalg``).  Sign classification for the square energies uses a
relative threshold: eigenvalues within SIGN_RTOL * max(1, lambda1) of zero
join neither s+ nor s-.

Walk counts are kept in exact integer arithmetic (w_{r+1}(v) is the plain
neighbor sum of w_r), never floating matrix powers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .graph import Graph

SIGN_RTOL = 1e-8
RESIDUAL_RTOL = 1e-8


class SpectralError(RuntimeError):
    """Eigensolver failure; message carries a fingerprint of the matrix."""


class SpectralFields(NamedTuple):
    lam1: np.ndarray
    lam2: np.ndarray
    s_plus: np.ndarray
    s_minus: np.ndarray


def sign_masks(desc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues above and below the zero band |x| <= SIGN_RTOL * max(1, lambda1)."""
    thr = SIGN_RTOL * np.maximum(1.0, desc[..., :1])
    return desc > thr, desc < -thr


def spectral_fields(desc: np.ndarray) -> SpectralFields:
    """lambda1, lambda2, s+ and s- of descending eigenvalues, over the last axis.

    ``desc`` is one spectrum (1-D) or one spectrum per row (2-D); both reduce
    with the same masked sum, so a batch row and a single graph agree bit for
    bit.
    """
    pos, neg = sign_masks(desc)
    sq = desc * desc
    # Single-vertex graphs have no second eigenvalue; 0 keeps the
    # two-eigenvalue bounds well-defined (and exact: lhs is then lam1^2).
    lam2 = desc[..., 1] if desc.shape[-1] >= 2 else np.zeros(desc.shape[:-1])[()]
    return SpectralFields(desc[..., 0], lam2,
                          np.sum(sq, axis=-1, where=pos), np.sum(sq, axis=-1, where=neg))


@dataclass(frozen=True)
class Spectrum:
    """Real adjacency spectrum, sorted descending, with square energies."""

    eigenvalues: np.ndarray

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda2(self) -> float:
        return float(spectral_fields(self.eigenvalues).lam2)

    @property
    def s_plus(self) -> float:
        return float(spectral_fields(self.eigenvalues).s_plus)

    @property
    def s_minus(self) -> float:
        return float(spectral_fields(self.eigenvalues).s_minus)

    @property
    def n_plus(self) -> int:
        return int(sign_masks(self.eigenvalues)[0].sum())

    @property
    def n_minus(self) -> int:
        return int(sign_masks(self.eigenvalues)[1].sum())

    def power_sum(self, p: int = 3) -> float:
        return float(np.sum(self.eigenvalues**p))


def _fingerprint(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def eigenvalues(g: Graph | np.ndarray, verify: bool = True) -> Spectrum:
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
    if vecs is not None and len(vals) > 1:
        tol = RESIDUAL_RTOL * max(1.0, abs(float(vals[-1])))
        idx = sorted({0, len(vals) // 2, len(vals) - 1})
        for i in idx:
            res = np.linalg.norm(a @ vecs[:, i] - vals[i] * vecs[:, i])
            if res > tol:
                raise SpectralError(
                    f"residual {res:.3e} exceeds {tol:.3e} "
                    f"(matrix fingerprint {_fingerprint(a)})"
                )
    return Spectrum(vals[::-1].copy())


def square_energies(s: Spectrum) -> tuple[float, float]:
    """Recompute (s_plus, s_minus) from the stored eigenvalues."""
    return s.s_plus, s.s_minus


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
