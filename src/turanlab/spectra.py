"""Adjacency spectra and spectrum-derived quantities.

Eigenvalues come from LAPACK's symmetric solver (Householder
tridiagonalization plus implicit-shift QL/QR under the hood, via
``numpy.linalg``).  Sign classification for the square energies uses a
relative threshold: eigenvalues within SIGN_RTOL * max(1, lambda1) of zero
join neither s+ nor s-.

Walk counts are exact integers, never floating matrix powers.  One step,
``walk_step``, computes w_{r+1} = A w_r for one graph or a whole chunk as a
uint64 matmul: channel 0 is exact mod 2^64, which covers every chunk order
n <= 11 up to w_20, and larger bounds add residue channels modulo primes
just under 2^31.  ``walk_ints`` rebuilds the exact integers by the Chinese
remainder theorem, and ``walk_floats`` rounds them to float64 as
``float(int)`` does.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
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


# Exact walk counts are held in residue channels: channel 0 is uint64, so it
# is w mod 2^64, and channel i >= 1 is w mod WALK_PRIMES[i - 1].  A prime
# residue times a 0/1 row sums to below n * 2^31 <= 2^43, so uint64 never
# wraps on those channels.  Six primes give a capacity of about 2^250, past
# every catalogue walk at MAX_ORDER (w_r with r <= 20: 4095^19 < 2^228).
WALK_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549)
# _CAPACITY[k]: every integer below it is told apart by channel 0 and k primes.
_CAPACITY = tuple(accumulate((1 << 64,) + WALK_PRIMES, operator.mul))
# Cells of one block of adjacency rows cast to uint64 inside a walk step
# (1 MB), so a large graph's uint8 adjacency never gets a full uint64 copy.
_BLOCK_CELLS = 1 << 17


class Walks(NamedTuple):
    """Exact w_r of one graph, or of one graph per leading row.

    ``res[..., v, 0]`` is w_r(v) mod 2^64 and ``res[..., v, i]`` is
    w_r(v) mod ``WALK_PRIMES[i - 1]``; no entry exceeds
    ``bound`` = ``deg_max``^(r - 1), and the channels always cover it.
    """

    res: np.ndarray
    bound: int
    deg_max: int


def walk_start(a: np.ndarray, deg_max: int) -> Walks:
    """w_1 = 1 for the 0/1 adjacency ``a`` of shape (..., n, n), whose
    largest degree (over every graph it holds) is ``deg_max``."""
    return Walks(np.ones(a.shape[:-1] + (1,), dtype=np.uint64), 1, deg_max)


def walk_step(a: np.ndarray, w: Walks) -> Walks:
    """w_{r+1} = A w_r, exact: one uint64 matmul over every channel.

    A prime channel is added once the bound deg_max^r leaves what the
    channels so far can tell apart; past the product of all the moduli the
    step raises ``OverflowError``.  ``a`` is cast to uint64 a block of rows
    at a time (a uint64 ``a`` is not copied).
    """
    bound = w.bound * w.deg_max
    res = _with_primes(w, _primes_needed(bound))
    nxt = np.empty(a.shape[:-1] + res.shape[-1:], dtype=np.uint64)
    rows = max(1, _BLOCK_CELLS // a.shape[-1])
    for i in range(0, a.shape[-2], rows):
        np.matmul(a[..., i:i + rows, :].astype(np.uint64, copy=False), res,
                  out=nxt[..., i:i + rows, :])
    k = nxt.shape[-1] - 1
    if k:
        nxt[..., 1:] %= np.array(WALK_PRIMES[:k], dtype=np.uint64)
    return Walks(nxt, bound, w.deg_max)


def _primes_needed(bound: int) -> int:
    for k, cap in enumerate(_CAPACITY):
        if bound < cap:
            return k
    raise OverflowError(f"walk counts up to {bound.bit_length()} bits exceed the "
                        f"{_CAPACITY[-1].bit_length()}-bit product of the residue moduli")


def _with_primes(w: Walks, k: int) -> np.ndarray:
    """w.res with at least k prime channels, new ones from the exact counts."""
    have = w.res.shape[-1] - 1
    if k <= have:
        return w.res
    exact = walk_ints(w)
    extra = np.stack([exact % p for p in WALK_PRIMES[have:k]], axis=-1).astype(np.uint64)
    return np.concatenate([w.res, extra], axis=-1)


@lru_cache(maxsize=None)
def _crt_weights(k: int) -> np.ndarray:
    """e_i with e_i = 1 mod m_i and 0 mod the other moduli (2^64 and k primes)."""
    total = _CAPACITY[k]
    moduli = (1 << 64,) + WALK_PRIMES[:k]
    return np.array([total // m * pow(total // m, -1, m) for m in moduli], dtype=object)


def walk_ints(w: Walks) -> np.ndarray:
    """The exact w_r as Python ints (an object array), rebuilt by CRT."""
    k = w.res.shape[-1] - 1
    return (w.res.astype(object) * _crt_weights(k)).sum(axis=-1) % _CAPACITY[k]


def walk_floats(w: Walks) -> np.ndarray:
    """w_r as float64, each entry rounded as ``float(int)`` rounds it."""
    if w.res.shape[-1] == 1:
        # The bound is below 2^64, so channel 0 is the count itself.
        return w.res[..., 0].astype(np.float64)
    return walk_ints(w).astype(np.float64)


@dataclass(frozen=True)
class WalkTable:
    """Exact per-vertex counts of walks with r vertices (r-1 edges)."""

    r: int
    per_vertex: tuple[int, ...]
    total: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total", sum(self.per_vertex))


def walk_counts(g: Graph, r: int) -> WalkTable:
    """w_r(v) for every vertex: r - 1 exact steps of ``walk_step``."""
    if r < 1:
        raise ValueError("walks need r >= 1")
    a = g.dense(np.uint8)
    w = walk_start(a, max(g.degrees))
    for _ in range(r - 1):
        w = walk_step(a, w)
    return WalkTable(r, tuple(walk_ints(w).tolist()))


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
