"""Nonnegative matrix factorization by Euclidean multiplicative updates.

Factorizes a nonnegative matrix x (n x m) into w (n x r) and h (m x r)
with x ~= w @ h.T, minimizing the Frobenius reconstruction error under
nonnegativity constraints. Uses the classical multiplicative update rule
of Lee & Seung (2001), which keeps both factors nonnegative and never
increases the objective.

From rank 2 on, X and W sit side by side in one column-major n x (m + r)
buffer, so that one GEMM, [X | W]^T W, gives both X^T W (its first m rows)
and W^T W (its last r rows); numpy would otherwise form W^T W with syrk,
which is slower than a GEMM of the same shape. Every n x r array of the
loop shares the buffer's layout. At rank 1 numpy forms these products as
matrix-vector and dot products, whose rounding the GEMM does not
reproduce, so rank 1 keeps the plain products.

Each iteration's loss comes from the trace identity (Gillis & Glineur,
2012)

    ||X - W H^T||^2 = ||X||^2 - 2 <X^T W, H> + <W^T W, H^T H>,

with ||X||^2 computed once per solve and X^T W, W^T W and H^T H taken from
the updates, which form them anyway (X^T W and W^T W of the new W are the
next H update's). That costs O((n + m) r^2) per iteration instead of the
O(n m r) of the explicit residual. Where the identity's value is at most
1e-5 ||X||^2 (a near-exact fit, or the zero matrix), cancellation would
cost it too many digits, and that entry comes from the explicit residual
instead. The initial loss is always explicit. The updates are the plain
rule's, so factors and iteration counts do not depend on how the loss is
computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidRankError, NonFiniteError, NonNegativityError
from .ingest import NormalizedMatrix

# Lower clamp for update-rule denominators; avoids division by zero on
# zero rows/columns without perturbing healthy entries.
_DENOM_FLOOR = 1e-12

# At or below this fraction of ||X||^2 the loss comes from the explicit
# residual. The identity's three terms each carry rounding error of a few
# ulps of ||X||^2, so above the floor the loss keeps a relative error under
# about 1e-10; at 1e-6 it reached 8e-10 on random exact low-rank inputs.
_IDENTITY_FLOOR = 1e-5

INIT_RANDOM = "random"
INIT_NNDSVD = "nndsvd"

# The cosine similarity at which two periods' patterns match
# (patterns.match_patterns). It lives in this module, which every command
# loads, so that the CLI's settings table need not load patterns.py, which
# imports it from here.
DEFAULT_MATCH_THRESHOLD = 0.80


@dataclass(frozen=True)
class NmfConfig:
    """Solver settings: rank, iteration budget, stopping tolerance, init scheme."""

    rank: int
    max_iters: int = 500
    tol: float = 1e-5
    seed: int = 0
    init: str = INIT_RANDOM

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise InvalidRankError(f"rank must be >= 1, got {self.rank}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.tol > 0:  # also rejects NaN
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.init not in (INIT_RANDOM, INIT_NNDSVD):
            raise ValueError(f"unknown init scheme {self.init!r}")

    def at_rank(self, rank: int) -> NmfConfig:
        """These settings at `rank`, seeded with seed + rank.

        Every rank draws its own start, and a fixed-rank solve reproduces
        the rank scan's solve at that rank.
        """
        return replace(self, rank=rank, seed=self.seed + rank)


@dataclass
class FactorPair:
    """Factorization result: location loadings w, time loadings h, diagnostics.

    objective_trace[0] is the loss at initialization, followed by one entry
    per multiplicative-update iteration; it is non-increasing.
    """

    w: np.ndarray
    h: np.ndarray
    objective_trace: list[float] = field(default_factory=list)
    converged: bool = False
    iterations_run: int = 0

    @property
    def rank(self) -> int:
        return self.w.shape[1]

    def reconstruct(self) -> np.ndarray:
        return self.w @ self.h.T


def _random_init(x: np.ndarray, rank: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    # Uniform in (0, 1] so no entry starts frozen at zero, scaled so the
    # initial product is on the same order as the data.
    rng = np.random.default_rng(seed)
    scale = np.sqrt(x.mean() / rank)
    w = (1.0 - rng.random((x.shape[0], rank))) * scale
    h = (1.0 - rng.random((x.shape[1], rank))) * scale
    return w, h


def _nndsvd_init(x: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Nonnegative double SVD initialization (Boutsidis & Gallopoulos, 2008).

    Deterministic. Zero entries are filled with the data mean (the "a"
    variant) because exact zeros never move under multiplicative updates.
    """
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    n, m = x.shape
    w = np.zeros((n, rank))
    h = np.zeros((m, rank))

    w[:, 0] = np.sqrt(s[0]) * np.abs(u[:, 0])
    h[:, 0] = np.sqrt(s[0]) * np.abs(vt[0, :])

    for j in range(1, rank):
        uj, vj = u[:, j], vt[j, :]
        up, un = np.maximum(uj, 0.0), np.maximum(-uj, 0.0)
        vp, vn = np.maximum(vj, 0.0), np.maximum(-vj, 0.0)
        up_n, un_n = np.linalg.norm(up), np.linalg.norm(un)
        vp_n, vn_n = np.linalg.norm(vp), np.linalg.norm(vn)
        mp, mn = up_n * vp_n, un_n * vn_n
        if mp >= mn:
            if mp == 0.0:
                continue
            sigma = np.sqrt(s[j] * mp)
            w[:, j] = sigma * up / up_n
            h[:, j] = sigma * vp / vp_n
        else:
            sigma = np.sqrt(s[j] * mn)
            w[:, j] = sigma * un / un_n
            h[:, j] = sigma * vn / vn_n

    fill = x.mean()
    if fill > 0:
        w[w == 0] = fill
        h[h == 0] = fill
    return w, h


def factorize(x: NormalizedMatrix | np.ndarray, cfg: NmfConfig) -> FactorPair:
    """Run multiplicative updates until the relative loss change drops below
    cfg.tol or cfg.max_iters is reached.

    Deterministic for a fixed input, config, and seed, whatever the input's
    memory layout. Raises InvalidRankError if cfg.rank exceeds min(n, m),
    NonFiniteError if the input has a NaN or infinite entry, and
    NonNegativityError if it has a negative entry. The returned w is
    C-contiguous and owns its data.
    """
    data = np.ascontiguousarray(x.values if isinstance(x, NormalizedMatrix) else x, dtype=float)
    n, m = data.shape
    if cfg.rank > min(n, m):
        raise InvalidRankError(f"rank {cfg.rank} exceeds min matrix dimension {min(n, m)}")
    if not np.isfinite(data).all():
        raise NonFiniteError("input matrix has NaN or infinite entries")
    if (data < 0).any():
        raise NonNegativityError("input matrix has negative entries")

    if cfg.init == INIT_NNDSVD:
        w, h = _nndsvd_init(data, cfg.rank)
    else:
        w, h = _random_init(data, cfg.rank, cfg.seed)

    x_sq = float(np.vdot(data, data))
    trace = [float(np.linalg.norm(data - w @ h.T))]
    updates = _plain_updates(data, w, h) if cfg.rank == 1 else _fused_updates(data, w, h)
    del w  # the fused kernel's copy in its buffer is then the only W alive
    converged = False
    iterations = 0
    for _ in range(cfg.max_iters):
        w, cross, gram = next(updates)
        loss_sq = x_sq - 2.0 * cross + gram
        if loss_sq > _IDENTITY_FLOOR * x_sq:
            loss = float(np.sqrt(loss_sq))
        else:
            loss = float(np.linalg.norm(data - w @ h.T))
        trace.append(loss)
        iterations += 1
        prev = trace[-2]
        if abs(prev - loss) <= cfg.tol * max(prev, _DENOM_FLOOR):
            converged = True
            break

    updates.close()  # frees the kernel's work arrays before w is copied out of its buffer
    return FactorPair(w=w.copy(), h=h, objective_trace=trace, converged=converged,
                      iterations_run=iterations)


def _plain_updates(data: np.ndarray, w: np.ndarray, h: np.ndarray):
    """The plain rule, updating w and h in place: yields, after each
    iteration, w, <W, X H> and <W^T W, H^T H>. Rank 1 takes this path."""
    wtw = w.T @ w
    while True:
        h *= (data.T @ w) / np.maximum(h @ wtw, _DENOM_FLOOR)
        xh = data @ h
        hth = h.T @ h
        w *= xh / np.maximum(w @ hth, _DENOM_FLOOR)
        wtw = w.T @ w
        yield w, float(np.vdot(w, xh)), float(np.vdot(wtw, hth))


def _fused_updates(data: np.ndarray, w: np.ndarray, h: np.ndarray):
    """The plain rule on the [X | W] buffer, updating h and the buffer's W in
    place: yields, after each iteration, the W view, <X^T W, H> and
    <W^T W, H^T H>.

    X H and the W update's denominator go into two preallocated arrays,
    column-major like the buffer: row-major ones, or temporaries in their
    place, cost more than the fused GEMM saves.
    """
    n, m = data.shape
    xw = np.empty((n, m + w.shape[1]), order="F")
    xw[:, :m] = data
    xw[:, m:] = w
    x, w = xw[:, :m], xw[:, m:]
    xh, den = np.empty_like(w, order="F"), np.empty_like(w, order="F")
    gram = xw.T @ w
    xtw, wtw = gram[:m], gram[m:]
    while True:
        h *= xtw / np.maximum(h @ wtw, _DENOM_FLOOR)
        hth = h.T @ h
        np.matmul(x, h, out=xh)
        np.matmul(w, hth, out=den)
        np.maximum(den, _DENOM_FLOOR, out=den)
        xh /= den
        w *= xh
        np.matmul(xw.T, w, out=gram)
        yield w, float(np.vdot(xtw, h)), float(np.vdot(wtw, hth))
