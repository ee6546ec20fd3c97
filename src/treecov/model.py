"""Mean-zero Gaussian likelihood over tree-structured covariance matrices.

Observations are i.i.d. ``N_p(0, S)`` with ``S`` strictly ultrametric.  The
likelihood only ever reads the sample count and the scatter matrix
``sum_i x_i x_i^T``, so those are carried as sufficient statistics.  The
gradient with respect to each stored edge length ``d_j`` (indicator vector
``v_j``) is

    d loglik / d d_j = -(n/2) v_j' S^-1 v_j + (1/2) v_j' S^-1 A S^-1 v_j,

where ``A`` is the scatter matrix; one factorization serves all coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from .errors import (
    DataError,
    DimensionError,
    InvalidArgumentError,
    NotPositiveDefiniteError,
)
from .rng import RngStream
from .treespace import Split, Tree
from .ultrametric import _positions, as_matrix, tree_to_matrix

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class DataSet:
    """An ``n x p`` sample with a tag for how it was generated."""

    values: np.ndarray
    kind: str = "normal"
    df: int | None = None

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.values, dtype=float))
        if not np.all(np.isfinite(arr)):
            raise DataError("data contain non-finite entries")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SufficientStats:
    """Sample count and scatter matrix; all the likelihood ever needs."""

    n: int
    S: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.S, dtype=float).copy()
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"scatter matrix must be square, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "S", arr)
        if self.n < 0:
            raise InvalidArgumentError("sample count must be non-negative")

    @property
    def p(self) -> int:
        return self.S.shape[0]

    @classmethod
    def empty(cls, p: int) -> "SufficientStats":
        """Zero observations: the likelihood is identically zero."""
        return cls(0, np.zeros((p, p)))


def suff_stats(data: DataSet) -> SufficientStats:
    """Scatter matrix ``sum_i x_i x_i^T`` and sample count."""
    if data.n < 1:
        raise DataError("need at least one observation")
    X = data.values
    S = X.T @ X
    return SufficientStats(data.n, 0.5 * (S + S.T))


def _factor(sigma: np.ndarray):
    try:
        return cho_factor(sigma, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"covariance matrix is not numerically positive definite ({exc})"
        ) from exc


def gaussian_loglik(stats: SufficientStats, m) -> float:
    """Exact mean-zero Gaussian log likelihood at a covariance matrix.

    Computed as ``-(np/2) log 2pi - (n/2) logdet(m) - tr(m^-1 S) / 2`` from
    one symmetric factorization.  Raises ``NotPositiveDefiniteError`` when
    the factorization fails.
    """
    if stats.n == 0:
        return 0.0
    arr = as_matrix(m)
    if arr.shape[0] != stats.p:
        raise DimensionError(f"matrix is {arr.shape[0]}x, data are {stats.p}-variate")
    cf = _factor(arr)
    logdet = 2.0 * float(np.sum(np.log(np.diag(cf[0]))))
    quad = float(np.trace(cho_solve(cf, stats.S, check_finite=False)))
    n, p = stats.n, stats.p
    return -0.5 * (n * p * LOG_2PI + n * logdet + quad)


def split_gradient(stats: SufficientStats, sigma: np.ndarray,
                   masks) -> np.ndarray:
    """Log-likelihood gradient in the length of each split bitmask at ``sigma``.

    Entry ``j`` is ``-(n/2) v' W v + (1/2) v' W A W v`` for the indicator
    ``v`` of ``masks[j]``, with ``W = sigma^-1`` from one factorization.
    Raises ``NotPositiveDefiniteError`` when the factorization fails.
    """
    cf = _factor(sigma)
    p = sigma.shape[0]
    W = cho_solve(cf, np.eye(p), check_finite=False)
    G = W @ stats.S @ W
    out = np.empty(len(masks))
    for j, m in enumerate(masks):
        idx = _positions(p, m)
        block = np.ix_(idx, idx)
        out[j] = -0.5 * stats.n * float(W[block].sum()) + 0.5 * float(G[block].sum())
    return out


def loglik_gradient(stats: SufficientStats, t: Tree) -> dict[Split, float]:
    """Gradient of the log likelihood in every stored edge-length coordinate.

    Keys are splits: singletons for leaf edges, the full set for the root
    edge, and the internal splits.  All lengths must be strictly positive.
    """
    splits = [s for s, _length in t.coordinates()]
    grad = split_gradient(stats, tree_to_matrix(t).values, [s.mask for s in splits])
    return {s: float(g) for s, g in zip(splits, grad)}


def sample_gaussian(m, n: int, rng: RngStream) -> DataSet:
    """Draw ``n`` i.i.d. mean-zero Gaussian rows with the given covariance."""
    if n < 1:
        raise InvalidArgumentError(f"need n >= 1, got {n}")
    arr = as_matrix(m)
    try:
        L = np.linalg.cholesky(arr)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    Z = rng.generator.normal(size=(n, arr.shape[0]))
    return DataSet(Z @ L.T, kind="normal")


def sample_t(m, df: int, n: int, rng: RngStream) -> DataSet:
    """Draw multivariate-t rows: Gaussian numerator over a chi-square scale.

    Each row is ``z * sqrt(df / w)`` with ``z ~ N_p(0, m)`` and
    ``w ~ chi2(df)``; the population covariance is ``m * df / (df - 2)``.
    The chi-square draw is a sum of ``df`` squared normals, which keeps the
    draw sequence exactly reproducible.
    """
    if df < 3:
        raise InvalidArgumentError(f"need df >= 3, got {df}")
    if df > 64:
        raise InvalidArgumentError("df above 64 is not supported")
    if n < 1:
        raise InvalidArgumentError(f"need n >= 1, got {n}")
    arr = as_matrix(m)
    try:
        L = np.linalg.cholesky(arr)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    Z = rng.generator.normal(size=(n, arr.shape[0]))
    w = np.sum(rng.generator.normal(size=(n, df)) ** 2, axis=1)
    X = (Z @ L.T) * np.sqrt(df / w)[:, None]
    return DataSet(X, kind=f"t{df}", df=df)
