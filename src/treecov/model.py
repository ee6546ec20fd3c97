"""Mean-zero Gaussian likelihood over tree-structured covariance matrices.

Observations are i.i.d. ``N_p(0, S)`` with ``S`` strictly ultrametric.  The
likelihood only ever reads the sample count and the scatter matrix
``sum_i x_i x_i^T``, so those are carried as sufficient statistics.  With
``V`` the ``p x q`` indicator matrix of the stored splits (column ``v_j`` for
edge length ``d_j``), the gradient is

    d loglik / d d_j = -(n/2) v_j' S^-1 v_j + (1/2) v_j' S^-1 A S^-1 v_j,

the diagonal of one ``V' (...) V`` product, where ``A`` is the scatter matrix;
one factorization serves all coordinates.  :func:`split_gradient` takes the
split masks and lengths and builds ``V`` once, for the covariance
``V diag(d) V'`` and for the product.  ``V`` and every other covariance
come from :mod:`treecov.ultrametric`.

Changing one length by ``delta`` adds ``delta v v'`` to the covariance, so
:class:`LikelihoodKernel` keeps ``W = S^-1``, the log likelihood and each
mask's column ``v``, and prices such a move in ``O(p^2)`` by the matrix
determinant lemma and Sherman-Morrison instead of a new factorization; a
change of several lengths is as many rank-one steps.  It factorizes only
when it is refreshed from the lengths, or when a step's denominator shows
that the cached inverse cannot be trusted.  Every failed factorization
raises ``NotPositiveDefiniteError`` from :func:`_factor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError
from scipy.linalg.blas import dger

from .errors import (
    DataError,
    DimensionError,
    InvalidArgumentError,
    NotPositiveDefiniteError,
)
from .rng import RngStream
from .treespace import Split, Tree
from .ultrametric import as_matrix, split_indicators, split_matrix

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


def _cho_factor(sigma: np.ndarray):
    return cho_factor(sigma, lower=True, check_finite=False)


def _factor(sigma: np.ndarray, factor=_cho_factor):
    """``factor(sigma)``, raising ``NotPositiveDefiniteError`` when it fails.

    Every likelihood, gradient and sampling factorization goes through here.
    """
    try:
        return factor(sigma)
    except LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"covariance matrix is not numerically positive definite ({exc})"
        ) from exc


def _loglik_from_factor(stats: SufficientStats, cf) -> float:
    logdet = 2.0 * float(np.sum(np.log(np.diag(cf[0]))))
    quad = float(np.trace(cho_solve(cf, stats.S, check_finite=False)))
    n, p = stats.n, stats.p
    return -0.5 * (n * p * LOG_2PI + n * logdet + quad)


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
    return _loglik_from_factor(stats, _factor(arr))


def split_gradient(stats: SufficientStats, masks, lengths) -> np.ndarray:
    """Log-likelihood gradient in the length of each split bitmask.

    The covariance is ``sigma = V diag(lengths) V'`` for the indicator
    matrix ``V`` of ``masks``, built once for both.  Entry ``j`` is
    ``-(n/2) v' W v + (1/2) v' W A W v`` for column ``v`` of ``V``, with
    ``W = sigma^-1`` from one factorization: the diagonals of ``V'WV`` and
    ``(WV)' A (WV)``.  Raises ``NotPositiveDefiniteError`` when the
    factorization fails.
    """
    p = stats.p
    V = split_indicators(p, masks)
    # entrywise split_matrix(p, masks, lengths), from the same V
    sigma = (V * np.asarray(lengths, dtype=float)) @ V.T
    W = cho_solve(_factor(sigma), np.eye(p), check_finite=False)
    WV = W @ V
    return -0.5 * stats.n * np.einsum("ij,ij->j", V, WV) \
        + 0.5 * np.einsum("ij,ij->j", WV, stats.S @ WV)


class LikelihoodKernel:
    """The log likelihood of split coordinates, kept current under length moves.

    Caches ``W = sigma^-1`` and ``log_lik`` for the covariance
    ``sigma = V diag(d) V'`` of a ``{mask: length}`` map, and each mask's
    indicator column ``v``.  :meth:`refresh` builds ``sigma`` from the lengths
    and factorizes it; it is the only routine factorization.
    :meth:`propose` prices adding ``(mask, value)`` changes to the lengths,
    and :meth:`accept` applies the last proposal.

    A change by ``delta`` on a split with indicator ``v`` adds ``delta v v'``
    to ``sigma``.  With ``u = W v``, ``c = v'u`` and the scatter matrix ``A``,
    the determinant lemma and Sherman-Morrison give

        delta loglik = -(1/2) (n log(1 + delta c) - delta u'Au / (1 + delta c))

    in ``O(p^2)``, and accepting it downdates ``W -= delta/(1 + delta c) uu'``.
    Several changes are priced as successive rank-one steps, each on the
    ``W`` the steps before it leave; a topology swap lists the shrink first,
    so its intermediate matrix is the covariance of a tree with the edge at
    length zero, which is positive definite.  A step whose ``1 + delta c``
    is not positive and finite (a move to a matrix that is not positive
    definite, or rounding in an ill-conditioned ``W``) makes the proposal a
    full factorization of the proposed lengths, which raises
    ``NotPositiveDefiniteError`` if it fails.  Without data the likelihood
    is identically zero and nothing is built.
    """

    def __init__(self, stats: SufficientStats, lengths: dict[int, float]):
        self.stats = stats
        self.W = None
        self.log_lik = 0.0
        self.columns: dict[int, np.ndarray] = {}
        self._pending = None
        self.refresh(lengths)

    def _factor_lengths(self, lengths: dict[int, float]):
        masks = sorted(lengths)
        return _factor(split_matrix(self.stats.p, masks, [lengths[m] for m in masks]))

    def refresh(self, lengths: dict[int, float]):
        """Recompute ``W`` and ``log_lik`` from a full factorization at ``lengths``.

        The column cache keeps the masks of ``lengths`` only.
        """
        if not self.stats.n:
            return
        cf = self._factor_lengths(lengths)
        self.W = cho_solve(cf, np.eye(self.stats.p), check_finite=False)
        self.log_lik = _loglik_from_factor(self.stats, cf)
        self.columns = {m: self.columns[m] for m in lengths if m in self.columns}

    def propose(self, changes, lengths: dict[int, float]) -> float:
        """Log-likelihood change from adding each ``(mask, value)`` to ``lengths``.

        ``lengths`` are the coordinates the cache was built for, plus the
        moves accepted since; a mask it lacks starts at zero.  Nothing
        cached but the columns changes until :meth:`accept`.
        """
        if self.W is None:
            self._pending = (0.0, ())
            return 0.0
        n, S, W, columns = self.stats.n, self.stats.S, self.W, self.columns
        dll = 0.0
        steps = []
        for mask, delta in changes:
            v = columns.get(mask)
            if v is None:
                v = columns[mask] = split_indicators(self.stats.p, [mask])[:, 0]
            u = W @ v
            for scale, w in steps:  # u = W' v for the W' the earlier steps leave
                u -= scale * float(w @ v) * w
            denom = 1.0 + delta * float(v @ u)
            if not 0.0 < denom < math.inf:
                return self._propose_fresh(changes, lengths)
            dll -= 0.5 * (n * math.log(denom) - delta * float(S.dot(u).dot(u)) / denom)
            steps.append((delta / denom, u))
        self._pending = (self.log_lik + dll, steps)
        return dll

    def _propose_fresh(self, changes, lengths: dict[int, float]) -> float:
        moved = dict(lengths)
        for mask, delta in changes:
            moved[mask] = moved.get(mask, 0.0) + delta
        cf = self._factor_lengths(moved)
        new_ll = _loglik_from_factor(self.stats, cf)
        self._pending = (new_ll, cho_solve(cf, np.eye(self.stats.p), check_finite=False))
        return new_ll - self.log_lik

    def accept(self):
        """Apply the last proposal to ``W`` and ``log_lik``."""
        self.log_lik, update = self._pending
        if isinstance(update, np.ndarray):
            self.W = update
        else:
            for scale, u in update:  # W -= scale u u', in place
                self.W = dger(-scale, u, u, a=self.W, overwrite_a=True)
        self._pending = None


def loglik_gradient(stats: SufficientStats, t: Tree) -> dict[Split, float]:
    """Gradient of the log likelihood in every stored edge-length coordinate.

    Keys are splits: singletons for leaf edges, the full set for the root
    edge, and the internal splits.  All lengths must be strictly positive.
    """
    items = list(t.coordinates())
    grad = split_gradient(stats, [s.mask for s, _ in items], [v for _, v in items])
    return {s: float(g) for (s, _), g in zip(items, grad)}


def sample_gaussian(m, n: int, rng: RngStream) -> DataSet:
    """Draw ``n`` i.i.d. mean-zero Gaussian rows with the given covariance."""
    if n < 1:
        raise InvalidArgumentError(f"need n >= 1, got {n}")
    arr = as_matrix(m)
    L = _factor(arr, np.linalg.cholesky)
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
    L = _factor(arr, np.linalg.cholesky)
    Z = rng.generator.normal(size=(n, arr.shape[0]))
    w = np.sum(rng.generator.normal(size=(n, df)) ** 2, axis=1)
    X = (Z @ L.T) * np.sqrt(df / w)[:, None]
    return DataSet(X, kind=f"t{df}", df=df)
