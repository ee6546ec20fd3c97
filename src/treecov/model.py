"""Mean-zero Gaussian likelihood over tree-structured covariance matrices.

Observations are i.i.d. ``N_p(0, S)`` with ``S`` strictly ultrametric.  The
likelihood only ever reads the sample count and the scatter matrix
``sum_i x_i x_i^T``, so those are carried as sufficient statistics.  With
``V`` the ``p x q`` indicator matrix of the stored splits (column ``v_j`` for
edge length ``d_j``), the covariance is ``V diag(d) V'`` and the gradient is

    d loglik / d d_j = -(n/2) v_j' S^-1 v_j + (1/2) v_j' S^-1 A S^-1 v_j,

the diagonal of one ``V' (...) V`` product, where ``A`` is the scatter matrix;
one factorization serves all coordinates.

Both samplers score through :class:`LikelihoodKernel`, the one place that
builds, factorizes and differentiates a sampler's covariance, and that
prices a change of lengths by rank-one steps; an MH chain's kernel also
owns the chain's ``{mask: length}`` map, which only its moves write.
:func:`gaussian_loglik` factorizes a given matrix afresh; the kernel's
caches are checked against it.  Every factorization goes through
:func:`_factor`, which raises ``NotPositiveDefiniteError`` when it fails
and imports scipy's routines the first time it runs, so importing the
package loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    DimensionError,
    InvalidArgumentError,
    NotPositiveDefiniteError,
)
from .rng import RngStream
from .treespace import Split, Tree
from .ultrametric import as_matrix, split_indicator, split_indicators

LOG_2PI = float(np.log(2.0 * np.pi))
dger = dpotrf = dpotrs = None  # scipy's, bound by the first _factor


@dataclass(frozen=True)
class DataSet:
    """An ``n x p`` sample of finite values."""

    values: np.ndarray

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


def _load_lapack():
    """Bind scipy's ``dger``, ``dpotrf`` and ``dpotrs``.  Importing scipy is
    most of the package's import time, so it waits for the first factorization."""
    global dger, dpotrf, dpotrs
    from scipy.linalg.blas import dger
    from scipy.linalg.lapack import dpotrf, dpotrs


def _factor(sigma: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor by LAPACK ``dpotrf``, its strict upper triangle
    left as ``sigma``'s.  Every likelihood and gradient factorization goes
    through here, and raises ``NotPositiveDefiniteError`` when it fails."""
    if dpotrf is None:
        _load_lapack()
    c, info = dpotrf(sigma, lower=1, clean=0)
    if info > 0:
        raise NotPositiveDefiniteError("covariance matrix is not numerically positive "
                                       f"definite (leading minor of order {info})")
    return c


def _loglik(stats: SufficientStats, c: np.ndarray, W: np.ndarray) -> float:
    """Log likelihood from a factor ``c`` of the covariance and its inverse
    ``W``: the quadratic term is ``tr(W S) = sum_ij W_ij S_ij``."""
    logdet = 2.0 * float(np.sum(np.log(np.diag(c))))
    quad = float(np.vdot(W, stats.S))
    n, p = stats.n, stats.p
    return -0.5 * (n * p * LOG_2PI + n * logdet + quad)


def gaussian_loglik(stats: SufficientStats, m) -> float:
    """Exact mean-zero Gaussian log likelihood at a covariance matrix.

    Computed as ``-(np/2) log 2pi - (n/2) logdet(m) - tr(W S) / 2`` from one
    symmetric factorization and the inverse ``W = m^-1`` it solves for, the
    formula a :class:`LikelihoodKernel` reads from its kept inverse.
    Raises ``DimensionError`` unless ``m`` is ``p x p``,
    ``InvalidArgumentError`` for a non-finite entry, and
    ``NotPositiveDefiniteError`` when the factorization fails."""
    arr = as_matrix(m)
    if arr.shape != (stats.p, stats.p):
        raise DimensionError(f"matrix has shape {arr.shape}, data are {stats.p}-variate")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("covariance matrix has non-finite entries")
    if stats.n == 0:
        return 0.0
    c = _factor(arr)
    return _loglik(stats, c, dpotrs(c, np.eye(stats.p), lower=1)[0])


def _rank_one(n: int, S: np.ndarray, u: np.ndarray, c: float, delta: float):
    """Log-likelihood change and downdate scale of the rank-one step
    ``delta v v'``, with ``u = W v`` and ``c = v'u``: with ``t = 1 + delta c``,
    ``(-(1/2) (n log t - delta u'Su / t), delta / t)``.  None when ``t`` is
    not positive and finite, so the move must be priced afresh."""
    t = 1.0 + delta * c
    if not 0.0 < t < math.inf:
        return None
    return -0.5 * (n * math.log(t) - delta * float(S.dot(u).dot(u)) / t), delta / t


class LikelihoodKernel:
    """The log likelihood of split coordinates, its gradient, and its changes.

    :meth:`factor` builds ``sigma = V diag(d) V'`` from masks and lengths,
    the only routine that does, and factorizes it for ``W = sigma^-1``,
    :meth:`gradient` and ``log_lik``, whose quadratic term is ``tr(W S)``
    read from that ``W``.  The indicator matrix ``V`` is kept while the
    list of masks is unchanged.  Built with ``lengths``, the kernel keeps
    that ``{mask: length}`` map, the same dict, as the one record of a
    chain's coordinates: :meth:`move` prices setting masks to new lengths
    from ``W`` and each mask's cached indicator column ``v`` and keeps the
    move when it clears its bar, :meth:`sweep` does so for a whole MH
    length sweep's moves in one call, and :meth:`refresh` factorizes at it.

    A change by ``delta`` on a split with indicator ``v`` adds ``delta v v'``
    to ``sigma``.  With ``u = W v``, ``c = v'u`` and the scatter matrix ``A``,
    the determinant lemma and Sherman-Morrison give

        delta loglik = -(1/2) (n log(1 + delta c) - delta u'Au / (1 + delta c))

    in ``O(p^2)`` (:func:`_rank_one`, shared by :meth:`move` and
    :meth:`sweep`), and keeping it downdates ``W -= delta/(1 + delta c) uu'``.
    A leaf's ``v`` is a unit vector ``e_i``, so a first step on a leaf takes
    ``u`` as column ``i`` of ``W`` and ``c = u_i``: the same numbers, without
    the products by zero.
    Several changes are priced as successive rank-one steps, each on the
    ``W`` the steps before it leave; a topology swap lists the shrink first,
    so its intermediate matrix is the covariance of a tree with the edge at
    length zero, which is positive definite.  A step whose ``1 + delta c``
    is not positive and finite (a move to a matrix that is not positive
    definite, or rounding in an ill-conditioned ``W``) prices the move by a
    full factorization of the proposed lengths (:meth:`_afresh`), which raises
    ``NotPositiveDefiniteError`` if it fails.  Without data :meth:`refresh`
    builds nothing and the likelihood is identically zero.
    """

    def __init__(self, stats: SufficientStats, lengths: dict[int, float] | None = None):
        self.stats = stats
        self.lengths = lengths
        self.W = None
        self._log_lik = 0.0  # None: not yet read from the factor in _at and W
        self.columns: dict[int, np.ndarray] = {}
        self._V = None  # (masks, V) of the last factorization, kept across moves
        self._at = None  # (lengths, factor) of the position W belongs to
        if lengths is not None:
            self.refresh()

    @property
    def log_lik(self) -> float:
        """Read from the last factor when first asked for; a gradient needs none."""
        if self._log_lik is None:
            self._log_lik = _loglik(self.stats, self._at[1], self.W)
        return self._log_lik

    def factor(self, masks, lengths):
        """Factorize at the lengths of ``masks``, in that order, unless the last
        call had the same position and no move was kept since.  Raises
        ``NotPositiveDefiniteError``, and changes nothing, when it fails."""
        d = np.array(lengths, dtype=float)
        kept = self._V
        if kept is not None and kept[0] == masks:
            if self._at is not None and np.array_equal(self._at[0], d):
                return
        else:
            kept = (list(masks), split_indicators(self.stats.p, masks))
        V = kept[1]
        c = _factor((V * d) @ V.T)
        self.W = dpotrs(c, np.eye(self.stats.p), lower=1)[0]
        self._log_lik = None
        self._V = kept
        self._at = (d, c)

    def gradient(self) -> np.ndarray:
        """Log-likelihood gradient in each length at the last :meth:`factor`,
        in its masks' order: the diagonals of ``V'WV`` and ``(WV)' A (WV)``."""
        V = self._V[1]
        WV = self.W @ V
        return -0.5 * self.stats.n * np.einsum("ij,ij->j", V, WV) \
            + 0.5 * np.einsum("ij,ij->j", WV, self.stats.S @ WV)

    def refresh(self):
        """Factorize at the kept lengths in ascending mask order, unless no
        move was kept since the last factorization; the column cache
        keeps the stored masks only."""
        if not self.stats.n:
            return
        lengths = self.lengths
        masks = sorted(lengths)
        self.factor(masks, [lengths[m] for m in masks])
        self.columns = {m: self.columns[m] for m in lengths if m in self.columns}

    def move(self, changes, bar: float) -> float:
        """Log-likelihood change from setting each ``(mask, length)`` in the
        map, the changes kept when ``bar`` is below it.

        Each pair is the rank-one change ``length - lengths.get(mask, 0.0)``
        on the ``W`` the pairs before it leave; a zero length drops the
        mask.  A kept move downdates ``W`` and sets ``log_lik`` and the
        lengths; a move not kept changes nothing cached but the columns.
        """
        if self.W is None:
            if bar < 0.0:
                self._set(changes)
            return 0.0
        n, S, W, columns, lengths = self.stats.n, self.stats.S, self.W, self.columns, self.lengths
        dll = 0.0
        steps = []
        for mask, new in changes:
            delta = new - lengths.get(mask, 0.0)
            if steps or mask & (mask - 1):
                v = columns.get(mask)
                if v is None:
                    v = columns[mask] = split_indicator(self.stats.p, mask)
                u = W.dot(v)  # ndarray.dot: the dgemv and ddot of @, called faster
                for scale, w in steps:  # u = W' v for the W' the earlier steps leave
                    u -= scale * float(w @ v) * w
                c = float(v.dot(u))
            else:  # a leaf's first step: v = e_i
                i = mask.bit_length() - 1
                u = W[:, i].copy()
                c = float(u[i])
            step = _rank_one(n, S, u, c, delta)
            if step is None:
                fresh = self._afresh(changes)
                dll = fresh.log_lik - self.log_lik
                if bar < dll:
                    self.W, self._log_lik = fresh.W, fresh.log_lik
                    self._set(changes)
                return dll
            dll += step[0]
            steps.append((step[1], u))
        if bar < dll:
            self._log_lik = self.log_lik + dll
            for scale, u in steps:  # W -= scale u u', in place
                W = dger(-scale, u, u, a=W, overwrite_a=True)
            self.W = W
            self._set(changes)
        return dll

    def _afresh(self, changes) -> "LikelihoodKernel":
        """A kernel factorized at the kept lengths with ``changes`` set."""
        return LikelihoodKernel(self.stats, {**self.lengths, **dict(changes)})

    def _set(self, changes):
        """Write kept changes into the lengths; a zero length drops the mask."""
        for mask, new in changes:
            if new:
                self.lengths[mask] = new
            else:
                del self.lengths[mask]
        self._at = None

    def sweep(self, masks, lengths, bars) -> int:
        """Set each mask in turn to its new length where its ``bar`` is below
        the log-likelihood change; return how many moves were kept.

        Each move is one rank-one step on the ``W`` the moves before it
        leave, with the floating-point operations of :meth:`move`, so one
        call gives, to the bit, the ``W``, lengths and ``log_lik`` of one
        :meth:`move` per mask.  A leaf reads its column of ``W`` in place
        and copies it only to apply the move.  Without data every change is
        zero, so a move is kept where its bar is below zero.
        """
        if self.W is None:  # every change is zero
            kept = [(mask, new) for mask, new, bar in zip(masks, lengths, bars) if bar < 0.0]
            self.lengths.update(kept)
            return len(kept)
        n, S, W, columns, current, ger = \
            self.stats.n, self.stats.S, self.W, self.columns, self.lengths, dger
        ll = self.log_lik
        kept = 0
        try:
            for mask, new, bar in zip(masks, lengths, bars):
                delta = new - current[mask]
                leaf = not mask & (mask - 1)
                if leaf:  # v = e_i: u is a view of column i of W
                    i = mask.bit_length() - 1
                    u = W[:, i]
                    c = float(u[i])
                else:
                    v = columns.get(mask)
                    if v is None:
                        v = columns[mask] = split_indicator(self.stats.p, mask)
                    u = W.dot(v)
                    c = float(v.dot(u))
                step = _rank_one(n, S, u, c, delta)
                if step is None:  # price the move afresh
                    fresh = self._afresh([(mask, new)])
                    if not bar < fresh.log_lik - ll:
                        continue
                    W, ll = fresh.W, fresh.log_lik
                elif bar < step[0]:
                    if leaf:  # dger writes W in place
                        u = u.copy()
                    W = ger(-step[1], u, u, a=W, overwrite_a=True)
                    ll += step[0]
                else:
                    continue
                current[mask] = new
                kept += 1
        finally:
            self.W = W
            if kept:
                self._log_lik = ll
                self._at = None
        return kept


def loglik_gradient(stats: SufficientStats, t: Tree) -> dict[Split, float]:
    """Gradient of the log likelihood in every stored edge-length coordinate.

    Keys are splits: singletons for leaf edges, the full set for the root
    edge, and the internal splits.  All lengths must be strictly positive.
    """
    items = list(t.coordinates())
    kernel = LikelihoodKernel(stats)
    kernel.factor([s.mask for s, _ in items], [v for _, v in items])
    return {s: float(g) for (s, _), g in zip(items, kernel.gradient())}


def sample_gaussian(m, n: int, rng: RngStream) -> DataSet:
    """Draw ``n`` i.i.d. mean-zero Gaussian rows with the given covariance."""
    if n < 1:
        raise InvalidArgumentError(f"need n >= 1, got {n}")
    arr = as_matrix(m)
    try:
        L = np.linalg.cholesky(arr)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"covariance matrix is not numerically positive definite ({exc})") from exc
    Z = rng.generator.normal(size=(n, arr.shape[0]))
    return DataSet(Z @ L.T)


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
    z = sample_gaussian(m, n, rng).values
    w = np.sum(rng.generator.normal(size=(n, df)) ** 2, axis=1)
    return DataSet(z * np.sqrt(df / w)[:, None])
