"""Strictly ultrametric matrices and their bijection with rooted trees.

A symmetric matrix is strictly ultrametric when all entries are non-negative,
each diagonal entry strictly dominates its row, and every triple satisfies
``m[i,j] >= min(m[i,k], m[k,j])``.  Such matrices are exactly the images of
rooted leaf-labeled trees under the linear map

    tree_to_matrix(t) = sum over stored edges of  length * E_A,

where ``E_A`` is the 0/1 matrix with ones on ``A x A``: with ``V`` the
``p x q`` indicator matrix of the stored splits and ``d`` their lengths, it
is ``V diag(d) V'``.  :func:`split_matrices` builds a tree's matrix, or a
stack of them for one topology, from (split, length) pairs in that form,
and ``model.LikelihoodKernel.factor`` builds a sampler's the same way.
Entry ``(i, j)`` is the sum of edge lengths from the root down to the most
recent common ancestor of leaves ``i`` and ``j``.  ``matrix_to_tree``
inverts the map by recursively splitting off the smallest entry and
reading block structure from the zero pattern of the remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    InvalidArgumentError,
    UltrametricViolationError,
)
from .treespace import Split, Topology, Tree

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class Violation:
    clause: str
    where: tuple
    message: str

    def __str__(self):
        return f"{self.clause} at {self.where}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of strict-ultrametric validation; empty means valid."""

    violations: tuple[Violation, ...]

    @property
    def valid(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.valid:
            return "valid"
        return "; ".join(str(v) for v in self.violations[:4]) + (
            f" (+{len(self.violations) - 4} more)" if len(self.violations) > 4 else ""
        )

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "violations": [
                {"clause": v.clause, "where": list(v.where), "message": v.message}
                for v in self.violations
            ],
        }


@dataclass(frozen=True)
class UltrametricMatrix:
    """A read-only float copy of a matrix, as :func:`tree_to_matrix` returns.

    Building one validates nothing: a tree's matrix is strictly ultrametric
    by construction, and :func:`validate_ultrametric` (which
    :func:`matrix_to_tree` runs first) checks any other.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def p(self) -> int:
        return self.values.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.values, dtype=dtype)

    def __eq__(self, other):
        if isinstance(other, UltrametricMatrix):
            return np.array_equal(self.values, other.values)
        return NotImplemented

    def __repr__(self):
        return f"UltrametricMatrix(p={self.p})"


def as_matrix(m) -> np.ndarray:
    """Coerce an UltrametricMatrix or array-like to a float ndarray."""
    if isinstance(m, UltrametricMatrix):
        return m.values
    return np.asarray(m, dtype=float)


@dataclass(frozen=True)
class DecompositionLevel:
    """One peeling step: smallest entry, blocks, and the induced permutation."""

    alpha: float
    blocks: tuple[tuple[int, ...], ...]      # leaf labels, 1-based
    permutation: tuple[int, ...]             # new position -> original index, 0-based

    @property
    def k(self) -> int:
        return len(self.blocks)


def validate_ultrametric(m, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check every strict-ultrametric clause and report all violations.

    Clauses: non-negativity with positive diagonal; strict diagonal
    dominance ``m[i,i] > max_{j != i} m[i,j]``; the three-point condition
    with a witnessing triple; positive definiteness via factorization.
    ``tol`` must be finite and non-negative.
    """
    if not 0.0 <= tol < math.inf:
        raise InvalidArgumentError(f"tol must be finite and non-negative, got {tol}")
    arr = as_matrix(m)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("matrix contains non-finite entries")
    if np.max(np.abs(arr - arr.T), initial=0.0) > tol:
        raise DimensionError("matrix is not symmetric within tolerance")
    arr = 0.5 * (arr + arr.T)
    p = arr.shape[0]
    out: list[Violation] = []

    neg = np.argwhere(arr < -tol)
    if neg.size:
        i, j = map(int, neg[0])
        out.append(Violation("non-negativity", (i + 1, j + 1),
                             f"entry {arr[i, j]:.6g} < 0"))
    nonpos_diag = np.argwhere(np.diag(arr) <= tol)
    if nonpos_diag.size:
        i = int(nonpos_diag[0][0])
        out.append(Violation("positive-diagonal", (i + 1,),
                             f"diagonal entry {arr[i, i]:.6g} <= 0"))

    if p > 1:
        off = arr - np.diag(np.diag(arr))
        row_max = off.max(axis=1)
        bad = np.argwhere(np.diag(arr) <= row_max + tol)
        if bad.size:
            i = int(bad[0][0])
            out.append(Violation(
                "diagonal-dominance", (i + 1,),
                f"diagonal {arr[i, i]:.6g} not strictly above row max {row_max[i]:.6g}",
            ))

    witness = _three_point_witness(arr, tol)
    if witness is not None:
        i, j, k = witness
        out.append(Violation(
            "three-point", (i + 1, j + 1, k + 1),
            f"m[{i + 1},{j + 1}]={arr[i, j]:.6g} < "
            f"min(m[{i + 1},{k + 1}], m[{k + 1},{j + 1}])="
            f"{min(arr[i, k], arr[k, j]):.6g}",
        ))

    try:
        np.linalg.cholesky(arr)
    except np.linalg.LinAlgError:
        out.append(Violation("positive-definite", (),
                             "symmetric factorization failed"))
    return ValidationReport(tuple(out))


def _three_point_witness(arr: np.ndarray, tol: float):
    p = arr.shape[0]
    for k in range(p):
        lhs = arr
        rhs = np.minimum.outer(arr[:, k], arr[k, :])
        bad = lhs < rhs - tol
        if bad.any():
            i, j = map(int, np.argwhere(bad)[0])
            return i, j, k
    return None


def split_indicators(p: int, masks) -> np.ndarray:
    """The ``p x q`` 0/1 matrix whose column ``j`` marks the leaves of ``masks[j]``.

    Bits are read as unsigned 64-bit words, so the 64-leaf root mask fits.
    """
    bits = np.array(masks, dtype=np.uint64)
    return (bits >> np.arange(p, dtype=np.uint64)[:, None] & np.uint64(1)).astype(float)


_SHIFTS = np.arange(64, dtype=np.uint64)


def split_indicator(p: int, mask: int) -> np.ndarray:
    """Column ``j`` of :func:`split_indicators` for ``mask = masks[j]``: the
    length-``p`` 0/1 vector of its leaves, without the ``p x q`` matrix."""
    return (np.uint64(mask) >> _SHIFTS[:p] & np.uint64(1)).astype(float)


def split_matrix(p: int, masks, lengths) -> np.ndarray:
    """``V diag(d) V'``: the sum of ``lengths[j] * E_A`` over the splits ``A = masks[j]``.

    ``V`` is :func:`split_indicators` of ``masks``.  Entry ``(i, j)`` sums
    the lengths of the splits that hold both leaves.
    """
    return split_matrices(p, masks, [lengths])[0]


def split_matrices(p: int, masks, lengths) -> np.ndarray:
    """:func:`split_matrix` for each row of the ``m x q`` array ``lengths``.

    Returns the ``m x p x p`` stack ``V diag(L[k]) V'``, from one indicator
    matrix ``V`` of ``masks``; each slice is one matrix product.
    """
    V = split_indicators(p, masks)
    return (np.asarray(lengths, dtype=float)[:, None, :] * V) @ V.T


def tree_to_matrix(t: Tree) -> UltrametricMatrix:
    """The linear split representation of a tree (always strictly ultrametric)."""
    items = list(t.coordinates())
    return UltrametricMatrix(split_matrix(t.p, [s.mask for s, _ in items],
                                          [v for _, v in items]))


def _blocks_of(arr: np.ndarray, labels: tuple[int, ...], floor: float,
               tol: float) -> list[tuple[int, ...]]:
    """Connected components of ``arr - floor > tol`` restricted to labels.

    Within a valid ultrametric matrix positivity is transitive, so the
    components are cliques; a single linear sweep per row suffices.
    """
    idx = np.array(labels) - 1
    sub = arr[np.ix_(idx, idx)] - floor
    n = len(labels)
    assigned = [-1] * n
    blocks: list[list[int]] = []
    for i in range(n):
        if assigned[i] >= 0:
            continue
        members = [i]
        assigned[i] = len(blocks)
        for j in range(i + 1, n):
            if assigned[j] < 0 and sub[i, j] > tol:
                members.append(j)
                assigned[j] = len(blocks)
        blocks.append(members)
    out = [tuple(labels[i] for i in b) for b in blocks]
    out.sort(key=lambda b: b[0])
    return out


def decompose_step(m, tol: float = DEFAULT_TOL) -> DecompositionLevel:
    """Peel the smallest entry off a matrix and expose its block structure.

    ``alpha`` is the minimum entry (the length of the edge above the current
    node); the blocks are the leaf groups of the node's subtrees, ordered by
    smallest leaf label; the permutation concatenates the blocks with
    ascending members, which makes the shifted matrix block diagonal.
    """
    arr = as_matrix(m)
    report = validate_ultrametric(arr, tol)
    if not report.valid:
        raise UltrametricViolationError(report)
    p = arr.shape[0]
    if p < 2:
        raise InvalidArgumentError("decompose_step requires p >= 2")
    alpha = float(arr.min())
    labels = tuple(range(1, p + 1))
    blocks = _blocks_of(arr, labels, alpha, tol)
    order = [i - 1 for block in blocks for i in block]
    return DecompositionLevel(alpha, tuple(blocks), tuple(order))


def matrix_to_tree(m, tol: float = DEFAULT_TOL) -> Tree:
    """Recover the unique tree whose split representation is the given matrix.

    Applies the peeling step recursively until all blocks are single leaves.
    Raises ``UltrametricViolationError`` (with the witnessing clause) when
    the input is not strictly ultrametric.
    """
    arr = as_matrix(m)
    report = validate_ultrametric(arr, tol)
    if not report.valid:
        raise UltrametricViolationError(report)
    p = arr.shape[0]
    if p == 1:
        return Tree(Topology(1), {}, (float(arr[0, 0]),), 0.0)

    internal: dict[Split, float] = {}
    leaf_lengths = [0.0] * p

    def rec(labels: tuple[int, ...], floor: float):
        idx = np.array(labels) - 1
        sub = arr[np.ix_(idx, idx)]
        new_floor = float(sub.min())
        length = new_floor - floor
        if len(labels) < p:
            internal[Split.from_leaves(p, labels)] = length
        for block in _blocks_of(arr, labels, new_floor, tol):
            if len(block) == 1:
                leaf = block[0]
                leaf_lengths[leaf - 1] = float(arr[leaf - 1, leaf - 1]) - new_floor
            else:
                rec(block, new_floor)
        return length

    root_length = rec(tuple(range(1, p + 1)), 0.0)
    return Tree(Topology(p, frozenset(internal)), internal,
                tuple(leaf_lengths), root_length)


def vech_leq(a, b) -> bool:
    """Entrywise order on the lower triangle (diagonal included)."""
    aa, bb = as_matrix(a), as_matrix(b)
    if aa.shape != bb.shape:
        raise DimensionError(f"shape mismatch: {aa.shape} vs {bb.shape}")
    tri = np.tril_indices(aa.shape[0])
    return bool(np.all(aa[tri] <= bb[tri]))
