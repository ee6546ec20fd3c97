"""Independent reference implementations used only to check the library.

Everything here is deliberately brute force or formula-level so that it
shares no code path with the implementation under test.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction

import numpy as np

from treecov.treespace import Split, Topology, Tree


# ---------------------------------------------------------------------------
# path-sum matrix construction
# ---------------------------------------------------------------------------

def path_sum_matrix(tree: Tree) -> np.ndarray:
    """Entry (i, j): sum of edge lengths from the root to the deepest split
    containing both leaves; the diagonal adds the leaf edge."""
    p = tree.p
    out = np.zeros((p, p))
    for i in range(1, p + 1):
        for j in range(1, p + 1):
            total = tree.root_length
            for s, v in tree.internal_lengths.items():
                leaves = set(s.leaves())
                if i in leaves and j in leaves:
                    total += v
            if i == j:
                total += tree.leaf_lengths[i - 1]
            out[i - 1, j - 1] = total
    return out


def add_split(sigma: np.ndarray, mask: int, value: float) -> None:
    """Add ``value * E_A`` to ``sigma`` in place, for the split ``A`` = ``mask``.

    The root split adds to every entry, a leaf edge to one diagonal entry,
    and an internal split to the block of its leaves.
    """
    p = sigma.shape[0]
    if mask == (1 << p) - 1:
        sigma += value
    elif mask.bit_count() == 1:
        i = mask.bit_length() - 1
        sigma[i, i] += value
    else:
        idx = [i for i in range(p) if mask >> i & 1]
        sigma[np.ix_(idx, idx)] += value


def block_sum_matrix(p: int, masks, lengths) -> np.ndarray:
    """``sum_j lengths[j] * E_{masks[j]}`` by one in-place block add per split,
    in the given order."""
    sigma = np.zeros((p, p))
    for mask, value in zip(masks, lengths):
        add_split(sigma, mask, float(value))
    return sigma


# ---------------------------------------------------------------------------
# brute-force geodesic distance over all valid support sequences
# ---------------------------------------------------------------------------

def _masks_compatible(a: int, b: int) -> bool:
    return a == b or (a & b) == 0 or (a & ~b) == 0 or (b & ~a) == 0


def _norm(items) -> float:
    return math.sqrt(sum(l * l for _, l in items))


def brute_force_internal_distance(t1: Tree, t2: Tree) -> float:
    """Minimize the path length over every valid support sequence.

    A support sequence assigns the uncommon splits of each side to ordered
    pairs (possibly with one empty side), subject to: later source parts
    are compatible with earlier target parts (the path never leaves the
    space), and the norm-ratio sequence is non-decreasing.  The minimized
    length, combined with the common-split differences in quadrature, is
    the geodesic length.
    """
    l1, l2 = t1.internal_lengths, t2.internal_lengths
    common_sq = sum((l1[s] - l2[s]) ** 2 for s in set(l1) & set(l2))
    A = [(s.mask, l1[s]) for s in l1 if s not in l2]
    B = [(s.mask, l2[s]) for s in l2 if s not in l1]
    if not A and not B:
        return math.sqrt(common_sq)
    if not A or not B:
        side = A or B
        return math.sqrt(common_sq + _norm(side) ** 2)

    compat = {
        (ma, mb): _masks_compatible(ma, mb)
        for ma, _ in A for mb, _ in B
    }
    best = math.inf
    # Supports with an empty source part beyond the first (or empty target
    # part before the last) merge into equal-length supports with fewer
    # parts, so it is enough to search k up to min(|A|, |B|) + 1.
    max_k = min(len(A), len(B)) + 1
    for k in range(1, max_k + 1):
        for a_assign in itertools.product(range(k), repeat=len(A)):
            for b_assign in itertools.product(range(k), repeat=len(B)):
                parts_a = [[A[i] for i in range(len(A)) if a_assign[i] == g]
                           for g in range(k)]
                parts_b = [[B[j] for j in range(len(B)) if b_assign[j] == g]
                           for g in range(k)]
                if any(not parts_a[g] for g in range(1, k)):
                    continue
                if any(not parts_b[g] for g in range(k - 1)):
                    continue
                if not parts_a[0] and not parts_b[0]:
                    continue
                if k > 1 and not parts_b[k - 1] and not parts_a[k - 1]:
                    continue
                # path stays inside the space: A_i compatible with B_j, i > j
                ok = True
                for i in range(k):
                    for j in range(i):
                        for ma, _ in parts_a[i]:
                            for mb, _ in parts_b[j]:
                                if not compat[(ma, mb)]:
                                    ok = False
                                    break
                            if not ok:
                                break
                        if not ok:
                            break
                    if not ok:
                        break
                if not ok:
                    continue
                norms = [(_norm(pa), _norm(pb))
                         for pa, pb in zip(parts_a, parts_b)]
                # non-decreasing ratio sequence (cross-multiplied)
                mono = all(
                    norms[i][0] * norms[i + 1][1] <= norms[i + 1][0] * norms[i][1]
                    or (norms[i][1] == 0 and norms[i + 1][1] == 0)
                    for i in range(k - 1)
                )
                if not mono:
                    continue
                total = common_sq + sum((na + nb) ** 2 for na, nb in norms)
                best = min(best, math.sqrt(total))
    return best


# ---------------------------------------------------------------------------
# geodesic support refinement over exact rationals
# ---------------------------------------------------------------------------

def fraction_min_weight_cover(wa, wb, edges):
    """Minimum-weight bipartite vertex cover by Edmonds-Karp on ``Fraction``
    capacities; returns ``(cover_a, cover_b, weight)``."""
    na, nb = len(wa), len(wb)
    source, sink = na + nb, na + nb + 1
    inf = sum(wa, Fraction(0)) + sum(wb, Fraction(0)) + 1
    cap: dict[tuple[int, int], Fraction] = {}
    adj: dict[int, list[int]] = {v: [] for v in range(na + nb + 2)}

    def add_edge(u, v, c):
        if (u, v) not in cap:
            cap[(u, v)] = Fraction(0)
            cap[(v, u)] = Fraction(0)
            adj[u].append(v)
            adj[v].append(u)
        cap[(u, v)] += c

    for i, w in enumerate(wa):
        add_edge(source, i, w)
    for j, w in enumerate(wb):
        add_edge(na + j, sink, w)
    for i, j in edges:
        add_edge(i, na + j, inf)

    while True:
        parent = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in adj[u]:
                if v not in parent and cap[(u, v)] > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            break
        bottleneck = inf
        v = sink
        while v != source:
            u = parent[v]
            bottleneck = min(bottleneck, cap[(u, v)])
            v = u
        v = sink
        while v != source:
            u = parent[v]
            cap[(u, v)] -= bottleneck
            cap[(v, u)] += bottleneck
            v = u

    reached = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in reached and cap[(u, v)] > 0:
                reached.add(v)
                queue.append(v)
    cover_a = {i for i in range(na) if i not in reached}
    cover_b = {j for j in range(nb) if na + j in reached}
    weight = sum((wa[i] for i in cover_a), Fraction(0)) + \
        sum((wb[j] for j in cover_b), Fraction(0))
    return cover_a, cover_b, weight


def fraction_refine_pairs(a_items, b_items):
    """Support refinement with rational cover weights: each squared length
    is taken exactly and divided by its side's exact total, so a whole side
    weighs 1; every pair is solved again each round until no cover weighs
    less than 1."""
    pairs = [(a_items, b_items)]
    while True:
        changed = False
        new_pairs = []
        for A, B in pairs:
            if not A or not B:
                new_pairs.append((A, B))
                continue
            edges = [(i, j) for i, (ma, _) in enumerate(A)
                     for j, (mb, _) in enumerate(B)
                     if not _masks_compatible(ma, mb)]
            a_sq = math.fsum(l * l for _, l in A)
            b_sq = math.fsum(l * l for _, l in B)
            if a_sq <= 0.0 or b_sq <= 0.0:
                new_pairs.append((A, B))
                continue
            wa = [Fraction(l * l) for _, l in A]
            wb = [Fraction(l * l) for _, l in B]
            ta, tb = sum(wa), sum(wb)
            wa = [w / ta for w in wa]
            wb = [w / tb for w in wb]
            cover_a, cover_b, weight = fraction_min_weight_cover(wa, wb, edges)
            if weight < 1:
                new_pairs.append(([A[i] for i in range(len(A)) if i in cover_a],
                                  [B[j] for j in range(len(B)) if j not in cover_b]))
                new_pairs.append(([A[i] for i in range(len(A)) if i not in cover_a],
                                  [B[j] for j in range(len(B)) if j in cover_b]))
                changed = True
            else:
                new_pairs.append((A, B))
        pairs = new_pairs
        if not changed:
            return [pr for pr in pairs if pr[0] or pr[1]]


# ---------------------------------------------------------------------------
# exhaustive multifurcating topology enumeration
# ---------------------------------------------------------------------------

def set_partitions(items: tuple) -> list[list[tuple]]:
    """All set partitions of a tuple of labels."""
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for partial in set_partitions(rest):
        out.append([(first,)] + partial)
        for i in range(len(partial)):
            grown = list(partial)
            grown[i] = (first,) + grown[i]
            out.append(grown)
    return out


def enumerate_all_topologies(p: int) -> list[Topology]:
    """Every rooted shape, resolved or not, as a set of internal splits."""
    assert 2 <= p <= 5

    def rec(labels: tuple[int, ...]) -> list[frozenset[int]]:
        if len(labels) <= 1:
            return [frozenset()]
        out = []
        for parts in set_partitions(labels):
            if len(parts) < 2:
                continue
            extra = set()
            for part in parts:
                if 2 <= len(part) <= p - 1:
                    mask = 0
                    for leaf in part:
                        mask |= 1 << (leaf - 1)
                    extra.add(mask)
            subs = [rec(tuple(sorted(part))) for part in parts]
            for combo in itertools.product(*subs):
                acc = frozenset(extra)
                for c in combo:
                    acc |= c
                out.append(acc)
        return out

    unique = sorted({tuple(sorted(s)) for s in rec(tuple(range(1, p + 1)))})
    return [Topology(p, frozenset(Split(p, m) for m in masks)) for masks in unique]


# ---------------------------------------------------------------------------
# alternate gradient via a rank-one downdate identity
# ---------------------------------------------------------------------------

def downdate_gradient(stats_n: int, scatter: np.ndarray, tree: Tree,
                      split: Split) -> float:
    """Log-likelihood derivative through the leave-one-edge-out inverse.

    With ``q = v' M^-1 v`` for ``M`` the covariance without coordinate j,
    the derivative is ``-(n/2) q/(1+dq) + (1/2) v' M^-1 A M^-1 v / (1+dq)^2``.
    """
    from treecov.ultrametric import tree_to_matrix

    sigma = tree_to_matrix(tree).values
    d = tree.length_of(split)
    v = np.zeros(tree.p)
    v[np.array(split.leaves()) - 1] = 1.0
    m_minus = sigma - d * np.outer(v, v)
    inv = np.linalg.inv(m_minus)
    q = float(v @ inv @ v)
    num = float(v @ inv @ scatter @ inv @ v)
    return -0.5 * stats_n * q / (1 + d * q) + 0.5 * num / (1 + d * q) ** 2


def loop_split_gradient(stats_n: int, scatter: np.ndarray, sigma: np.ndarray,
                        masks) -> np.ndarray:
    """Per-split gradient as block sums, one split at a time.

    Entry ``j`` sums the ``A_j x A_j`` blocks of ``W = sigma^-1`` and
    ``W A W``: ``-(n/2) sum W[A,A] + (1/2) sum (W A W)[A,A]``.
    """
    from scipy.linalg import cho_factor, cho_solve

    p = sigma.shape[0]
    W = cho_solve(cho_factor(sigma, lower=True), np.eye(p))
    G = W @ scatter @ W
    out = np.empty(len(masks))
    for j, m in enumerate(masks):
        block = np.ix_(*[[i for i in range(p) if m >> i & 1]] * 2)
        out[j] = -0.5 * stats_n * float(W[block].sum()) + 0.5 * float(G[block].sum())
    return out


def loop_drift(state, eps: float, rng) -> None:
    """The boundary-crossing drift with one coordinate at a time.

    Scans the slots for the earliest fractured step ``d_j / -a_j`` within
    what is left of ``eps``, ties to the smaller mask, and otherwise moves
    and reassigns exactly as ``samplers._drift``.
    """
    from treecov.treespace import _growth_candidates

    def internal(m):
        return 2 <= m.bit_count() < state.p

    remaining = eps
    while remaining > 0.0:
        t_hit = j_hit = None
        for j, v in enumerate(state.a):
            if v < 0.0:
                t = state.d[j] / -v
                if t <= remaining and (t_hit is None or (t, state.masks[j])
                                       < (t_hit, state.masks[j_hit])):
                    t_hit, j_hit = t, j
        if j_hit is None:
            state.d += remaining * state.a
            return
        state.d += t_hit * state.a
        state.d[j_hit] = 0.0
        remaining -= t_hit
        state.a[j_hit] = -state.a[j_hit]
        mask = state.masks[j_hit]
        if internal(mask):
            others = [m for m in state.masks if m != mask and internal(m)]
            cands = [m for m in _growth_candidates(state.p, others) if m != mask]
            if cands:
                state.masks[j_hit] = cands[rng.integers(len(cands))]


# ---------------------------------------------------------------------------
# misc statistics helpers
# ---------------------------------------------------------------------------

def ks_statistic_exponential(xs, mean: float) -> float:
    """Kolmogorov-Smirnov distance to an exponential with the given mean."""
    xs = np.sort(np.asarray(xs, dtype=float))
    n = len(xs)
    cdf = 1.0 - np.exp(-xs / mean)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(max(np.max(np.abs(upper - cdf)), np.max(np.abs(cdf - lower))))


def batch_se(xs, nbatches: int = 20) -> float:
    """Monte-Carlo standard error of the mean via non-overlapping batches."""
    xs = np.asarray(xs, dtype=float)
    usable = (len(xs) // nbatches) * nbatches
    if usable < nbatches:
        return float("inf")
    means = xs[:usable].reshape(nbatches, -1).mean(axis=1)
    return float(np.std(means, ddof=1) / math.sqrt(nbatches))


def iterations_to_fraction(trace_values, fraction: float = 0.99) -> int:
    """First 1-based index whose value reaches the given fraction of the
    observed range above the minimum."""
    vals = np.asarray(trace_values, dtype=float)
    lo, hi = float(vals.min()), float(vals.max())
    threshold = lo + fraction * (hi - lo)
    idx = int(np.argmax(vals >= threshold))
    return idx + 1
