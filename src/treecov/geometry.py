"""Geodesic geometry on trees and its pullback to ultrametric matrices.

Internal-edge coordinates carry the stratified geodesic metric: within one
topology the metric is Euclidean, and across topologies the geodesic is
found by partitioning the uncommon splits into support pairs ``(A_i, B_i)``
with non-decreasing norm ratios ``|A_i| / |B_i|``, each pair collapsing and
regrowing through a shared boundary.  The full tree distance adds the
Euclidean distance between the ``(root, leaf)`` length vectors:

    tree_distance = internal_geodesic_length + ||leaf_root_1 - leaf_root_2||.

The support is found region by region (Owen & Provan 2011, "A fast
algorithm for computing geodesic distances in tree space", IEEE/ACM TCBB
8(1)).  An uncommon split's region is the smallest split both trees share
that contains it, or the root; splits of different regions never clash, so
each region is refined on its own.  A region starts as one pair and its
pairs are split by a minimum-weight vertex cover of their bipartite
incompatibility graph (squared-length vertex weights, normalized per side)
until no cover weighs strictly less than one.  Cover problems are solved by
max-flow over exact integer capacities, so the combinatorial decisions are
immune to float noise; a side of a single split needs no max-flow, as its
minimum cover is the set of splits it clashes with.  The regions' pairs are
then merged in the order of their ratios, compared exactly by integer
cross-products of the squared-length sums, and pairs whose ratios tie
exactly become one pair: a refinement of all uncommon splits at once never
splits such a tie, so the merged support is the one it gives.

Geodesics are computed on a tree's internal ``{mask: length}`` map and its
``(root, leaves)`` vector; splits and trees are built only for what a public
function returns.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cmp_to_key
from numbers import Integral
from typing import Sequence

from .errors import DimensionError, InvalidArgumentError
from .treespace import Split, Tree, _clash, _tree_from_masks
from .ultrametric import as_matrix, matrix_to_tree, DEFAULT_TOL


# ---------------------------------------------------------------------------
# minimum-weight vertex cover via max-flow (exact integer arithmetic)
# ---------------------------------------------------------------------------

def _min_weight_cover(wa: Sequence[int], wb: Sequence[int],
                      edges: Sequence[tuple[int, int]]):
    """Minimum-weight vertex cover of a bipartite graph.

    Vertices on side A have integer weights ``wa``, side B ``wb``; ``edges``
    are (i, j) index pairs that must be covered.  Returns ``(cover_a,
    cover_b, weight)`` with index sets per side.

    Solved as a min cut of the network source -> i (capacity ``wa[i]``),
    i -> j (unbounded), j -> sink (capacity ``wb[j]``).  The cover is the
    cut nearest the source: A vertices the source cannot reach in the
    residual graph and B vertices it can.  That vertex set is the same for
    every maximum flow, so the cover does not depend on the order in which
    paths are augmented.
    """
    na, nb = len(wa), len(wb)
    adj: list[list[int]] = [[] for _ in range(na)]
    for i, j in edges:
        adj[i].append(j)
    ra = list(wa)                                  # residual source -> i
    rb = list(wb)                                  # residual j -> sink
    flow: list[dict[int, int]] = [{} for _ in range(nb)]   # flow[j][i] on i -> j
    # saturate the shortest paths source -> i -> j -> sink greedily
    for i in range(na):
        for j in adj[i]:
            d = min(ra[i], rb[j])
            if d > 0:
                ra[i] -= d
                rb[j] -= d
                flow[j][i] = flow[j].get(i, 0) + d
    # then shortest augmenting paths source -> i -> j (-> i' -> j')* -> sink,
    # stepping back from j to i' along an edge that carries flow
    while True:
        from_b: dict[int, int | None] = {i: None for i in range(na) if ra[i] > 0}
        from_a: dict[int, int] = {}
        queue = deque(from_b)
        end = None
        while queue and end is None:
            i = queue.popleft()
            for j in adj[i]:
                if j in from_a:
                    continue
                from_a[j] = i
                if rb[j] > 0:
                    end = j
                    break
                for k, f in flow[j].items():
                    if f > 0 and k not in from_b:
                        from_b[k] = j
                        queue.append(k)
        if end is None:
            break
        forward, backward = [], []
        j = end
        while j is not None:
            i = from_a[j]
            forward.append((i, j))
            j = from_b[i]
            if j is not None:
                backward.append((i, j))
        d = min(ra[i], rb[end], *(flow[j][i] for i, j in backward))
        ra[i] -= d
        rb[end] -= d
        for i, j in forward:
            flow[j][i] = flow[j].get(i, 0) + d
        for i, j in backward:
            flow[j][i] -= d

    # the last search found no path, so it visited all the source reaches
    cover_a = {i for i in range(na) if i not in from_b}
    cover_b = set(from_a)
    weight = sum(wa[i] for i in cover_a) + sum(wb[j] for j in cover_b)
    return cover_a, cover_b, weight


# ---------------------------------------------------------------------------
# geodesic support
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupportPair:
    """One collapse/regrow stage of a geodesic: source splits out, target in."""

    source: tuple[tuple[Split, float], ...]
    target: tuple[tuple[Split, float], ...]
    breakpoint: float  # path fraction at which the pair crosses its boundary


@dataclass(frozen=True)
class GeodesicSupport:
    """Common splits (with both lengths) plus the ordered support pairs."""

    common: tuple[tuple[Split, float, float], ...]
    pairs: tuple[SupportPair, ...]

    def to_dict(self) -> dict:
        return {
            "common": [
                {"split": s.key(), "length_a": l1, "length_b": l2}
                for s, l1, l2 in self.common
            ],
            "pairs": [
                {
                    "source": [{"split": s.key(), "length": l} for s, l in pr.source],
                    "target": [{"split": s.key(), "length": l} for s, l in pr.target],
                    "ratio_breakpoint": pr.breakpoint,
                }
                for pr in self.pairs
            ],
        }


def _exact_weights(items: list[tuple[int, float]]) -> tuple[list[int], int]:
    """Each ``l * l``, a binary fraction ``n/d``, scaled exactly to the
    largest ``d`` of its side, and that ``d``."""
    if len(items) == 1:
        l = items[0][1]
        n, d = (l * l).as_integer_ratio()
        return [n], d
    ratios = [(l * l).as_integer_ratio() for _, l in items]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios], den


def _by_clash(mask: int, items: list[tuple[int, float]]):
    """``items`` split into those that clash with ``mask`` and the rest."""
    near, far = [], []
    for item in items:
        (near if _clash(mask, item[0]) else far).append(item)
    return near, far


def _split_pair(A: list[tuple[int, float]], B: list[tuple[int, float]]):
    """The two sub-pairs of a support pair, or ``None`` when it is final.

    Squared lengths become integers ``R_i`` and ``S_j`` (see
    :func:`_exact_weights`) with side totals ``TA`` and ``TB``.  The cover
    weights ``R_i/TA`` and ``S_j/TB`` are scaled by ``TA*TB`` to the integers
    ``R_i*TB`` and ``S_j*TA``, so a whole side weighs exactly ``TA*TB`` and
    the strict test ``weight < 1`` is exact.

    A side of one split ``a`` has two covers of its clashing set ``N(a)``:
    ``{a}``, weighing exactly 1, and ``N(a)``, lighter whenever it is not the
    whole other side and every weight is positive (a zero weight could tie).
    Then ``N(a)`` is the unique minimum and no max-flow is needed.
    """
    if not A or not B:
        return None
    if (len(A) == 1 or len(B) == 1) and all(l * l for _, l in (*A, *B)):
        if len(A) == 1:
            near, far = _by_clash(A[0][0], B)
            return (([], far), (A, near)) if far else None
        near, far = _by_clash(B[0][0], A)
        return ((near, B), (far, [])) if far else None
    (ra, _), (rb, _) = _exact_weights(A), _exact_weights(B)
    ta, tb = sum(ra), sum(rb)
    if ta == 0 or tb == 0:
        return None
    edges = [
        (i, j)
        for i, (ma, _) in enumerate(A)
        for j, (mb, _) in enumerate(B)
        if _clash(ma, mb)
    ]
    cover_a, cover_b, weight = _min_weight_cover(
        [r * tb for r in ra], [r * ta for r in rb], edges)
    if weight >= ta * tb:
        return None
    c1 = [A[i] for i in range(len(A)) if i in cover_a]
    c2 = [A[i] for i in range(len(A)) if i not in cover_a]
    d2 = [B[j] for j in range(len(B)) if j in cover_b]
    d1 = [B[j] for j in range(len(B)) if j not in cover_b]
    return (c1, d1), (c2, d2)


def _refine_pairs(a_items: list[tuple[int, float]], b_items: list[tuple[int, float]]):
    """Split support pairs until no pair admits a cover of weight < 1.

    Each pair is solved once: its two halves are refined in turn, so the
    final pairs are the leaves of a binary tree of cover problems.
    """
    halves = _split_pair(a_items, b_items)
    if halves is None:
        return [(a_items, b_items)] if a_items or b_items else []
    return [pr for C, D in halves for pr in _refine_pairs(C, D)]


def _norm(items: list[tuple[int, float]]) -> float:
    return math.sqrt(math.fsum(l * l for _, l in items))


def _breakpoint(a: float, b: float) -> float:
    """Path fraction at which a pair with side norms ``a``, ``b`` crosses."""
    if a == 0.0:
        return 0.0
    if b == 0.0:
        return 1.0
    return a / (a + b)


def _regions(common, a_items, b_items):
    """The uncommon items grouped into ``(A_r, B_r)`` regions.

    An uncommon split's region is the smallest common split containing it,
    or the root; splits of different regions never clash.  The common
    splits are sorted by size once, and each uncommon split scans only those
    larger than itself up to the first that contains it.  Without common
    splits, without items on one side, or with a square ``l * l`` that
    underflows to zero (its ties are left to the whole refinement), there
    is one region.
    """
    if not (common and a_items and b_items):
        return [(a_items, b_items)]
    outer = sorted((m for m, _, _ in common), key=int.bit_count)
    sizes = [m.bit_count() for m in outer]
    full = len(outer)
    groups: dict[int, tuple[list, list]] = {}
    for side, items in enumerate((a_items, b_items)):
        for item in items:
            m, l = item
            if not l * l:
                return [(a_items, b_items)]
            i = bisect_right(sizes, m.bit_count())
            while i < full and m & ~outer[i]:
                i += 1
            groups.setdefault(i, ([], []))[side].append(item)
    return list(groups.values())


def _sorted_pairs(A, B):
    """One region's refined pairs ``(A, B, |A|, |B|)``, checked for order."""
    pairs = [(A, B, _norm(A), _norm(B)) for A, B in _refine_pairs(A, B)]
    # ratio sequence must be non-decreasing; tolerate exact ties only
    bps = [_breakpoint(a, b) for _, _, a, b in pairs]
    for u, v in zip(bps, bps[1:]):
        if u > v + 1e-9:
            raise InvalidArgumentError(
                f"geodesic support refinement produced unsorted ratios: {bps}")
    return pairs


def _exact_ratio(A, B) -> tuple[int, int]:
    """``sum(l * l for A) / sum(l * l for B)`` of the float squares, exactly,
    as ``(num, den)``; ``den`` is 0 for an empty ``B``."""
    if not B:
        return 1, 0
    if not A:
        return 0, 1
    (ra, da), (rb, db) = _exact_weights(A), _exact_weights(B)
    return sum(ra) * db, da * sum(rb)


def _cross(r: tuple[int, int], s: tuple[int, int]) -> int:
    """Negative, zero or positive as the exact ratio ``r`` is below, equal
    to or above ``s``."""
    return r[0] * s[1] - s[0] * r[1]


def _joined(run, a_items, b_items):
    """The pairs of ``run``, whose ratios tie, as one pair; each side keeps
    the order of ``a_items`` or ``b_items``."""
    in_a = {m for pr in run for m, _ in pr[0]}
    in_b = {m for pr in run for m, _ in pr[1]}
    A = [item for item in a_items if item[0] in in_a]
    B = [item for item in b_items if item[0] in in_b]
    return A, B, _norm(A), _norm(B)


def _support(x: dict[int, float], y: dict[int, float]):
    """Common ``(mask, length_x, length_y)`` triples and the ordered support
    pairs ``(A, B, |A|, |B|)`` between two internal maps.

    Each region is refined on its own; the regions' pairs are then merged in
    the order of their exact ratios, and pairs of exactly equal ratio become
    one pair whose sides keep the order of ``x`` and ``y``, as the whole
    refinement never splits such a tie.  Two maps of one orthant (the same
    splits) have every split common and no pairs, which is returned at once.
    """
    if x.keys() == y.keys():
        return [(m, l, y[m]) for m, l in x.items()], []
    common = [(m, l, y[m]) for m, l in x.items() if m in y]
    a_items = [(m, l) for m, l in x.items() if m not in y]
    b_items = [(m, l) for m, l in y.items() if m not in x]
    regions = _regions(common, a_items, b_items)
    if len(regions) == 1:
        return common, _sorted_pairs(*regions[0])
    keyed = sorted(((_exact_ratio(pr[0], pr[1]), pr)
                    for region in regions for pr in _sorted_pairs(*region)),
                   key=cmp_to_key(lambda r, s: _cross(r[0], s[0])))
    pairs, run = [], []
    for k, (ratio, pr) in enumerate(keyed):
        run.append(pr)
        if k + 1 == len(keyed) or _cross(ratio, keyed[k + 1][0]):
            pairs.append(run[0] if len(run) == 1 else _joined(run, a_items, b_items))
            run = []
    return common, pairs


def _geodesic_length(common, pairs) -> float:
    sq = math.fsum((l1 - l2) ** 2 for _, l1, l2 in common)
    sq += math.fsum((a + b) ** 2 for _, _, a, b in pairs)
    return math.sqrt(sq)


def _vector_distance(u: Sequence[float], v: Sequence[float]) -> float:
    return math.sqrt(math.fsum((a - b) ** 2 for a, b in zip(u, v)))


def _coords(t: Tree) -> tuple[dict[int, float], tuple[float, ...]]:
    """A tree's internal ``{mask: length}`` map and ``(root, leaves)`` vector."""
    return {s.mask: l for s, l in t.internal_lengths.items()}, t.leaf_root_vector()


def _geodesic(t1: Tree, t2: Tree):
    """``(common, pairs, u, v)``: the support and both leaf/root vectors."""
    if t1.p != t2.p:
        raise DimensionError(f"trees have different leaf counts: {t1.p} != {t2.p}")
    (x, u), (y, v) = _coords(t1), _coords(t2)
    return (*_support(x, y), u, v)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def bhv_distance(t1: Tree, t2: Tree) -> tuple[float, GeodesicSupport]:
    """Geodesic length over internal-edge coordinates, with its support."""
    common, pairs, _, _ = _geodesic(t1, t2)
    p = t1.p
    support = GeodesicSupport(
        tuple((Split(p, m), l1, l2) for m, l1, l2 in common),
        tuple(
            SupportPair(tuple((Split(p, m), l) for m, l in A),
                        tuple((Split(p, m), l) for m, l in B),
                        _breakpoint(a, b))
            for A, B, a, b in pairs
        ),
    )
    return _geodesic_length(common, pairs), support


def tree_distance(t1: Tree, t2: Tree, combine: str = "sum") -> float:
    """Full tree metric: internal geodesic plus leaf/root Euclidean term.

    ``combine="sum"`` adds the two components (the default metric);
    ``combine="l2"`` combines them in quadrature for sensitivity checks.
    """
    common, pairs, u, v = _geodesic(t1, t2)
    internal = _geodesic_length(common, pairs)
    leaf = _vector_distance(u, v)
    if combine == "sum":
        return internal + leaf
    if combine == "l2":
        return math.hypot(internal, leaf)
    raise InvalidArgumentError(f"unknown combine rule {combine!r}")


def matrix_distance(m1, m2, tol: float = DEFAULT_TOL, combine: str = "sum") -> float:
    """Geodesic distance between two ultrametric matrices (via their trees)."""
    a = as_matrix(m1)
    b = as_matrix(m2)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return tree_distance(matrix_to_tree(a, tol), matrix_to_tree(b, tol), combine)


# ---------------------------------------------------------------------------
# geodesic evaluation and Frechet mean
# ---------------------------------------------------------------------------

def _point(common, pairs, u: Sequence[float], v: Sequence[float], s: float):
    """Internal map and vector a fraction ``s`` along a geodesic; the map
    holds the common splits and one side of each pair."""
    internal = {m: (1.0 - s) * l1 + s * l2 for m, l1, l2 in common}
    for A, B, a, b in pairs:
        bp = _breakpoint(a, b)
        if s < bp:
            scale, side = ((1.0 - s) * a - s * b) / a, A
        elif s > bp:
            scale, side = (s * b - (1.0 - s) * a) / b, B
        else:
            continue
        for m, l in side:
            w = scale * l
            if w > 0.0:
                internal[m] = w
    vec = tuple((1.0 - s) * x + s * y for x, y in zip(u, v))
    return internal, vec


def geodesic_point(t1: Tree, t2: Tree, s: float) -> Tree:
    """The point a fraction ``s`` of the way along the unique geodesic."""
    if not 0.0 <= s <= 1.0:
        raise InvalidArgumentError(f"s={s} outside [0, 1]")
    if s == 0.0:
        return t1
    if s == 1.0:
        return t2
    return _tree_from_masks(t1.p, *_point(*_geodesic(t1, t2), s))


MEAN_PASSES = 2  # whole passes over the input in the default mean budget


@dataclass
class MeanConfig:
    """The step budget of :func:`frechet_mean`.

    ``max_iterations`` caps the number of steps and must be an integer of
    at least 1 (a boolean is refused); ``None`` means
    ``MEAN_PASSES * len(trees)``, two whole passes over the input, so that
    every tree is visited equally often.
    """

    max_iterations: int | None = None

    def __post_init__(self):
        if self.max_iterations is not None:
            check_budget("max_iterations", self.max_iterations)


def check_budget(name: str, value) -> None:
    """Refuse a mean budget ``value`` that is not an integer of at least 1;
    a boolean is refused.  ``name`` is the field named in the error."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InvalidArgumentError(f"{name} must be an integer, not {value!r}")
    if value < 1:
        raise InvalidArgumentError(f"{name} must be >= 1")


def _stride(n: int) -> int:
    """The integer nearest ``0.618 * n`` that is coprime to ``n``.

    Steps ``k * g mod n`` visit every residue once per ``n`` steps, and
    consecutive steps land about 0.618 of the input apart, so runs of
    similar trees in chain order are not visited one after another.
    """
    return min((g for g in range(1, n + 1) if math.gcd(g, n) == 1),
               key=lambda g: abs(g - 0.618 * n))


def frechet_mean(trees: Sequence[Tree], cfg: MeanConfig | None = None) -> Tree:
    """Iterative mean: step toward each tree in turn with shrinking weights.

    From iterate ``x_k``, move to the point at fraction ``1/(k+1)`` along the
    geodesic from ``x_k`` to tree ``k * g mod n``, with ``g`` from
    :func:`_stride`; the iterate starts at tree 0.  The order is fixed, so
    the mean is a function of its input, and it does not follow the input's
    own order, which on chain output holds runs of one topology (Sturm 2003,
    *Contemp. Math.* 338; Bačák 2014, *SIAM J. Optim.* 24(3)).  On a space
    of non-positive curvature this converges to the unique minimizer of
    ``sum(tree_distance(x, t, combine="l2") ** 2)``: the steps follow the
    product geodesic, whose length combines the internal and leaf/root
    terms in quadrature, not the default ``"sum"`` metric.
    """
    if not trees:
        raise InvalidArgumentError("frechet_mean needs at least one tree")
    ps = {t.p for t in trees}
    if len(ps) > 1:
        raise DimensionError(f"trees have mixed leaf counts: {sorted(ps)}")
    n = len(trees)
    max_iter = (cfg or MeanConfig()).max_iterations or MEAN_PASSES * n
    g = _stride(n)
    coords = [_coords(t) for t in trees]
    x, u = coords[0]
    for k in range(1, max_iter + 1):
        y, v = coords[k * g % n]
        if y == x and v == u:  # the target is the iterate: leave it exactly
            continue
        x, u = _point(*_support(x, y), u, v, 1.0 / (k + 1))
    return _tree_from_masks(trees[0].p, x, u)
