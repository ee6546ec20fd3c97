"""Rooted leaf-labeled trees as compatible split sets with edge lengths.

Leaves are labeled ``0..p`` where label 0 is the leaf attached to the root
end of the tree.  A split is the set of labels in ``{1..p}`` on the far side
of an edge, stored as a bitmask with leaf ``i`` at bit ``i-1``; label 0 is
never a member, so complements implicitly contain it.  Singleton splits are
leaf edges, the full set ``{1..p}`` is the root edge, and everything of size
``2..p-1`` is an internal edge that carries topology.

The canonical ordering of splits, used everywhere iteration order matters,
is ascending unsigned bitmask value.

``random_tree`` and both topology priors draw through one recursive
fragmentation, ``_fragment``, and differ only in how one block splits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import _betasplit
from .errors import DimensionError, InvalidArgumentError, InvalidTreeError
from .rng import RngStream

MAX_LEAVES = 64


@dataclass(frozen=True)
class Split:
    """A nonempty subset of ``{1..p}``, the atomic unit of tree structure."""

    p: int
    mask: int

    def __post_init__(self):
        if not (1 <= self.p <= MAX_LEAVES):
            raise InvalidArgumentError(f"leaf count {self.p} outside 1..{MAX_LEAVES}")
        if self.mask <= 0 or self.mask >= (1 << self.p):
            raise InvalidArgumentError(
                f"mask {self.mask:#x} is not a nonempty subset of 1..{self.p}"
            )
        # the dataclass hash, taken once: splits key every lengths map
        object.__setattr__(self, "_hash", hash((self.p, self.mask)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_leaves(cls, p: int, leaves: Iterable[int]) -> "Split":
        mask = 0
        for leaf in leaves:
            if isinstance(leaf, bool):  # equal to 0 or 1, but no label
                raise InvalidArgumentError(f"leaf {leaf} is a boolean, not a label")
            if not 1 <= leaf <= p:
                raise InvalidArgumentError(f"leaf {leaf} outside 1..{p}")
            bit = 1 << (leaf - 1)
            if mask & bit:
                raise InvalidArgumentError(f"leaf {leaf} appears twice")
            mask |= bit
        return cls(p, mask)

    @classmethod
    def root(cls, p: int) -> "Split":
        return cls(p, (1 << p) - 1)

    @classmethod
    def leaf(cls, p: int, i: int) -> "Split":
        return cls.from_leaves(p, (i,))

    def leaves(self) -> tuple[int, ...]:
        return self._leaves

    # kept after the first call: an archive spells every split of every
    # record by these
    @cached_property
    def _leaves(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.p) if self.mask >> i & 1)

    @cached_property
    def _key(self) -> str:
        return ",".join(map(str, self._leaves))

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def is_leaf_edge(self) -> bool:
        return self.size == 1

    @property
    def is_root_edge(self) -> bool:
        return self.mask == (1 << self.p) - 1

    @property
    def is_internal(self) -> bool:
        return 2 <= self.size <= self.p - 1

    def key(self) -> str:
        """Canonical string form, e.g. ``"1,2,5"``."""
        return self._key

    def __repr__(self):
        return f"Split({{{self.key()}}}/{self.p})"


def split_compatible(a: Split, b: Split) -> bool:
    """Whether two splits can coexist in one rooted tree.

    True iff the splits are identical or exactly one of the intersections
    ``a&b``, ``a&~b``, ``~a&b`` is empty (complements taken inside
    ``{1..p}``; label 0 lies in both complements, so ``~a&~b`` is never
    empty).  Equivalently, the leaf sets are nested or disjoint.
    """
    if a.p != b.p:
        raise DimensionError(f"splits have different leaf counts: {a.p} != {b.p}")
    return not _clash(a.mask, b.mask)


def _clash(ma: int, mb: int) -> bool:
    """Two distinct splits clash unless nested or disjoint: the one compatibility rule."""
    return bool(ma & mb and ma & ~mb and mb & ~ma)


def set_compatible(splits: Iterable[Split]) -> bool:
    """Whether every unordered pair in a collection is compatible."""
    items = list(splits)
    ps = {s.p for s in items}
    if len(ps) > 1:
        raise DimensionError(f"splits have mixed leaf counts: {sorted(ps)}")
    for a, b in itertools.combinations(items, 2):
        if not split_compatible(a, b):
            return False
    return True


@dataclass(frozen=True)
class Topology:
    """A compatible set of internal splits; the shape of a rooted tree."""

    p: int
    splits: frozenset[Split] = field(default_factory=frozenset)

    def __post_init__(self):
        if not (1 <= self.p <= MAX_LEAVES):
            raise InvalidArgumentError(f"leaf count {self.p} outside 1..{MAX_LEAVES}")
        object.__setattr__(self, "splits", frozenset(self.splits))
        for s in self.sorted_splits():  # errors do not depend on insertion order
            if s.p != self.p:
                raise DimensionError(f"split {s} does not match p={self.p}")
            if not s.is_internal:
                raise InvalidTreeError(f"{s} is not internal (size 2..{self.p - 1})")
        if len(self.splits) > max(self.p - 2, 0):
            raise InvalidTreeError(
                f"{len(self.splits)} internal splits exceeds p-2={self.p - 2}"
            )
        # two masks are compatible exactly when their meet is 0 or one of
        # them; the clash matrix is symmetric, so its first entry in row
        # order is the first incompatible pair (i < j) of the sorted masks
        masks = self.sorted_masks()
        bits = np.array(masks, dtype=np.uint64)
        meet = bits[:, None] & bits
        clash = np.flatnonzero((meet != 0) & (meet != bits[:, None]) & (meet != bits))
        if clash.size:
            i, j = divmod(int(clash[0]), len(masks))
            raise InvalidTreeError(
                f"incompatible splits {Split(self.p, masks[i])} and {Split(self.p, masks[j])}"
            )

    @classmethod
    def from_leaf_sets(cls, p: int, leaf_sets: Iterable[Iterable[int]]) -> "Topology":
        return cls(p, frozenset(Split.from_leaves(p, ls) for ls in leaf_sets))

    @property
    def is_resolved(self) -> bool:
        return len(self.splits) == self.p - 2

    def sorted_splits(self) -> tuple[Split, ...]:
        return self._sorted_splits

    @cached_property  # kept: the records of one topology share it
    def _sorted_splits(self) -> tuple[Split, ...]:
        return tuple(sorted(self.splits, key=lambda s: s.mask))

    def sorted_masks(self) -> list[int]:
        return [s.mask for s in self.sorted_splits()]

    def __repr__(self):
        inner = ";".join(s.key() for s in self.sorted_splits())
        return f"Topology(p={self.p}, [{inner}])"


def laminar_children(p: int, masks: Iterable[int]) -> dict[int, list[int]]:
    """Containment tree of ``{full} | masks | {singletons}``.

    Returns, for every node mask, the list of its children masks (the
    maximal proper subsets among the other nodes), sorted ascending.  The
    children of each node partition it; this is the node structure of the
    rooted tree with the given internal splits.
    """
    by_size = sorted({(1 << p) - 1, *masks, *(1 << i for i in range(p))},
                     key=lambda m: (m.bit_count(), m))
    children: dict[int, list[int]] = {m: [] for m in by_size}
    for i, m in enumerate(by_size[:-1]):  # all but the full set, which sorts last
        for cand in by_size[i + 1:]:  # the first is the smallest node containing m
            if m & ~cand == 0:
                children[cand].append(m)
                break
    for m in children:
        children[m].sort()
    return children


def resolution_candidates(topology: Topology, removed: Split) -> list[Split]:
    """Every internal split that can replace ``removed`` in a topology.

    With ``removed`` deleted, returns in canonical (ascending bitmask) order
    all internal splits compatible with the remaining set and not already in
    it.  The list always contains ``removed`` itself; callers exclude it
    when proposing a strict topology change.  For a resolved topology the
    list has exactly three entries.
    """
    if removed not in topology.splits:
        raise InvalidArgumentError(f"{removed} is not a split of {topology}")
    remainder = [m for m in topology.sorted_masks() if m != removed.mask]
    return [Split(topology.p, m) for m in _growth_candidates(topology.p, remainder)]


def _growth_candidates(p: int, masks: list[int]) -> list[int]:
    """Masks of all internal splits compatible with (and absent from) a split set.

    A compatible new split is exactly a union of 2..(c-1) children of some
    node with c >= 3 children in the containment tree.
    """
    return _unions(laminar_children(p, masks).values())


def _unions(child_lists: Iterable[list[int]]) -> list[int]:
    """Every union of 2..(c-1) masks of each list of c >= 3 sibling masks, ascending.

    Given the children lists of a containment tree, these are the masks of
    :func:`_growth_candidates`; unions from distinct nodes are distinct, so
    no deduplication is needed.
    """
    out: list[int] = []
    for ch in child_lists:
        c = len(ch)
        if c < 3:
            continue
        for r in range(2, c):
            for combo in itertools.combinations(ch, r):
                m = 0
                for x in combo:
                    m |= x
                out.append(m)
    out.sort()
    return out


class LaminarTree:
    """The containment tree of a split set, kept one split at a time.

    ``children`` and the derived ``parent`` map are those of
    :func:`laminar_children`; ``events`` maps each node with children to
    ``event_log_prob(children)``, with the pricer the tree was built with
    (:meth:`PriorSpec.event_log_prob`).  :meth:`toggle` rewrites only the
    node it drops or grows and that node's parent.  It replaces every
    children list it changes and never mutates one in place, so shallow
    copies of the three dicts (:meth:`copy`) are an independent snapshot.
    """

    def __init__(self, p: int, masks: Iterable[int], event_log_prob):
        self.p = p
        self.event_log_prob = event_log_prob
        self.children = laminar_children(p, masks)
        self.parent = {c: m for m, ch in self.children.items() for c in ch}
        self.events = {m: event_log_prob(ch) for m, ch in self.children.items() if ch}

    def copy(self) -> "LaminarTree":
        out = object.__new__(LaminarTree)
        out.p, out.event_log_prob = self.p, self.event_log_prob
        out.children, out.parent, out.events = \
            dict(self.children), dict(self.parent), dict(self.events)
        return out

    def log_prior(self) -> float:
        """The topology log prior: the correctly rounded sum of the event
        terms, which no order of the blocks changes."""
        return math.fsum(self.events.values())

    def candidates(self, removed: int | None = None) -> list[int]:
        """The masks a split can grow into, in ascending order.

        With ``removed``, the masks that can replace it: those of the splits
        left when it is dropped, ``removed`` itself left out.
        """
        kids = self.children
        if removed is None:
            return _unions(kids[node] for node in self.events)
        up = self.parent[removed]
        merged = sorted([c for c in kids[up] if c != removed] + kids[removed])
        return [m for m in _unions(merged if node == up else kids[node]
                                   for node in self.events if node != removed)
                if m != removed]

    def toggle(self, mask: int):
        """Drop the node ``mask``, whose children pass to its parent, or grow
        it if absent, taking the children of its parent that it covers."""
        kids, parent, events = self.children, self.parent, self.events
        if mask in kids:
            up = parent.pop(mask)
            moved = kids.pop(mask)
            del events[mask]
            kids[up] = sorted([c for c in kids[up] if c != mask] + moved)
            for c in moved:
                parent[c] = up
        else:
            up = mask & -mask  # a leaf of mask, then its ancestors up to mask's parent
            while up & ~mask == 0:
                up = parent[up]
            moved = [c for c in kids[up] if c & ~mask == 0]
            kids[up] = sorted([c for c in kids[up] if c & ~mask] + [mask])
            kids[mask] = moved
            parent[mask] = up
            for c in moved:
                parent[c] = mask
            events[mask] = self.event_log_prob(moved)
        events[up] = self.event_log_prob(kids[up])

    def check_consistency(self, masks: Iterable[int]):
        """Raise ``AssertionError`` unless the children, parents and event
        terms equal those of a fresh tree of the internal ``masks``."""
        fresh = LaminarTree(self.p, masks, self.event_log_prob)
        for name in ("children", "parent", "events"):
            if getattr(self, name) != getattr(fresh, name):
                raise AssertionError(f"stale {name}")


@dataclass(frozen=True)
class Tree:
    """A topology plus strictly positive edge lengths.

    ``internal_lengths`` maps each internal split to its length (> 0),
    ``leaf_lengths[i-1]`` is the length of leaf edge ``i`` (> 0), and
    ``root_length`` is the length of the root edge (>= 0).  Every length
    is finite.
    """

    topology: Topology
    internal_lengths: Mapping[Split, float]
    leaf_lengths: tuple[float, ...]
    root_length: float

    def __post_init__(self):
        items = self.internal_lengths.items()
        if tuple(self.internal_lengths) != self.topology.sorted_splits():  # not ascending
            items = sorted(items, key=lambda kv: kv[0].mask)
        object.__setattr__(self, "internal_lengths", {s: float(v) for s, v in items})
        object.__setattr__(self, "leaf_lengths", tuple(map(float, self.leaf_lengths)))
        object.__setattr__(self, "root_length", float(self.root_length))
        if self.internal_lengths.keys() != self.topology.splits:
            raise InvalidTreeError("internal_lengths keys must equal topology splits")
        self._check_lengths()

    @classmethod
    def _from_floats(cls, topology: Topology, internal_lengths: dict[Split, float],
                     leaf_lengths: tuple[float, ...], root_length: float) -> "Tree":
        """The tree of lengths that are already floats, ``internal_lengths``
        keyed by the splits of ``topology`` in ascending mask order: only the
        lengths are checked, by the rule every tree is built with."""
        tree = object.__new__(cls)
        tree.__dict__.update(topology=topology, internal_lengths=internal_lengths,
                             leaf_lengths=leaf_lengths, root_length=root_length)
        tree._check_lengths()
        return tree

    def _check_lengths(self):
        """Raise ``InvalidTreeError`` unless every length is finite, the
        internal and leaf lengths are positive, the root's is non-negative
        and there are ``p`` leaf lengths; the first of these that fails is
        the one named."""
        internal, leaves, root = \
            self.internal_lengths.values(), self.leaf_lengths, self.root_length
        # a NaN or inf term leaves the sum non-finite; a sum that overflows
        # only sends the tree through the checks that name a fault
        if (math.isfinite(sum(internal) + sum(leaves) + root) and len(leaves) == self.p
                and min(internal, default=1.0) > 0 and min(leaves) > 0 and root >= 0):
            return
        if not all(map(math.isfinite, (*internal, *leaves, root))):
            raise InvalidTreeError("edge lengths must be finite")
        if any(v <= 0 for v in internal):
            raise InvalidTreeError("internal edge lengths must be positive")
        if len(leaves) != self.p:
            raise InvalidTreeError(f"expected {self.p} leaf lengths, got {len(leaves)}")
        if any(v <= 0 for v in leaves):
            raise InvalidTreeError("leaf edge lengths must be positive")
        if root < 0:
            raise InvalidTreeError("root edge length must be non-negative")

    @property
    def p(self) -> int:
        return self.topology.p

    @property
    def num_lengths(self) -> int:
        """Stored coordinates: root + p leaves + internal splits."""
        return 1 + self.p + len(self.internal_lengths)

    def coordinates(self) -> Iterator[tuple[Split, float]]:
        """All stored (split, length) pairs in canonical ascending-mask order."""
        items = [(Split(self.p, 1 << i), x) for i, x in enumerate(self.leaf_lengths)]
        items += list(self.internal_lengths.items())
        items.append((Split.root(self.p), self.root_length))
        items.sort(key=lambda kv: kv[0].mask)
        return iter(items)

    def length_of(self, split: Split) -> float:
        if split.is_root_edge:
            return self.root_length
        if split.is_leaf_edge:
            return self.leaf_lengths[split.leaves()[0] - 1]
        return self.internal_lengths[split]

    def leaf_root_vector(self) -> tuple[float, ...]:
        """The ``(root, leaf_1, ..., leaf_p)`` coordinate vector."""
        return (self.root_length,) + self.leaf_lengths

    def root_to_leaf_depth(self, leaf: int) -> float:
        """Sum of edge lengths on the path from the root down to a leaf."""
        bit = 1 << (leaf - 1)
        total = self.root_length + self.leaf_lengths[leaf - 1]
        for s, v in self.internal_lengths.items():
            if s.mask & bit:
                total += v
        return total

    def __repr__(self):
        return (f"Tree(p={self.p}, splits={len(self.internal_lengths)}, "
                f"root={self.root_length:.4g})")


class _TopologyTable:
    """The validated topologies of one chain or one archive load, by internal masks.

    ``topologies`` maps each frozenset of internal masks looked up to its
    :class:`Topology`, validated when first built; ``splits`` holds one
    :class:`Split` per mask across all of them.  Trees built through one
    table share one ``Topology`` per split set and one ``Split`` per split.
    """

    def __init__(self, p: int):
        self.p = p
        self.splits: dict[int, Split] = {}
        self.topologies: dict[frozenset[int], Topology] = {}

    def split(self, mask: int) -> Split:
        split = self.splits.get(mask)
        if split is None:
            split = self.splits[mask] = Split(self.p, mask)
        return split

    def lookup(self, masks: frozenset[int]) -> Topology:
        topology = self.topologies.get(masks)
        if topology is None:
            topology = Topology(self.p, frozenset(map(self.split, masks)))
            self.topologies[masks] = topology
        return topology


def _tree_from_masks(p: int, lengths: Mapping[int, float],
                     vec: Sequence[float] | None = None,
                     table: _TopologyTable | None = None) -> Tree:
    """The validated tree of ``{mask: length}`` coordinates.

    Internal masks of positive length become splits; internal lengths of
    zero are left out.  ``vec`` is the ``(root, leaf_1, ..., leaf_p)``
    vector; without it the root and leaf lengths are read from ``lengths``.
    The topology and its splits come from ``table``, a fresh one when it is
    None, so a topology is validated once per table; the tree checks its
    lengths every time.
    """
    if vec is None:
        vec = [lengths[(1 << p) - 1], *(lengths[1 << i] for i in range(p))]
    if table is None:
        table = _TopologyTable(p)
    internal = {m: v for m, v in lengths.items() if 2 <= m.bit_count() < p and v > 0.0}
    topology = table.lookup(frozenset(internal))
    return Tree(topology, {table.splits[m]: v for m, v in internal.items()},
                vec[1:], vec[0])


def star_tree(leaf_lengths: Iterable[float], root_length: float = 0.0) -> Tree:
    """The tree with no internal structure."""
    ll = tuple(float(x) for x in leaf_lengths)
    return Tree(Topology(len(ll)), {}, ll, root_length)


def _fragment(p: int, blocks_of, rng: RngStream) -> Topology:
    """The topology drawn by recursive fragmentation of ``{1..p}``.

    ``blocks_of(labels, rng)`` draws the ascending sub-blocks, two or more,
    of an ascending block of two or more labels.  Every sub-block with two
    or more labels is a split, fragmented in turn, depth first in the order
    the blocks were drawn.  Both topology priors draw through here.
    """
    splits: list[Split] = []

    def rec(labels: tuple[int, ...]):
        for block in blocks_of(labels, rng):
            if len(block) >= 2:
                splits.append(Split.from_leaves(p, block))
                rec(block)

    rec(tuple(range(1, p + 1)))
    return Topology(p, frozenset(splits))


def _beta_split_blocks(beta: float, labels: tuple[int, ...],
                       rng: RngStream) -> tuple[tuple[int, ...], ...]:
    """One beta-splitting fragmentation: the block with the smallest label, then the rest."""
    n = len(labels)
    k = 1 if n == 2 else _betasplit.sample_first_block_size(n, beta, rng)
    rest = list(labels[1:])
    picked = {labels[0]}
    for _ in range(k - 1):
        picked.add(rest.pop(rng.integers(len(rest))))
    return tuple(sorted(picked)), tuple(rest)


def _coalescent_tree(p: int, length_mean: float, rng: RngStream) -> Tree:
    """Merge lineages pairwise at increasing heights; every leaf ends equidistant."""
    heights = {i: 0.0 for i in range(1, p + 1)}
    groups: list[tuple[int, ...]] = [(i,) for i in range(1, p + 1)]
    height = 0.0
    internal: dict[Split, float] = {}
    parent_height: dict[tuple[int, ...], float] = {}
    while len(groups) > 1:
        height += rng.exponential(length_mean)
        i = rng.integers(len(groups))
        a = groups.pop(i)
        j = rng.integers(len(groups))
        b = groups.pop(j)
        merged = tuple(sorted(a + b))
        for block in (a, b):
            parent_height[block] = height
        groups.append(merged)
        if 2 <= len(merged) <= p - 1:
            internal[Split.from_leaves(p, merged)] = height
    # convert node heights to edge lengths (parent height minus own height)
    top = height
    lengths = {}
    for s, h in internal.items():
        ph = parent_height.get(s.leaves(), top)
        lengths[s] = ph - h
    leaf_lengths = tuple(parent_height[(i,)] for i in range(1, p + 1))
    root_length = rng.exponential(length_mean)
    return Tree(Topology(p, frozenset(lengths)), lengths, leaf_lengths, root_length)


def random_tree(p: int, mode: str = "uniform-binary", length_mean: float = 1.0,
                rng: RngStream | None = None) -> Tree:
    """Draw a random resolved tree.

    ``uniform-binary`` draws the topology uniformly over all ``(2p-3)!!``
    resolved shapes and all lengths i.i.d. exponential with the given mean.
    ``equidistant`` draws a coalescent-style shape whose root-to-leaf path
    sums are all equal.
    """
    if p < 2:
        raise InvalidArgumentError(f"random_tree requires p >= 2, got {p}")
    if rng is None:
        rng = RngStream(0)
    if mode == "uniform-binary":
        topology = _fragment(p, partial(_beta_split_blocks, -1.5), rng)
        internal = {s: rng.exponential(length_mean) for s in topology.sorted_splits()}
        leaf_lengths = tuple(rng.exponential(length_mean) for _ in range(p))
        root_length = rng.exponential(length_mean)
        return Tree(topology, internal, leaf_lengths, root_length)
    if mode == "equidistant":
        return _coalescent_tree(p, length_mean, rng)
    raise InvalidArgumentError(f"unknown mode {mode!r}")


def double_factorial(n: int) -> int:
    """``n!! = n * (n-2) * ...`` with the usual convention ``(-1)!! = 1``."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def enumerate_topologies(p: int) -> list[Topology]:
    """All resolved topologies on leaves ``1..p`` in canonical order.

    Exhaustive oracle for small p; there are ``(2p-3)!!`` of them.
    """
    if not 2 <= p <= 7:
        raise InvalidArgumentError(f"enumerate_topologies supports 2 <= p <= 7, got {p}")

    def rec(mask: int) -> list[frozenset[int]]:
        n = mask.bit_count()
        if n <= 1:
            return [frozenset()]
        bits = [1 << i for i in range(p) if mask >> i & 1]
        low, rest = bits[0], bits[1:]
        out = []
        for r in range(0, len(rest)):
            for combo in itertools.combinations(rest, r):
                left = low
                for b in combo:
                    left |= b
                right = mask ^ left
                if right == 0:
                    continue
                extra = frozenset(
                    m for m in (left, right) if 2 <= m.bit_count() <= p - 1
                )
                for sl in rec(left):
                    for sr in rec(right):
                        out.append(sl | sr | extra)
        return out

    full = (1 << p) - 1
    seen = sorted({tuple(sorted(s)) for s in rec(full)})
    return [
        Topology(p, frozenset(Split(p, m) for m in masks)) for masks in seen
    ]
