"""Canonical Newick text form for rooted trees on leaves ``0..p``.

Grammar: leaf labels are the integers ``0..p`` with ``p <= 64``, each
appearing once; label 0 (the root-side leaf) appears as a direct child of
the top-level node and its branch length is the root edge length.  Every
clade has two or more children.  Leaf 0 prints first, then siblings in
ascending leaf mask (bit ``i - 1`` for leaf ``i``, so ``(2,3)`` precedes
``(1,4)``); lengths print with 17 significant digits so reparsing is exact,
and zero-length internal edges are never emitted (multifurcation is
structural).  Example star tree on three leaves::

    (0:1,1:1,2:1,3:1);

The reader refuses, as ``InvalidTreeError``, a repeated leaf, a clade with
one child, a label above 64 and leaf 0 inside a clade, each where it is
read; text outside the grammar is an ``InvalidArgumentError``.
"""

from __future__ import annotations

from .errors import InvalidArgumentError, InvalidTreeError
from .treespace import MAX_LEAVES, Split, Topology, Tree, laminar_children


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def tree_to_newick(t: Tree) -> str:
    """Serialize a tree in the canonical grammar above."""
    p = t.p
    children = laminar_children(p, [s.mask for s in t.topology.splits])
    full = (1 << p) - 1

    def render(mask: int) -> str:
        if mask.bit_count() == 1:
            leaf = mask.bit_length()
            return f"{leaf}:{_fmt(t.leaf_lengths[leaf - 1])}"
        parts = [render(c) for c in children[mask]]
        length = t.internal_lengths[Split(p, mask)]
        return f"({','.join(parts)}):{_fmt(length)}"

    tops = [f"0:{_fmt(t.root_length)}"] + [render(c) for c in children[full]]
    return f"({','.join(tops)});"


class _Parser:
    def __init__(self, text: str):
        self.text = text.strip()
        self.pos = 0
        self.edges: dict[int, float] = {}  # child leaf mask -> edge length

    def error(self, msg: str):
        raise InvalidArgumentError(f"newick parse error at {self.pos}: {msg}")

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}, found {self.peek()!r}")
        self.pos += 1

    def scan(self, chars: str) -> str:
        start = self.pos
        while self.peek() and self.peek() in chars:
            self.pos += 1
        return self.text[start:self.pos]

    def parse_label(self) -> int:
        digits = self.scan("0123456789")
        if not digits:
            self.error("expected an integer leaf label")
        digits = digits.lstrip("0") or "0"
        if len(digits) > 2 or int(digits) > MAX_LEAVES:
            raise InvalidTreeError(f"leaf label {digits:.20} exceeds {MAX_LEAVES}")
        return int(digits)

    def parse_length(self) -> float:
        self.expect(":")
        text = self.scan("+-0123456789.eE")
        if not text:
            self.error("expected a branch length")
        try:
            return float(text)
        except ValueError:
            self.error(f"bad length {text!r}")

    def parse_clade(self, depth: int) -> int:
        """Read ``(child:length,...)``, file each child edge, return the leaf mask.

        Leaf ``i`` has mask bit ``i-1`` and leaf 0 the empty mask, so every
        edge is filed under its split mask and the root edge under key 0.
        A leaf read twice finds its mask filed already.
        """
        if depth > MAX_LEAVES:
            self.error(f"clades nested deeper than {MAX_LEAVES} leaves allow")
        self.expect("(")
        mask = children = 0
        while True:
            if self.peek() == "(":
                child = self.parse_clade(depth + 1)
            else:
                label = self.parse_label()
                child = 1 << label >> 1
                if child in self.edges:
                    raise InvalidTreeError(f"leaf {label} appears twice")
                if label == 0 and depth:
                    raise InvalidTreeError("leaf 0 must be a direct child of the top node")
            self.edges[child] = self.parse_length()
            mask |= child
            children += 1
            if self.peek() != ",":
                break
            self.pos += 1
        self.expect(")")
        if children < 2:
            raise InvalidTreeError(f"clade ending at {self.pos} has one child")
        return mask


def newick_to_tree(text: str) -> Tree:
    """Parse the canonical grammar back into a tree.

    Validates that labels are exactly ``0..p`` with ``p <= 64``, each read
    once, with 0 a direct child of the top-level node, and that every clade
    has two or more children; :class:`Tree` checks the lengths.
    """
    parser = _Parser(text)
    mask = parser.parse_clade(0)
    if parser.peek() == ";":
        parser.pos += 1
    if parser.pos != len(parser.text):
        parser.error("trailing characters after ';'")
    edges, p = parser.edges, mask.bit_length()
    if 0 not in edges:
        raise InvalidTreeError("leaf 0 must be a direct child of the top node")
    if mask != (1 << p) - 1:
        raise InvalidTreeError(f"labels must be exactly 0..{p}")
    internal = {Split(p, m): v for m, v in edges.items() if m.bit_count() > 1}
    return Tree(Topology(p, frozenset(internal)), internal,
                [edges[1 << i] for i in range(p)], edges[0])
