"""Persisted MCMC output: one record per retained iteration.

On disk an archive is JSON-lines, one object per record with keys
``iter``, ``log_prior``, ``log_lik``, ``splits`` (lists of sorted leaf
labels), ``lengths`` (internal lengths keyed by canonical split string),
``leaf_lengths`` and ``root_length``.  The likelihood trace (including
burn-in) is a two-column CSV ``iter,log_lik``.  A record builds its
validated :class:`Tree` once, on first use, and keeps it; a record made
with :meth:`ArchiveRecord.from_tree` keeps the tree it was made from.

Loading parses each distinct split spelling once and validates each
distinct split set once per archive, through the topology table a chain
keeps; every record, loaded or sampled, is made by
:meth:`ArchiveRecord.from_tree`, so its ``lengths`` are in ascending mask
order and the records of one split set share their splits and topology.
Every record's tree is still built, so its lengths are checked record by
record.
Writing spells each distinct split once, as reading parses each once: a
:class:`Split` keeps its leaf tuple and its key, and the records of one
chain share their splits.
A split listed twice, or two ``lengths`` keys that spell one split, is an
error rather than a double count, and so is a leaf repeated in one split.
Every length and score must be a JSON number and ``iter`` an integer; a
boolean or a numeric string is malformed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (DataError, DimensionError, InvalidArgumentError,
                     InvalidTreeError, TreecovError)
from .treespace import Split, Topology, Tree, _TopologyTable


@dataclass(frozen=True)
class ArchiveRecord:
    iteration: int
    log_prior: float
    log_lik: float
    splits: tuple[Split, ...]
    lengths: dict[Split, float]
    leaf_lengths: tuple[float, ...]
    root_length: float

    @property
    def log_posterior(self) -> float:
        return self.log_prior + self.log_lik

    def tree(self) -> Tree:
        """The record's validated tree, built on the first call and kept."""
        return self._tree

    @cached_property
    def _tree(self) -> Tree:
        p = len(self.leaf_lengths)
        return Tree(Topology(p, _distinct(self.splits)), dict(self.lengths),
                    self.leaf_lengths, self.root_length)

    @classmethod
    def from_tree(cls, iteration: int, log_prior: float, log_lik: float,
                  tree: Tree) -> "ArchiveRecord":
        """The record of ``tree``, which it keeps as its validated tree."""
        record = cls(iteration=iteration, log_prior=log_prior, log_lik=log_lik,
                     splits=tree.topology.sorted_splits(),
                     lengths=dict(tree.internal_lengths),
                     leaf_lengths=tree.leaf_lengths, root_length=tree.root_length)
        record.__dict__["_tree"] = tree  # the slot cached_property fills
        return record

    def to_json_dict(self) -> dict:
        return {
            "iter": self.iteration,
            "log_prior": self.log_prior,
            "log_lik": self.log_lik,
            "splits": [list(s.leaves()) for s in self.splits],
            "lengths": {s.key(): v for s, v in self.lengths.items()},
            "leaf_lengths": list(self.leaf_lengths),
            "root_length": self.root_length,
        }


def _distinct(splits) -> frozenset[Split]:
    """The set of ``splits``, none of which may be listed twice."""
    out = frozenset(splits)
    if len(out) != len(splits):
        seen: set[Split] = set()
        twice = next(s for s in splits if s in seen or seen.add(s))
        raise InvalidTreeError(f"{twice} is listed twice in splits")
    return out


def _check_numbers(d: dict):
    """Raise ``TypeError`` unless the numeric fields of record ``d`` hold JSON
    numbers and ``iter`` an integer: ``float`` reads ``true`` as 1.0 and
    ``"0.5"`` as 0.5."""
    if type(d["iter"]) is not int:
        raise TypeError(f"iter {d['iter']!r} is not an integer")
    kinds = {type(d["log_prior"]), type(d["log_lik"]), type(d["root_length"]),
             *map(type, d["leaf_lengths"]), *map(type, d["lengths"].values())}
    if not kinds <= {float, int}:
        bad = sorted(k.__name__ for k in kinds - {float, int})
        raise TypeError(f"a length or score is {', '.join(bad)}, not a number")


class _Reader:
    """Parses the records of one archive with ``p`` leaves.

    ``spellings`` maps each spelling of a split (a ``splits`` entry's leaf
    tuple, or a ``lengths`` key) to the one :class:`Split` that ``table``
    holds, which validates each split set as a chain's table does.  Only
    what parsed and validated is stored, so a bad spelling or split set
    raises the same error on every record that has it.
    """

    def __init__(self, p: int):
        self.p = p
        self.table = _TopologyTable(p)
        self.spellings: dict[tuple | str, Split] = {}

    def _listed(self, leaves) -> Split:
        try:
            spelling = tuple(leaves)
            hit = self.spellings.get(spelling)
        except TypeError:  # not a list of hashables: from_leaves raises its error
            spelling = hit = None
        # a float or bool leaf equals its int but is malformed, so it is
        # parsed (and raises)
        if hit is None or {*map(type, spelling)} != {int}:
            hit = self.table.split(Split.from_leaves(self.p, leaves).mask)
            if spelling is not None:
                self.spellings[spelling] = hit
        return hit

    def _keyed(self, key: str) -> Split:
        hit = self.spellings.get(key)
        if hit is None:
            hit = self.spellings[key] = self.table.split(Split.from_leaves(
                self.p, (int(x) for x in key.split(","))).mask)
        return hit

    def record(self, d: dict) -> ArchiveRecord:
        _check_numbers(d)
        listed = [self._listed(ls) for ls in d["splits"]]
        lengths = {self._keyed(k): float(v) for k, v in d["lengths"].items()}
        log_prior, log_lik = float(d["log_prior"]), float(d["log_lik"])
        if not (math.isfinite(log_prior) and math.isfinite(log_lik)):
            raise DataError(f"record {d['iter']}: log_prior {log_prior} and "
                            f"log_lik {log_lik} must be finite")
        leaf_lengths = tuple(float(x) for x in d["leaf_lengths"])
        root_length = float(d["root_length"])
        if len(lengths) != len(d["lengths"]):
            first: dict[Split, str] = {}
            for k in d["lengths"]:
                s = self._keyed(k)
                if s in first:
                    raise InvalidTreeError(
                        f"lengths keys {first[s]!r} and {k!r} both spell {s}")
                first[s] = k
        topology = self.table.lookup(frozenset(s.mask for s in _distinct(listed)))
        tree = Tree(topology, lengths, leaf_lengths, root_length)
        return ArchiveRecord.from_tree(d["iter"], log_prior, log_lik, tree)


@dataclass
class PosteriorArchive:
    """Ordered retained samples plus the full likelihood trace."""

    p: int
    records: list[ArchiveRecord] = field(default_factory=list)
    trace: list[tuple[int, float]] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.records)

    def trees(self) -> list[Tree]:
        return [r.tree() for r in self.records]

    def validate(self):
        last = None
        for r in self.records:
            if last is not None and r.iteration <= last:
                raise InvalidArgumentError(
                    f"iteration indices not strictly increasing at {r.iteration}"
                )
            last = r.iteration
            r.tree()

    def save_jsonl(self, path):
        with open(path, "w") as fh:
            for r in self.records:
                fh.write(json.dumps(r.to_json_dict()) + "\n")

    @classmethod
    def load_jsonl(cls, path) -> "PosteriorArchive":
        """Read an archive, building each record's tree as its line is read.

        Each distinct split spelling is parsed, and each distinct split set
        validated as a topology, once per call; every record's lengths are
        checked by its own tree.  A malformed line, record or tree raises a
        typed error that names ``archive PATH line N``.
        """
        records = []
        reader = None
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                where = f"archive {path} line {lineno}"
                try:
                    d = json.loads(line.decode())
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise DataError(f"{where}: not valid JSON ({exc})") from exc
                if not isinstance(d, dict):
                    raise DataError(
                        f"{where}: expected a JSON object, got {type(d).__name__}")
                try:
                    leaves = len(d["leaf_lengths"])
                    reader = reader or _Reader(leaves)
                    if leaves != reader.p:
                        raise DimensionError(f"{where}: record has {leaves} "
                                             f"leaves, earlier records have {reader.p}")
                    record = reader.record(d)
                except KeyError as exc:
                    raise DataError(f"{where}: missing key {exc}") from exc
                except DimensionError:
                    raise
                except TreecovError as exc:
                    raise DataError(f"{where}: {exc}") from exc
                except (AttributeError, OverflowError, TypeError, ValueError) as exc:
                    raise DataError(f"{where}: malformed value ({exc})") from exc
                records.append(record)
        if reader is None:
            raise InvalidArgumentError(f"archive {path} contains no records")
        out = cls(p=reader.p, records=records)
        out.validate()
        return out

    def save_trace_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "log_lik"])
            writer.writerows(self.trace)

    @staticmethod
    def load_trace_csv(path) -> list[tuple[int, float]]:
        with open(path) as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["iter", "log_lik"]:
                raise InvalidArgumentError(f"unexpected trace header {header}")
            try:
                return [(int(it), float(log_lik)) for it, log_lik in reader]
            except ValueError as exc:  # a row that is not two numbers
                raise DataError(f"trace {path} line {reader.line_num}: {exc}") from exc


def config_digest(obj) -> str:
    """Stable short hash of a config-like object for provenance records."""
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
