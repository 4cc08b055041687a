"""Finite B-trees over ordinal labels.

A B-tree is a finite set of nonempty label sequences closed under nonempty
initial segments.  The empty sequence is never a member; APIs that need the
virtual root use the empty tuple ``()`` as a sentinel.

The derivative ``T' = T minus its maximal nodes`` drives everything here:
``order`` is the number of derivations needed to empty the tree, and the
rank of a node is the last derivation stage it survives.  A node is maximal
exactly when it does not survive one derivation, so ranks decide maximality:
``is_max`` and ``max_nodes`` read rank 0.
"""

from __future__ import annotations

import json
from functools import cache
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Tuple, Union

from .ordinal import Ordinal, _json_int

__all__ = ["NodePath", "FiniteBTree", "verify_monotone_map", "path_from_text", "path_to_text"]

NodePath = Tuple[Ordinal, ...]


def path_from_text(text: str) -> NodePath:
    """Parse a comma-separated list of CNF strings into a path."""
    if not text:
        return ()
    return tuple(Ordinal(part) for part in text.split(","))


def path_to_text(path: NodePath) -> str:
    return ",".join(str(label) for label in path)


def _json_object(data, what: str) -> dict:
    """``data``, parsed first when it is JSON text; a ValueError unless an object."""
    if isinstance(data, str):
        data = json.loads(data, parse_int=_json_int)
    if not isinstance(data, dict):
        raise ValueError(f"a {what} must be a JSON object")
    return data


def _field(data: dict, key: str, what: str):
    """``data[key]``; a ValueError naming the document and the key if it is missing."""
    try:
        return data[key]
    except KeyError:
        raise ValueError(f'{what} has no "{key}" key') from None


def _frac_text(x) -> str:
    """A Fraction as exact text, p/q: the form every layer prints rationals in."""
    return f"{x.numerator}/{x.denominator}"


class _Frozen:
    """An immutable value given by ``_FIELDS``, its constructor's arguments in
    order: equal (same type) and hashed by them, rebuilt by the constructor
    for pickle and copy, and printed as ``Name(field=value, ...)``."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._FIELDS)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _set(self, **values) -> None:
        """Write slots past that refusal: in a constructor, or once for a lazy cache."""
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # through the constructor: __setattr__ refuses the default slot-by-slot restore
        return type(self), self._values()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._FIELDS)
        return f"{type(self).__name__}({fields})"


class FiniteBTree(_Frozen):
    """An immutable finite B-tree given by its explicit node set."""

    _FIELDS = ("nodes",)
    __slots__ = ("nodes", "_children", "_ranks")

    def __init__(self, nodes: Iterable[NodePath] = ()):
        node_set = frozenset(tuple(n) for n in nodes)
        if () in node_set:
            raise ValueError("the empty sequence cannot be a member")
        self._set(nodes=node_set, _children=None, _ranks=None)

    @classmethod
    def closure(cls, paths: Iterable[NodePath]) -> "FiniteBTree":
        """The smallest B-tree containing the given paths."""
        nodes = set()
        for p in paths:
            p = tuple(p)
            for i in range(1, len(p) + 1):
                nodes.add(p[:i])
        return cls(nodes)

    # -- basic queries -----------------------------------------------------

    def __contains__(self, path: NodePath) -> bool:
        return tuple(path) in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[NodePath]:
        return iter(sorted(self.nodes))

    def __repr__(self) -> str:
        return f"FiniteBTree({len(self.nodes)} nodes)"

    def validate(self) -> bool:
        """True iff the node set is closed under nonempty initial segments."""
        return all(t[:-1] in self.nodes for t in self.nodes if len(t) > 1)

    def _child_index(self) -> Dict[NodePath, List[Ordinal]]:
        if self._children is None:
            index: Dict[NodePath, List[Ordinal]] = {}
            for t in self.nodes:
                index.setdefault(t[:-1], []).append(t[-1])
            for labels in index.values():
                labels.sort()
            self._set(_children=index)
        return self._children

    def children_labels(self, path: NodePath = ()) -> List[Ordinal]:
        """Sorted labels extending ``path`` by one step (``()`` = virtual root)."""
        return list(self._child_index().get(tuple(path), []))

    def roots(self) -> List[Ordinal]:
        return self.children_labels(())

    def is_max(self, path: NodePath) -> bool:
        return self.rank(path) == 0

    def max_nodes(self) -> FrozenSet[NodePath]:
        return frozenset(t for t, rank in self._rank_index().items() if not rank)

    # -- derivative calculus ------------------------------------------------

    def derive(self) -> "FiniteBTree":
        return FiniteBTree(self.nodes - self.max_nodes())

    def _rank_index(self) -> Dict[NodePath, int]:
        # heights of strict-extension subtrees, computed bottom-up
        if self._ranks is None:
            index = self._child_index()
            ranks: Dict[NodePath, int] = {}
            for t in sorted(self.nodes, key=len, reverse=True):
                kids = index.get(t)
                ranks[t] = 1 + max(ranks[t + (c,)] for c in kids) if kids else 0
            self._set(_ranks=ranks)
        return self._ranks

    def rank(self, path: NodePath) -> int:
        """The largest k such that ``path`` survives k derivations."""
        path = tuple(path)
        ranks = self._rank_index()
        if path not in ranks:
            raise ValueError(f"{path_to_text(path) or 'the empty path'} is not a member")
        return ranks[path]

    def order(self) -> int:
        """Least k with the k-th derivative empty."""
        if not self.nodes:
            return 0
        return 1 + max(self._rank_index().values())

    def order_by_derivation(self) -> int:
        """Same as ``order`` but by literally iterating ``derive``."""
        tree, steps = self, 0
        while tree.nodes:
            tree = tree.derive()
            steps += 1
        return steps

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"nodes": [[str(label) for label in t] for t in self]}

    @classmethod
    def from_json(cls, data: Union[dict, str]) -> "FiniteBTree":
        nodes = _field(_json_object(data, "tree"), "nodes", "tree")
        if not isinstance(nodes, list) or not all(
            isinstance(t, list) and all(type(label) in (str, int) for label in t) for t in nodes
        ):
            raise ValueError('"nodes" must be a list of label lists')
        label = cache(Ordinal)  # each distinct label parsed once
        return cls(tuple(map(label, t)) for t in nodes)


def verify_monotone_map(
    source: FiniteBTree,
    target: FiniteBTree,
    func: Union[Callable[[NodePath], NodePath], Mapping[NodePath, NodePath]],
) -> bool:
    """Check that ``func`` maps source into target, strictly preserving extension.

    Strict prefixes must map to strict prefixes; checking parent/child pairs
    suffices by transitivity.
    """
    if isinstance(func, Mapping):
        mapping = func
        func = mapping.__getitem__
    images = {}
    for t in source.nodes:
        image = tuple(func(t))
        if image not in target:
            return False
        images[t] = image
    for t, image in images.items():
        if len(t) > 1:
            parent_image = images[t[:-1]]
            if not (len(parent_image) < len(image) and image[: len(parent_image)] == parent_image):
                return False
    return True
