"""The canonical well-founded tree families and their exact branch weights.

Two ordinal-indexed families of B-trees are provided.  The "T" family at
index xi is a tree of order exactly xi; the "Gamma" family at index xi has
order omega^xi and carries an exact rational weight on its nodes whose sum
along every maximal branch is exactly 1.

Both families are infinitely branching at limit indices (and Gamma already
at successor indices), so membership, maximality and node rank are computed
symbolically, while enumeration and finite truncation take a
``TruncationBudget`` that caps how many of the infinitely many choices are
explored.  Truncation limits breadth only: a path is reported as a maximal
branch only if it is maximal in the full, untruncated family.

Structure of the Gamma family at a successor index xi = sigma + 1: a member
is a concatenation of blocks, the i-th block being a member of the Gamma
family at sigma shifted label-wise by omega^sigma * (n - i) for a single
parameter n >= 1, and every node weight is divided by n.  All blocks before
the last must be maximal.  Labels are decomposed back into (block index,
inner label) by division by omega^sigma with remainders taken in
(0, omega^sigma], which is unambiguous because inner labels lie in
[1, omega^sigma].  At a limit index the family is the union over zeta < xi
of the successor family at zeta + 1 shifted by omega^zeta; the component of
a path is recovered from its first label.

A member's reading (``_Reading``) holds what its maximality, rank, weights
and the labels one step below it need.  The walk that ``truncate`` and the
branch enumerations share carries every node's reading down from its
parent's, with O(1) ordinal operations per index level, and touches no
cache.  A point query reads its path once with the recursive reader
``_gamma_read``, which keeps the module's one path-keyed cache (65,536
entries) for point queries only: blocks recur across the paths queried.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from .btree import FiniteBTree, NodePath, path_to_text
from .ordinal import ONE, ZERO, Ordinal, OrdinalError, _from_cnf, omega_pow, quot_rem_omega_pow, subtract_left

__all__ = [
    "TruncationBudget",
    "TFamily",
    "GammaFamily",
    "t_family",
    "gamma_family",
    "make_family",
    "family_from_json",
    "family_to_json",
    "budget_from_json",
    "monotone_embedding",
]


_MAX_DEPTH = 512  # the default safety cap on path length


class TruncationBudget:
    """Caps for enumerating infinitely branching points.

    ``max_n`` bounds how many of the infinitely many one-step choices are
    taken (in increasing order along the canonical cofinal sequence at limit
    stages); ``max_depth`` is a safety cap on path length.  Immutable.
    """

    __slots__ = ("max_n", "max_depth")

    def __init__(self, max_n: int, max_depth: int = _MAX_DEPTH):
        if type(max_n) is not int or type(max_depth) is not int:
            raise TypeError("max_n and max_depth must be ints")
        object.__setattr__(self, "max_n", max_n)
        object.__setattr__(self, "max_depth", max_depth)
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")

    def __setattr__(self, name, value):
        raise AttributeError("TruncationBudget is immutable")

    def __reduce__(self):  # for pickle and copy, as FiniteBTree's
        return TruncationBudget, (self.max_n, self.max_depth)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.max_n, self.max_depth) == (other.max_n, other.max_depth)

    def __hash__(self):
        return hash((self.max_n, self.max_depth))

    def __repr__(self):
        return f"TruncationBudget(max_n={self.max_n!r}, max_depth={self.max_depth!r})"


def _fundamental(lam: Ordinal, k: int) -> Ordinal:
    """The k-th element (k >= 0) of the canonical cofinal sequence of a limit."""
    beta, c = lam.terms[-1]
    head = lam.terms[:-1]
    delta = _from_cnf(head + ((beta, c - 1),) if c > 1 else head)
    if beta.is_successor:
        return delta + omega_pow(beta.pred()) * k
    return delta + omega_pow(_fundamental(beta, k))


class _Family:
    """Shared validation and enumeration.

    Subclasses define ``member``, ``rank`` and four hooks over the state of a
    member node, which is what the family needs to know of the node to go on
    below it: ``_state(path)`` reads it from a path (and raises ValueError
    for a non-member), ``_roots(budget)`` gives the (label, state) pairs of
    the one-label members, ``_below(state, budget)`` the pairs one step
    below a member, and ``_leaf(state)`` says whether the member is maximal.
    The walk carries every node's state down from its parent's, so it reads
    no path; the public queries read theirs once.
    """

    kind: str

    def __init__(self, xi: Ordinal):
        self.xi = Ordinal(xi)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.xi})"

    def member(self, path: NodePath) -> bool:
        raise NotImplementedError

    def rank(self, path: NodePath) -> Ordinal:
        raise NotImplementedError

    def _state(self, path: NodePath):
        raise NotImplementedError

    def _roots(self, budget: TruncationBudget) -> list:
        raise NotImplementedError

    def _below(self, state, budget: TruncationBudget) -> list:
        raise NotImplementedError

    def _leaf(self, state) -> bool:
        raise NotImplementedError

    def _not_member(self, path: NodePath) -> ValueError:
        return ValueError(f"{path_to_text(path)} is not a member of {self!r}")

    def root_labels(self, budget: TruncationBudget) -> List[Ordinal]:
        return [label for label, _ in self._roots(budget)]

    def children(self, path: NodePath, budget: TruncationBudget) -> List[Ordinal]:
        """Sorted labels extending ``path`` by one step (``()`` = virtual root)."""
        path = tuple(path)
        if not path:
            return self.root_labels(budget)
        return [label for label, _ in self._below(self._state(path), budget)]

    def is_maximal(self, path: NodePath) -> bool:
        return self._leaf(self._state(path))

    def _walk(self, budget: TruncationBudget) -> Iterator[tuple]:
        # pre-order over (path, state) on an explicit stack; a node's
        # children are expanded only while its length is below max_depth
        stack = [((label,), state) for label, state in reversed(self._roots(budget))]
        while stack:
            node = stack.pop()
            yield node
            path, state = node
            if len(path) < budget.max_depth:
                below = self._below(state, budget)
                stack.extend((path + (label,), child) for label, child in reversed(below))

    def maximal_branches(self, budget: TruncationBudget) -> Iterator[NodePath]:
        """Lazily yield paths maximal in the full family, up to the budget."""
        return (path for path, state in self._walk(budget) if self._leaf(state))

    def truncate(self, budget: TruncationBudget) -> FiniteBTree:
        """The finite B-tree of all members reachable within the budget."""
        return FiniteBTree(path for path, _ in self._walk(budget))


class TFamily(_Family):
    """The tree of order xi: a chain of chains indexed by successor labels.

    The first label is xi itself at a successor xi and any successor below
    xi at a limit; the rest of the path is a member of the family at that
    label's predecessor.  So the subtree below a member path is the family
    at ``path[-1].pred()``, and a node's state is its last label.
    """

    kind = "T"

    def member(self, path: NodePath) -> bool:
        xi = self.xi
        for label in path:
            if not (label.is_successor and (label == xi or (xi.is_limit and label < xi))):
                return False
            xi = label.pred()
        return len(path) > 0

    def _require_member(self, path: NodePath) -> NodePath:
        path = tuple(path)
        if not self.member(path):
            raise self._not_member(path)
        return path

    def _state(self, path: NodePath) -> Ordinal:
        return self._require_member(path)[-1]

    def _roots(self, budget: TruncationBudget) -> List[Tuple[Ordinal, Ordinal]]:
        xi = self.xi
        if xi.is_zero:
            return []
        if xi.is_successor:
            return [(xi, xi)]
        return [(label, label) for label in (_fundamental(xi, k) + 1 for k in range(budget.max_n))]

    def _below(self, label: Ordinal, budget: TruncationBudget) -> List[Tuple[Ordinal, Ordinal]]:
        return t_family(label.pred())._roots(budget)

    def _leaf(self, label: Ordinal) -> bool:
        return label == ONE

    def rank(self, path: NodePath) -> Ordinal:
        return self._state(path).pred()


class GammaFamily(_Family):
    """The weighted tree of order omega^xi.

    A node's state is its ``_Reading``.  The walk builds each child's reading
    from its parent's with O(1) ordinal operations per index level, and
    ``_gamma_read`` reads the path of a point query.  At a successor
    sigma + 1 the family keeps sigma and the block unit omega^sigma; a
    component of a limit is such a family, and its unit is its shift.
    """

    kind = "Gamma"

    def __init__(self, xi: Ordinal):
        super().__init__(xi)
        if self.xi.is_successor:
            self._sigma = self.xi.pred()
            self._unit = omega_pow(self._sigma)

    def member(self, path: NodePath) -> bool:
        return _gamma_read(self.xi, tuple(path)) is not None

    def _state(self, path: NodePath) -> _Reading:
        path = tuple(path)
        reading = _gamma_read(self.xi, path)
        if reading is None:
            raise self._not_member(path)
        return reading

    def _roots(self, budget: TruncationBudget) -> List[Tuple[Ordinal, _Reading]]:
        # sorted as built: block n's labels lie in (unit * n, unit * (n + 1)],
        # and component zeta's in (omega^zeta, omega^(zeta + 1)]
        xi = self.xi
        if xi.is_zero:
            return [(ONE, _GAMMA_0)]
        if xi.is_successor:
            unit, block_roots = self._unit, gamma_family(self._sigma)._roots(budget)
            return [(unit * q + r, _in_block(q, s, q + 1, ())) for q in range(budget.max_n) for r, s in block_roots]
        out = []
        for k in range(budget.max_n):
            component = gamma_family(_fundamental(xi, k) + 1)
            out += [(component._unit + r, _in_component(component, s)) for r, s in component._roots(budget)]
        return out

    def _below(self, reading: _Reading, budget: TruncationBudget) -> List[Tuple[Ordinal, _Reading]]:
        # a maximal reading has nothing below it, and every reading at 0 is
        # maximal; shifting a sorted list on the left keeps it sorted
        if reading.maximal:
            return []
        if self.xi.is_successor:
            q, last, n = reading.inner
            sub = gamma_family(self._sigma)
            if last.maximal:  # so q > 0: open the next block
                q -= 1
                pairs = sub._roots(budget)
            else:
                pairs = sub._below(last, budget)
            base, head = self._unit * q, reading.denominators
            return [(base + r, _in_block(q, s, n, head)) for r, s in pairs]
        component, stripped = reading.inner
        shift = component._unit
        return [(shift + r, _in_component(component, s)) for r, s in component._below(stripped, budget)]

    def _leaf(self, reading: _Reading) -> bool:
        return reading.maximal

    def rank(self, path: NodePath) -> Ordinal:
        # below a node of block q lie the rest of its block and q whole blocks
        # of order omega^sigma; ordinal addition is associative, so the terms
        # are summed from the outermost index level in
        family, reading, rank = self, self._state(path), ZERO
        while not family.xi.is_zero:
            if family.xi.is_successor:
                q, reading, _ = reading.inner
                rank = rank + family._unit * q
                family = gamma_family(family._sigma)
            else:
                family, reading = reading.inner
        return rank

    # -- weights -------------------------------------------------------------

    def weight(self, path: NodePath) -> Fraction:
        """The exact rational weight of a member node."""
        return Fraction(1, self._state(path).denominators[-1])

    def prefix_weights(self, path: NodePath) -> Tuple[Fraction, ...]:
        """Weights of every nonempty prefix of ``path``, in order."""
        return _weights(self._state(path))

    def branch_weight_sum(self, path: NodePath) -> Tuple[Fraction, bool]:
        """Sum of prefix weights plus a flag: True iff the branch is maximal.

        The sum equals 1 exactly when the flag is True; otherwise it is the
        partial sum along a non-maximal path.
        """
        reading = self._state(path)
        return sum(_weights(reading), Fraction(0)), reading.maximal

    def node_weights(self, budget: TruncationBudget) -> Dict[NodePath, Fraction]:
        """Every node of ``truncate(budget)`` with its weight, from one walk."""
        return {path: Fraction(1, reading.denominators[-1]) for path, reading in self._walk(budget)}

    def weighted_branches(self, budget: TruncationBudget) -> Iterator[Tuple[NodePath, Tuple[Fraction, ...]]]:
        """``maximal_branches`` with the prefix weights of each, from one walk."""
        return ((path, _weights(reading)) for path, reading in self._walk(budget) if reading.maximal)


class _Reading(NamedTuple):
    """A member of a Gamma family as its walk and its queries see it."""

    maximal: bool
    denominators: Tuple[int, ...]  # prefix k weighs 1 / denominators[k]
    # for the labels below and the rank: () at 0; at a successor the last
    # block's quotient q, its reading in Gamma at the predecessor and the
    # block parameter n (the first block's quotient is n - 1); at a limit
    # the component, Gamma at zeta + 1, and the reading in it of the path
    # stripped of omega^zeta
    inner: tuple


_GAMMA_0 = _Reading(True, (1,), ())


def _in_block(q: int, block: _Reading, n: int, head: Tuple[int, ...]) -> _Reading:
    """The reading of a node of block q, parameter n, whose block reads
    ``block``, below a path whose denominators are ``head``."""
    return _Reading(q == 0 and block.maximal, head + (block.denominators[-1] * n,), (q, block, n))


def _in_component(component: GammaFamily, stripped: _Reading) -> _Reading:
    """The reading at a limit of a node of ``component``."""
    return _Reading(stripped.maximal, stripped.denominators, (component, stripped))


def _weights(reading: _Reading) -> Tuple[Fraction, ...]:
    return tuple(Fraction(1, d) for d in reading.denominators)


@lru_cache(maxsize=1 << 16)
def _gamma_read(xi: Ordinal, path: NodePath) -> Optional[_Reading]:
    """Read ``path`` in the Gamma family at ``xi``; None for a non-member.

    At a successor, consecutive labels with equal quotient form a block,
    and the block quotients must descend by one (to n - m >= 0 for m
    blocks).  At a limit, the component zeta is the first label's leading
    exponent: Gamma at zeta + 1 has its labels in [1, omega^(zeta + 1)), so
    shifting them by omega^zeta keeps that exponent.
    """
    if not path:
        return None
    if xi.is_zero:
        return _GAMMA_0 if path == (ONE,) else None
    if xi.is_successor:
        sigma = xi.pred()
        blocks: List[List[Ordinal]] = []
        q_last = -1
        for label in path:
            try:
                q, r = quot_rem_omega_pow(label, sigma, remainder_in_half_open_above=True)
                q = q.as_int()  # an infinite quotient is no block index
            except OrdinalError:
                return None
            if q == q_last:
                blocks[-1].append(r)
            elif not blocks or q == q_last - 1:
                blocks.append([r])
                q_last = q
            else:
                return None
        readings = [_gamma_read(sigma, tuple(block)) for block in blocks]
        *head, last = readings
        if last is None or not all(b is not None and b.maximal for b in head):
            return None
        n = q_last + len(blocks)
        return _Reading(
            q_last == 0 and last.maximal,
            tuple(d * n for b in readings for d in b.denominators),
            (q_last, last, n),
        )
    if path[0].is_zero or not path[0].leading_exponent < xi:
        return None
    component = gamma_family(path[0].leading_exponent + 1)
    try:
        stripped = tuple(subtract_left(component._unit, label) for label in path)
    except OrdinalError:
        return None
    reading = _gamma_read(component.xi, stripped)
    return None if reading is None else _in_component(component, reading)


@lru_cache(maxsize=None)
def t_family(xi: Ordinal) -> TFamily:
    return TFamily(Ordinal(xi))


# bounded: a point query at a limit index makes the family of the component
# it reads, and the components of the paths queried are without limit
@lru_cache(maxsize=1 << 12)
def gamma_family(xi: Ordinal) -> GammaFamily:
    return GammaFamily(Ordinal(xi))


def make_family(kind: str, xi: Ordinal) -> _Family:
    if kind == "T":
        return t_family(Ordinal(xi))
    if kind == "Gamma":
        return gamma_family(Ordinal(xi))
    raise ValueError(f"unknown family kind {kind!r}")


def family_from_json(data: Union[dict, str]) -> _Family:
    """Build a family from the descriptor {"kind": "T"|"Gamma", "xi": "<CNF>"}."""
    if isinstance(data, str):
        data = json.loads(data)
    return make_family(data["kind"], Ordinal(data["xi"]))


def family_to_json(family: _Family) -> dict:
    return {"kind": family.kind, "xi": str(family.xi)}


def budget_from_json(data: Union[dict, str]) -> TruncationBudget:
    """Build a budget from {"max_n": N, "max_depth": D} (max_depth optional)."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError("a budget must be a JSON object")
    max_n, max_depth = data["max_n"], data.get("max_depth", _MAX_DEPTH)
    if type(max_n) is not int or type(max_depth) is not int:
        raise ValueError("budget max_n and max_depth must be integers")
    return TruncationBudget(max_n=max_n, max_depth=max_depth)


def _inflate(path: NodePath, a: Ordinal, b: Ordinal) -> NodePath:
    # strictly monotone, possibly length-inflating map between T families: a
    # successor target b emits b and consumes a source label only when a is a
    # successor too; from a == b or a limit target on, the source is kept
    out, i = [], 0
    while i < len(path) and a != b and b.is_successor:
        out.append(b)
        if a.is_successor:
            i, a = i + 1, a.pred()
        b = b.pred()
    return tuple(out) + path[i:]


def monotone_embedding(xi: Ordinal, gamma: Ordinal) -> Callable[[NodePath], NodePath]:
    """A monotone, length-preserving embedding of the T family at xi into
    the T family at gamma, for xi <= gamma.

    Built by truncating a strictly monotone (possibly length-inflating)
    recursive map back to the input length.
    """
    xi, gamma = Ordinal(xi), Ordinal(gamma)
    if xi > gamma:
        raise ValueError(f"no embedding: {xi} > {gamma}")
    source = t_family(xi)

    def phi(path: NodePath) -> NodePath:
        path = source._require_member(path)
        return _inflate(path, xi, gamma)[: len(path)]

    return phi
