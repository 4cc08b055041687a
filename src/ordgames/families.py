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
parameter n >= 1.  All blocks before the last must be maximal.  Labels are
decomposed back into (block index, inner label) by division by omega^sigma
with remainders taken in (0, omega^sigma], which is unambiguous because
inner labels lie in [1, omega^sigma].  At a limit index the family is the
union over zeta < xi of the successor family at zeta + 1 shifted by
omega^zeta; the component of a path is recovered from its first label.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, List, Optional, Tuple, Union

from .btree import FiniteBTree, NodePath, path_to_text
from .ordinal import ONE, ZERO, Ordinal, OrdinalError, omega_pow, quot_rem_omega_pow, subtract_left

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


@dataclass(frozen=True)
class TruncationBudget:
    """Caps for enumerating infinitely branching points.

    ``max_n`` bounds how many of the infinitely many one-step choices are
    taken (in increasing order along the canonical cofinal sequence at limit
    stages); ``max_depth`` is a safety cap on path length.
    """

    max_n: int
    max_depth: int = 512

    def __post_init__(self):
        if self.max_n < 1:
            raise ValueError("max_n must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


def _fundamental(lam: Ordinal, k: int) -> Ordinal:
    """The k-th element (k >= 0) of the canonical cofinal sequence of a limit."""
    beta, c = lam.terms[-1]
    head = lam.terms[:-1]
    delta = Ordinal(head + ((beta, c - 1),)) if c > 1 else Ordinal(head)
    if beta.is_successor:
        return delta + omega_pow(beta.pred()) * k
    return delta + omega_pow(_fundamental(beta, k))


class _Family:
    """Shared validation and enumeration.

    Subclasses define ``member``, ``rank``, ``root_labels`` and two hooks that
    trust their path to be a member: ``_labels_below`` and ``_leaf``.  The
    public queries check membership once; the walk builds only members.
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

    def root_labels(self, budget: TruncationBudget) -> List[Ordinal]:
        raise NotImplementedError

    def _labels_below(self, path: NodePath, budget: TruncationBudget) -> List[Ordinal]:
        raise NotImplementedError

    def _leaf(self, path: NodePath) -> bool:
        raise NotImplementedError

    def _require_member(self, path: NodePath) -> NodePath:
        path = tuple(path)
        if not self.member(path):
            raise ValueError(f"{path_to_text(path)} is not a member of {self!r}")
        return path

    def children(self, path: NodePath, budget: TruncationBudget) -> List[Ordinal]:
        """Sorted labels extending ``path`` by one step (``()`` = virtual root)."""
        path = tuple(path)
        if not path:
            return self.root_labels(budget)
        return self._labels_below(self._require_member(path), budget)

    def is_maximal(self, path: NodePath) -> bool:
        return self._leaf(self._require_member(path))

    def _walk(self, budget: TruncationBudget) -> Iterator[NodePath]:
        # pre-order on an explicit stack; a node's children are expanded only
        # while its length is below max_depth
        stack = [(label,) for label in reversed(self.root_labels(budget))]
        while stack:
            path = stack.pop()
            yield path
            if len(path) < budget.max_depth:
                below = self._labels_below(path, budget)
                stack.extend(path + (label,) for label in reversed(below))

    def maximal_branches(self, budget: TruncationBudget) -> Iterator[NodePath]:
        """Lazily yield paths maximal in the full family, up to the budget."""
        return (path for path in self._walk(budget) if self._leaf(path))

    def truncate(self, budget: TruncationBudget) -> FiniteBTree:
        """The finite B-tree of all members reachable within the budget."""
        return FiniteBTree(self._walk(budget))


class TFamily(_Family):
    """The tree of order xi: a chain of chains indexed by successor labels.

    The first label is xi itself at a successor xi and any successor below
    xi at a limit; the rest of the path is a member of the family at that
    label's predecessor.  So the subtree below a member path is the family
    at ``path[-1].pred()``.
    """

    kind = "T"

    def member(self, path: NodePath) -> bool:
        xi = self.xi
        for label in path:
            if not (label.is_successor and (label == xi or (xi.is_limit and label < xi))):
                return False
            xi = label.pred()
        return len(path) > 0

    def root_labels(self, budget: TruncationBudget) -> List[Ordinal]:
        xi = self.xi
        if xi.is_zero:
            return []
        if xi.is_successor:
            return [xi]
        return [_fundamental(xi, k) + 1 for k in range(budget.max_n)]

    def _labels_below(self, path: NodePath, budget: TruncationBudget) -> List[Ordinal]:
        return t_family(path[-1].pred()).root_labels(budget)

    def _leaf(self, path: NodePath) -> bool:
        return path[-1] == ONE

    def rank(self, path: NodePath) -> Ordinal:
        return self._require_member(path)[-1].pred()


class GammaFamily(_Family):
    """The weighted tree of order omega^xi."""

    kind = "Gamma"

    def member(self, path: NodePath) -> bool:
        return _gamma_member(self.xi, tuple(path))

    def root_labels(self, budget: TruncationBudget) -> List[Ordinal]:
        xi = self.xi
        if xi.is_zero:
            return [ONE]
        out = []
        if xi.is_successor:
            sigma = xi.pred()
            unit = omega_pow(sigma)
            inner = gamma_family(sigma).root_labels(budget)
            for n in range(1, budget.max_n + 1):
                offset = unit * (n - 1)
                out.extend(offset + r for r in inner)
        else:
            for k in range(budget.max_n):
                zeta = _fundamental(xi, k)
                offset = omega_pow(zeta)
                out.extend(offset + r for r in gamma_family(zeta + 1).root_labels(budget))
        return sorted(out)

    def _labels_below(self, path: NodePath, budget: TruncationBudget) -> List[Ordinal]:
        xi = self.xi
        if xi.is_zero:
            return []
        if xi.is_successor:
            sigma = xi.pred()
            n, blocks = _gamma_blocks(sigma, path)
            sub = gamma_family(sigma)
            unit = omega_pow(sigma)
            m = len(blocks)
            last = blocks[-1]
            out = [unit * (n - m) + r for r in sub._labels_below(last, budget)]
            if m < n and _gamma_maximal(sigma, last):
                offset = unit * (n - m - 1)
                out.extend(offset + r for r in sub.root_labels(budget))
            return sorted(out)
        zeta, stripped = _gamma_component(xi, path)
        offset = omega_pow(zeta)
        return [offset + c for c in gamma_family(zeta + 1)._labels_below(stripped, budget)]

    def _leaf(self, path: NodePath) -> bool:
        return _gamma_maximal(self.xi, path)

    def rank(self, path: NodePath) -> Ordinal:
        path = self._require_member(path)
        return _gamma_rank(self.xi, path)

    # -- weights -------------------------------------------------------------

    def weight(self, path: NodePath) -> Fraction:
        """The exact rational weight of a member node."""
        return self.prefix_weights(path)[-1]

    def prefix_weights(self, path: NodePath) -> Tuple[Fraction, ...]:
        """Weights of every nonempty prefix of ``path``, in order."""
        path = self._require_member(path)
        return _prefix_weights(self.xi, path)

    def branch_weight_sum(self, path: NodePath) -> Tuple[Fraction, bool]:
        """Sum of prefix weights plus a flag: True iff the branch is maximal.

        The sum equals 1 exactly when the flag is True; otherwise it is the
        partial sum along a non-maximal path.
        """
        path = self._require_member(path)
        total = sum(_prefix_weights(self.xi, path), Fraction(0))
        return total, _gamma_maximal(self.xi, path)


@lru_cache(maxsize=1 << 16)
def _gamma_blocks(sigma: Ordinal, path: NodePath) -> Optional[Tuple[int, Tuple[NodePath, ...]]]:
    """Decompose successor-stage labels into (n, blocks of inner labels).

    Returns None if the labels do not parse: every label must split as
    omega^sigma * q + r with r in (0, omega^sigma] and finite q, consecutive
    equal quotients form blocks, and the block quotients must read
    n-1, n-2, ..., n-m for some n >= m >= 1.
    """
    quotients: List[int] = []
    remainders: List[Ordinal] = []
    for label in path:
        try:
            q, r = quot_rem_omega_pow(label, sigma, remainder_in_half_open_above=True)
        except OrdinalError:
            return None
        if not q.is_finite:
            return None
        quotients.append(q.as_int())
        remainders.append(r)
    n = quotients[0] + 1
    blocks: List[Tuple[Ordinal, ...]] = []
    block: List[Ordinal] = []
    expected = quotients[0]
    for q, r in zip(quotients, remainders):
        if q == expected:
            block.append(r)
        elif q == expected - 1:
            blocks.append(tuple(block))
            block = [r]
            expected = q
        else:
            return None
    blocks.append(tuple(block))
    if len(blocks) > n:  # quotients must stay >= 0, i.e. m <= n
        return None
    return n, tuple(blocks)


@lru_cache(maxsize=1 << 16)
def _gamma_member(xi: Ordinal, path: NodePath) -> bool:
    if not path:
        return False
    if xi.is_zero:
        return path == (ONE,)
    if xi.is_successor:
        sigma = xi.pred()
        parsed = _gamma_blocks(sigma, path)
        if parsed is None:
            return False
        _, blocks = parsed
        if not _gamma_member(sigma, blocks[-1]):
            return False
        return all(
            _gamma_member(sigma, b) and _gamma_maximal(sigma, b) for b in blocks[:-1]
        )
    return _gamma_component(xi, path) is not None


def _gamma_maximal(xi: Ordinal, path: NodePath) -> bool:
    if xi.is_zero:
        return True
    if xi.is_successor:
        n, blocks = _gamma_blocks(xi.pred(), path)
        return len(blocks) == n and _gamma_maximal(xi.pred(), blocks[-1])
    zeta, stripped = _gamma_component(xi, path)
    return _gamma_maximal(zeta + 1, stripped)


@lru_cache(maxsize=1 << 16)
def _gamma_component(xi: Ordinal, path: NodePath) -> Optional[Tuple[Ordinal, NodePath]]:
    """Resolve the component of a path in a limit-stage family.

    Candidate offsets omega^zeta are read off the first label; candidates are
    tried largest first and the first whose stripped path is a member of the
    successor family at zeta + 1 wins.
    """
    mu = path[0]
    if mu.is_zero:
        return None
    e = mu.leading_exponent
    candidates = []
    if e < xi:
        candidates.append(e)
    if mu == omega_pow(e) and e.is_successor and e.pred() < xi:
        candidates.append(e.pred())
    for zeta in candidates:
        unit = omega_pow(zeta)
        try:
            stripped = tuple(subtract_left(unit, label) for label in path)
        except OrdinalError:
            continue
        if _gamma_member(zeta + 1, stripped):
            return zeta, stripped
    return None


def _gamma_rank(xi: Ordinal, path: NodePath) -> Ordinal:
    if xi.is_zero:
        return ZERO
    if xi.is_successor:
        sigma = xi.pred()
        n, blocks = _gamma_blocks(sigma, path)
        return omega_pow(sigma) * (n - len(blocks)) + _gamma_rank(sigma, blocks[-1])
    zeta, stripped = _gamma_component(xi, path)
    return _gamma_rank(zeta + 1, stripped)


@lru_cache(maxsize=1 << 16)
def _prefix_weights(xi: Ordinal, path: NodePath) -> Tuple[Fraction, ...]:
    if xi.is_zero:
        return (Fraction(1),)
    if xi.is_successor:
        sigma = xi.pred()
        n, blocks = _gamma_blocks(sigma, path)
        out: List[Fraction] = []
        for block in blocks:
            out.extend(w / n for w in _prefix_weights(sigma, block))
        return tuple(out)
    zeta, stripped = _gamma_component(xi, path)
    return _prefix_weights(zeta + 1, stripped)


@lru_cache(maxsize=None)
def t_family(xi: Ordinal) -> TFamily:
    return TFamily(Ordinal(xi))


@lru_cache(maxsize=None)
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
    if "max_depth" in data:
        return TruncationBudget(max_n=int(data["max_n"]), max_depth=int(data["max_depth"]))
    return TruncationBudget(max_n=int(data["max_n"]))


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
