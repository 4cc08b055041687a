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
the last must be maximal.  A label of block q is omega^sigma * q + r, its
inner label r in (0, omega^sigma] leading with an exponent <= sigma, so q
and r are read off its leading Cantor normal form term, and the label is
built by concatenating terms.  At a limit index the family is the union of
the successor families at zeta + 1, zeta < xi, shifted by omega^zeta, taken
off a label's leading term too; a path's first label names its component.

A member's state is what its family needs of it to go on below it: its
last label in T, and in Gamma its reading (``_Reading``), which holds its
maximality, rank, weight and what the labels one step below it need; state
None is the virtual root; a state fixes the labelled subtree below it, in
every family.  Gamma readings are interned, one object per reading, so they
are compared and hashed by identity; one at a successor index is keyed on
its family too, one at a limit on its component.
Each family has one child rule each way.  ``_step`` gives a child's state
from its parent's and its label.  A point query folds it over its path
through the step tables, as states recur across queries: a state's table
maps each label asked of it to an entry, the child's state (None for no
member) and the child's own table, so a label costs one dict lookup.  A
table is keyed by its state, which fixes it in every family (a Gamma
reading by identity), and a family's root table by the family; ``_step``
runs only on a miss and reads the index level below through the same
tables.  ``_below`` gives a node's children with their states; the walk
that ``truncate`` and the branch enumerations share builds every node's
state from its parent's with it, asks it once per distinct state, keeps its
answers in a memo freed when the walk ends, and adds no step table.
A family keeps one slot: the last path it read, or that its branch walk
yielded, with the states of that path's prefixes.  A query handed that
same path object answers from the slot, so that asking ``member``, ``rank``
and ``weight`` of one path, or ``prefix_weights`` of each branch that
``maximal_branches`` yields, folds each path at most once.  Only a tuple of
``Ordinal`` labels is kept, as no other path is sure not to change between
two queries.  A family pickles and copies as ``make_family(kind, xi)``,
never with its slot.
The families, the interned readings and the step tables share one memo of
at most 131,072 items, a table entry counting as one, cleared when full:
that costs only re-reading, as no answer depends on which object is which.
A query that holds a table from before a clear reads on through it, and
``t_family(xi) is t_family(xi)`` holds only while the memo keeps the family.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from .btree import FiniteBTree, NodePath, _field, _Frozen, _json_object, path_to_text
from .ordinal import ONE, ZERO, Ordinal, OrdinalError, _from_cnf, omega_pow

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


class TruncationBudget(_Frozen):
    """Caps for enumerating infinitely branching points.

    ``max_n`` bounds how many of the infinitely many one-step choices are
    taken (in increasing order along the canonical cofinal sequence at limit
    stages); ``max_depth`` is a safety cap on path length.  Immutable.
    """

    _FIELDS = ("max_n", "max_depth")
    __slots__ = _FIELDS

    def __init__(self, max_n: int, max_depth: int = _MAX_DEPTH):
        if type(max_n) is not int or type(max_depth) is not int:
            raise TypeError("max_n and max_depth must be ints")
        self._set(max_n=max_n, max_depth=max_depth)
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")


def _fundamental(lam: Ordinal, k: int) -> Ordinal:
    """The k-th element (k >= 0) of the canonical cofinal sequence of a limit."""
    beta, c = lam.terms[-1]
    head = lam.terms[:-1]
    delta = _from_cnf(head + ((beta, c - 1),) if c > 1 else head)
    if beta.is_successor:
        return delta + omega_pow(beta.pred()) * k
    return delta + omega_pow(_fundamental(beta, k))


# the one memo: each family by (kind, xi), each interned Gamma reading by its
# key, each step table {label: (child state, child's table)} by its state or a
# root's by its family.  No two kinds of key compare equal: a (kind, xi) key
# starts with a string, a reading's with a family and a T state, an Ordinal,
# with an (exponent, coefficient) pair; families and readings hash by identity
_MEMO: dict = {}
_MEMO_MAX = 1 << 17  # families, readings, tables and table entries, each counting as one
_memo_size = 0


def _grown() -> None:
    """Count one more family, reading, table or entry, after a clear if the memo is full."""
    global _memo_size
    if _memo_size >= _MEMO_MAX:
        _MEMO.clear()
        _memo_size = 0
    _memo_size += 1


def _kept(key, value):
    """Keep ``value`` in the memo under ``key``, counted."""
    _grown()
    _MEMO[key] = value
    return value


def _table(key) -> dict:
    """The step table of ``key``, a state or a family's root; made on first use."""
    table = _MEMO.get(key)
    return _kept(key, {}) if table is None else table


class _Family:
    """Shared validation and enumeration.

    Subclasses define ``rank`` and three hooks over the state of a member
    node, which is what the family needs to know of the node to go on below
    it; state None is the virtual root.  ``_below(state, budget)`` gives the
    (label, state) pairs one step below a node, ``_step(state, label)`` runs
    it backwards (the state of the child ``label``, None where it is no
    member), and ``_leaf(state)`` says whether a member is maximal.  The public
    queries fold ``_step`` over their path through the step tables, one
    lookup per label, and ``_step`` runs only on a table miss; the walk
    carries every node's state down from its parent's, so it reads no path,
    and asks ``_below`` once per distinct state.  The slot ``_last`` holds
    the last path read or yielded and its prefixes' states, values that
    outlive a clear of the memo; ``__reduce__`` keeps it out of pickles.
    """

    kind: str

    def __init__(self, xi: Ordinal):
        self.xi = Ordinal(xi)
        self._last = ((), ())  # () is the one path whose states are () without a fold

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.xi})"

    def __reduce__(self):
        # by kind and index, so that pickles and copies hold no slot or reading
        return make_family, (self.kind, self.xi)

    def _read(self, path: NodePath) -> tuple:
        """The states of the nonempty prefixes of ``path``; () for a non-member.
        The slot's when ``path`` is the object it holds, else ``_fold``'s."""
        last, states = self._last
        return states if path is last else self._fold(path)

    def _fold(self, path: NodePath) -> tuple:
        """``_read`` by the step tables, keeping the answer in the slot when
        ``path`` is a tuple of ``Ordinal`` labels, which cannot change.  A
        label that is no ``Ordinal`` is read by ``Ordinal`` first: 1, 1.0 and
        True hash alike."""
        states, state, table, kept = [], None, _MEMO.get(self) or _table(self), type(path) is tuple
        for label in path:
            if type(label) is not Ordinal:
                try:
                    label, kept = Ordinal(label), False
                except OrdinalError:
                    return ()
            state, table = table.get(label) or self._learn(table, state, label)
            if state is None:
                states = []
                break
            states.append(state)
        states = tuple(states)
        if kept:
            self._last = path, states
        return states

    def _learn(self, table: dict, state, label: Ordinal) -> tuple:
        """Step ``state`` by ``label`` and keep the entry in ``table``, the state's table."""
        child = self._step(state, label)
        entry = (None, None) if child is None else (child, _table(child))
        _grown()
        table[label] = entry
        return entry

    def _states(self, path: NodePath) -> tuple:
        states = self._read(path)
        if not states:
            text = path_to_text(tuple(path)) or "the empty path"
            raise ValueError(f"{text} is not a member of {self!r}")
        return states

    def member(self, path: NodePath) -> bool:
        return bool(self._read(path))

    def root_labels(self, budget: TruncationBudget) -> List[Ordinal]:
        return self.children((), budget)

    def children(self, path: NodePath, budget: TruncationBudget) -> List[Ordinal]:
        """Sorted labels extending ``path`` by one step (``()`` = virtual root)."""
        state = self._states(path)[-1] if path else None
        return [label for label, _ in self._below(state, budget)]

    def is_maximal(self, path: NodePath) -> bool:
        return self._leaf(self._states(path)[-1])

    def _walk(self, budget: TruncationBudget) -> Iterator[tuple]:
        # pre-order over (path, state) on an explicit stack; a node's
        # children are expanded only while its length is below max_depth.
        # A state fixes its subtree and the budget is the walk's, so each
        # distinct state's children, in push order, are asked of _below once
        pushes: Dict[object, list] = {}
        stack = [((label,), state) for label, state in reversed(self._below(None, budget))]
        while stack:
            node = stack.pop()
            yield node
            path, state = node
            if len(path) < budget.max_depth:
                below = pushes.get(state)
                if below is None:
                    below = pushes[state] = self._below(state, budget)[::-1]
                stack.extend((path + (label,), child) for label, child in below)

    def _branches(self, budget: TruncationBudget) -> Iterator[tuple]:
        # (path, its prefixes' states) per maximal branch, each left in the
        # slot as it is yielded, so that a query of the branch reads no label
        states: list = []  # the path's: the walk is pre-order
        for path, state in self._walk(budget):
            states[len(path) - 1 :] = [state]
            if self._leaf(state):
                self._last = last = path, tuple(states)
                yield last

    def maximal_branches(self, budget: TruncationBudget) -> Iterator[NodePath]:
        """Lazily yield paths maximal in the full family, up to the budget."""
        return (path for path, _ in self._branches(budget))

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

    def _step(self, above: Optional[Ordinal], label: Ordinal) -> Optional[Ordinal]:
        xi = self.xi if above is None else above.pred()
        return label if label.is_successor and (label == xi or (xi.is_limit and label < xi)) else None

    def _below(self, above: Optional[Ordinal], budget: TruncationBudget) -> List[Tuple[Ordinal, Ordinal]]:
        xi = self.xi if above is None else above.pred()
        if xi.is_zero:
            return []
        if xi.is_successor:
            return [(xi, xi)]
        return [(label, label) for label in (_fundamental(xi, k) + 1 for k in range(budget.max_n))]

    def _leaf(self, label: Ordinal) -> bool:
        return label == ONE

    def rank(self, path: NodePath) -> Ordinal:
        return self._states(path)[-1].pred()


class GammaFamily(_Family):
    """The weighted tree of order omega^xi.

    A node's state is its ``_Reading``.  At a successor sigma + 1 the family
    keeps sigma, and Gamma at sigma from first use (``_down``); a component of
    a limit is such a family, shifted by omega^sigma.  ``_step`` splits a label
    by its leading CNF term, or strips the shift, and steps once a level down.
    """

    kind = "Gamma"

    def __init__(self, xi: Ordinal):
        super().__init__(xi)
        if self.xi.is_successor:
            self._sigma = self.xi.pred()
            self._unit = omega_pow(self._sigma)

    @cached_property
    def _down(self) -> GammaFamily:
        return gamma_family(self._sigma)

    # a successor's labels, read and built by their leading CNF term alone
    def _split(self, label: Ordinal) -> tuple:
        """(q, r) with label = omega^sigma * q + r, 0 < r <= omega^sigma; (None, label) for q infinite."""
        f, c = label[0]
        order = f._cmp(self._sigma)
        if order:
            return (None if order > 0 else 0), label
        return (c, _from_cnf(label[1:])) if len(label) > 1 else (c - 1, self._unit)

    def _strip(self, label: Ordinal) -> Optional[Ordinal]:
        """The d > 0 with omega^sigma + d == label, else None."""
        q, r = self._split(label)
        return r if q is None else self._label(q - 1, r) if q else None

    def _label(self, q: int, r: Ordinal) -> Ordinal:
        """Block q's label r, omega^sigma * q + r; r > 0 leads with an exponent <= sigma."""
        if not q:
            return r
        return _from_cnf(((self._sigma, q + r[0][1]), *r[1:]) if r[0][0] == self._sigma else ((self._sigma, q), *r))

    def _step(self, reading: Optional[_Reading], label: Ordinal) -> Optional[_Reading]:
        xi = self.xi
        if xi.is_zero or not label:  # 0 or a failed strip's None is no label; 1 is Gamma_0's
            return _GAMMA_0 if reading is None and label == ONE else None
        if xi.is_successor:
            q, r = self._split(label)
            if q is None:  # an infinite quotient is no block index
                return None
            if reading is None:  # the first block, whose quotient is n - 1
                block, n = None, q + 1
            else:
                q_last, block, n = reading.inner
                if block.maximal:  # only the next block may open
                    block, q_last = None, q_last - 1
                if q != q_last:
                    return None
            # one level down through the step tables, as ``_read`` reads a
            # label; inline, so that a miss takes two frames per index level
            down = self._down
            table = _table(down if block is None else block)
            block = (table.get(r) or down._learn(table, block, r))[0]
            return None if block is None else _in_block(self, q, block, n)
        if reading is not None:
            component, stripped = reading.inner
        elif not label[0][0] < xi:
            return None
        else:
            # Gamma at zeta + 1 has its labels in [1, omega^(zeta + 1)), so
            # shifting them by omega^zeta keeps the leading exponent zeta
            component, stripped = gamma_family(label[0][0] + 1), None
        table, label = _table(component if stripped is None else stripped), component._strip(label)
        stripped = (table.get(label) or component._learn(table, stripped, label))[0]
        return None if stripped is None else _in_component(component, stripped)

    def _below(self, reading: Optional[_Reading], budget: TruncationBudget) -> List[Tuple[Ordinal, _Reading]]:
        # sorted as built: block n's labels lie in (unit * n, unit * (n + 1)],
        # component zeta's in (omega^zeta, omega^(zeta + 1)], and shifting a
        # sorted list on the left keeps it sorted.  A maximal reading has
        # nothing below it, and every reading at 0 is maximal.  At a limit,
        # one rule over (component, state): each component's root at the root
        xi = self.xi
        if reading is None:
            if xi.is_zero:
                return [(ONE, _GAMMA_0)]
            if xi.is_successor:  # the first block, whose quotient is n - 1
                pairs = self._down._below(None, budget)
                return [(self._label(q, r), _in_block(self, q, s, q + 1))
                        for q in range(budget.max_n) for r, s in pairs]
            components = [(gamma_family(_fundamental(xi, k) + 1), None) for k in range(budget.max_n)]
        elif reading.maximal:
            return []
        elif xi.is_successor:
            q, last, n = reading.inner
            if last.maximal:  # so q > 0: only the next block may open
                q, last = q - 1, None
            return [(self._label(q, r), _in_block(self, q, s, n)) for r, s in self._down._below(last, budget)]
        else:
            components = [reading.inner]
        return [(component._label(1, r), _in_component(component, s))
                for component, state in components for r, s in component._below(state, budget)]

    def _leaf(self, reading: _Reading) -> bool:
        return reading.maximal

    def rank(self, path: NodePath) -> Ordinal:
        return self._states(path)[-1].rank

    # -- weights -------------------------------------------------------------

    def weight(self, path: NodePath) -> Fraction:
        """The exact rational weight of a member node."""
        return self._states(path)[-1].weight

    def prefix_weights(self, path: NodePath) -> Tuple[Fraction, ...]:
        """Weights of every nonempty prefix of ``path``, in order."""
        return tuple(reading.weight for reading in self._states(path))

    def branch_weight_sum(self, path: NodePath) -> Tuple[Fraction, bool]:
        """Sum of prefix weights plus a flag: True iff the branch is maximal.

        The sum equals 1 exactly when the flag is True; otherwise it is the
        partial sum along a non-maximal path.
        """
        states = self._states(path)
        return sum((reading.weight for reading in states), Fraction(0)), states[-1].maximal

    def node_weights(self, budget: TruncationBudget) -> Dict[NodePath, Fraction]:
        """Every node of ``truncate(budget)`` with its weight, from one walk."""
        return {path: reading.weight for path, reading in self._walk(budget)}

    def weighted_branches(self, budget: TruncationBudget) -> Iterator[Tuple[NodePath, Tuple[Fraction, ...]]]:
        """``maximal_branches`` with the prefix weights of each, from one walk."""
        return ((path, tuple(reading.weight for reading in states)) for path, states in self._branches(budget))


class _Reading(_Frozen):
    """A member of a Gamma family as its walk and its queries see it: its
    maximality, rank, weight and all that its children depend on, and
    nothing that grows with its length, so it fixes its subtree in every
    family.  Read-only, and made only by ``_in_block`` and ``_in_component``
    (``_GAMMA_0`` aside), so it is compared and hashed by identity."""

    __slots__ = ("maximal", "denominator", "inner", "weight", "rank")
    __eq__, __hash__, __repr__ = object.__eq__, object.__hash__, object.__repr__

    maximal: bool
    denominator: int  # the node weighs 1 / denominator
    # for the labels below and the rank: () at 0; at a successor the last
    # block's quotient q, its reading in Gamma at the predecessor and the
    # block parameter n (the first block's quotient is n - 1); at a limit
    # the component, Gamma at zeta + 1, and the reading in it of the path
    # stripped of omega^zeta
    inner: tuple
    weight: Fraction  # computed once, as is the rank: below a node of block q
    # lie the rest of its block and q whole blocks of order omega^sigma, so its
    # rank is omega^sigma * q + the block's rank; at a limit, the stripped's
    rank: Ordinal

    def __init__(self, maximal: bool, denominator: int, inner: tuple, rank: Ordinal = ZERO):
        self._set(maximal=maximal, denominator=denominator, inner=inner, weight=Fraction(1, denominator), rank=rank)


_GAMMA_0 = _Reading(True, 1, ())  # the one reading at index 0, never interned

# a reading's key fixes it and holds interned readings, so that its hash is
# shallow; a reading is made only on a miss
def _in_block(family: GammaFamily, q: int, block: _Reading, n: int) -> _Reading:
    """The reading of a node of block q, parameter n, of the successor ``family``, whose block reads ``block``."""
    key = (family, q, block, n)
    return _MEMO.get(key) or _kept(key, _Reading(
        q == 0 and block.maximal, block.denominator * n, key[1:],
        _from_cnf(((family._sigma, q), *block.rank)) if q else block.rank))


def _in_component(component: GammaFamily, stripped: _Reading) -> _Reading:
    """The reading at a limit of a node of ``component``."""
    key = (component, stripped)
    return _MEMO.get(key) or _kept(key, _Reading(stripped.maximal, stripped.denominator, key, stripped.rank))


def t_family(xi: Ordinal) -> TFamily:
    return make_family("T", xi)


def gamma_family(xi: Ordinal) -> GammaFamily:
    return make_family("Gamma", xi)


def make_family(kind: str, xi: Ordinal) -> _Family:
    """The family of ``kind`` at ``xi``, one object while the memo keeps it."""
    if kind not in ("T", "Gamma"):  # by ==, so that an unhashable kind is refused too
        raise ValueError(f"unknown family kind {kind!r}")
    key = (kind, Ordinal(xi))
    return _MEMO.get(key) or _kept(key, (TFamily if kind == "T" else GammaFamily)(key[1]))


def family_from_json(data: Union[dict, str]) -> _Family:
    """Build a family from the descriptor {"kind": "T"|"Gamma", "xi": "<CNF>"}."""
    data = _json_object(data, "family")
    return make_family(_field(data, "kind", "family"), Ordinal(_field(data, "xi", "family")))


def family_to_json(family: _Family) -> dict:
    return {"kind": family.kind, "xi": str(family.xi)}


def budget_from_json(data: Union[dict, str]) -> TruncationBudget:
    """Build a budget from {"max_n": N, "max_depth": D} (max_depth optional)."""
    data = _json_object(data, "budget")
    max_n, max_depth = _field(data, "max_n", "budget"), data.get("max_depth", _MAX_DEPTH)
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
        path = tuple(path)
        source._states(path)
        return _inflate(path, xi, gamma)[: len(path)]

    return phi
