"""Two-player games on finite well-founded B-trees, solved exactly.

Player I picks a tree label extending the current node together with a
subspace from a finite list; Player II replies with a compact set from a
finite list.  Play ends at a maximal tree node; Player II wins exactly the
terminal histories in the payoff set.  The payoff set is either an explicit
table of terminal histories or the weighted functional payoff ("szlenk"):
a terminal history is winning for II if some functional x* from the model
and some selection x_i from each ball/subspace/compact intersection achieve

    sum_i  weight(node prefix of length i) * x*(x_i)  >=  epsilon.

Everything is exact: vectors and payoffs are rationals.  The model builds,
once, a gains table holding each selection set and, per functional, its
peak value over that set and least maximizer, from one pass over each
compact's points that works out each point's norm, subspaces and values
once, in integers: the points, the functionals and the subspace rows are
scaled by the lcms of their denominators, and only each peak becomes a
rational again.  A szlenk play's state is its partial sums
s_f = sum_i w_i * peak_f(z_i, c_i), exact integers over one common
denominator per game (the history under a table payoff).  The scorer numbers
each distinct state once per game, judges it then, and keys each transition
by one int, so the solver, the playout walk behind verification and
extraction, and single leaves read a move's next state with one lookup and
compute it once over all calls on the game.  The state and the tree node
decide the rest of the game, so the solver runs backward induction on an
explicit stack over (node, state id) positions, memoized, then writes the
history-keyed strategy out by walking the plays it reaches.  Tie-breaks are
deterministic (lexicographically least move): output is byte-reproducible.

Each game numbers its tree nodes once, in a node arena: id 0 is the virtual
root, and per id it keeps the node's children as {label: child id} in sorted
label order and its integer weight, and, from the first walk through the
node on, its offers with their (label, subspace) and (label, subspace,
compact) tuples.  Every walk moves through node ids, so none hashes a path
of ``Ordinal`` labels to find a child, a weight or whether a node is
maximal.  Histories of labels remain only where the output needs them, in
the keys of ``Strategy.moves`` and of ``ExtractedCollections``, and share
those tuples.  One lookup, ``_offer_at``, decides a legal Player-I
prescription and finds its offer, for the playout walk, for substrategy
completion (one walk over the non-maximal product tree) and for the walk of
a maximal history, ``_leaf_moves``, behind the payoff table and single leaves.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from operator import itemgetter, mul
from types import MappingProxyType
from typing import (
    TYPE_CHECKING, Callable, Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Tuple, Union
)

from .btree import FiniteBTree, NodePath, _field, _Frozen, _frac_text, _json_object, path_to_text
from .ordinal import _INT, _RATIONAL, Ordinal, _is_int

if TYPE_CHECKING:
    from .families import TruncationBudget

__all__ = [
    "ModelSpace",
    "GameSpec",
    "Strategy",
    "ExtractedCollections",
    "PAYOFF_SZLENK",
    "eval_payoff",
    "solve",
    "verify_strategy",
    "brute_force_winner",
    "complete_substrategy",
    "extract_collections",
    "build_szlenk_game",
    "game_position_count",
    "game_to_json",
    "game_from_json",
    "model_from_json",
    "strategy_to_json",
    "strategy_from_json",
    "collections_to_json",
    "history_to_text",
    "history_from_text",
]

PAYOFF_SZLENK = "szlenk"

Vector = Tuple[Fraction, ...]
Move = Tuple[Ordinal, int, int]
History = Tuple[Move, ...]
Offer = Tuple[Ordinal, int]
ZDHistory = Tuple[Offer, ...]


def _on_ints(vectors) -> Tuple[int, List[List[int]]]:
    """(d, the vectors times d as lists of ints), d the lcm of the entries'
    denominators (1 when there are none), with no Fraction operation."""
    d = math.lcm(*(x.denominator for v in vectors for x in v))
    return d, [[x.numerator * (d // x.denominator) for x in v] for v in vectors]


def _rational(x) -> Fraction:
    """An int, a Fraction, or text of ``_RATIONAL``'s grammar, as a Fraction.
    A float is refused, finite or not: JSON's 0.1 is no exact 1/10."""
    if type(x) is Fraction:  # immutable, so taken as it is
        return x
    text = _RATIONAL.fullmatch(x) if isinstance(x, str) else None
    try:
        if text:
            return Fraction(int(text[1]), int(text[2] or 1))
        if _is_int(x) or isinstance(x, Fraction):  # JSON true and false are not numbers
            return Fraction(x)
    except ZeroDivisionError:  # p/0
        pass
    raise ValueError(f"not a rational: {x!r}")


class ModelSpace(_Frozen):
    """A finite-dimensional rational model of the game's move alphabets.

    ``subspaces`` lists constraint matrices (x lies in subspace i iff
    M_i x = 0; an empty matrix is the whole space), ``compacts`` lists finite
    point sets, ``functionals`` the available covectors, and ``norm`` fixes
    the unit ball ("max" or "sum").  All scalars are exact rationals.

    The gains table is built once, on integers: ``_gains[z][c]`` holds the
    selection set of subspace z and compact c, and, per functional, the pair
    (peak value over that set, least maximizer); the per-functional part is
    None when the selection set is empty.  The ball, subspace and value
    tests are int sums over vectors scaled by the lcms of their denominators
    (one per compact, one for the functionals, one per subspace matrix).
    """

    _FIELDS = ("dim", "subspaces", "compacts", "functionals", "epsilon", "norm")
    __slots__ = _FIELDS + ("_gains",)

    def __init__(self, dim, subspaces, compacts, functionals, epsilon, norm="max"):
        if not _is_int(dim):
            raise ValueError(f"not an integer dim: {dim!r}")
        if dim < 1:
            raise ValueError("dim must be positive")
        vec = lambda entries: self._vector(entries, dim)
        self._set(
            dim=dim,
            subspaces=tuple(tuple(vec(row) for row in m) for m in subspaces),
            compacts=tuple(tuple(vec(x) for x in c) for c in compacts),
            functionals=tuple(vec(f) for f in functionals),
            epsilon=_rational(epsilon),
            norm=norm,
        )
        if not self.subspaces or not self.compacts:
            raise ValueError("move alphabets must be non-empty")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if norm not in ("max", "sum"):
            raise ValueError(f"unknown norm {norm!r}")
        # per point of the unit ball: which subspaces hold it, and its values
        # under the functionals times df * dc, negated (min then finds the
        # peak and, among its maximizers, the least vector)
        size = max if norm == "max" else sum
        matrices = [_on_ints(m)[1] for m in self.subspaces]
        df, xstars = _on_ints(self.functionals)
        balls = []
        for points in self.compacts:
            dc, scaled = _on_ints(points)
            ball = [
                (x, [all(sum(map(mul, row, xi)) == 0 for row in m) for m in matrices],
                 [-sum(map(mul, f, xi)) for f in xstars])
                for x, xi in zip(points, scaled) if size(map(abs, xi)) <= dc
            ]
            balls.append((ball, df * dc))
        gains = tuple(tuple(self._gain(z, *ball) for ball in balls) for z in range(len(matrices)))
        self._set(_gains=gains)

    def _gain(self, z_index: int, ball: list, d: int):
        selected = [(x, negated) for x, held, negated in ball if held[z_index]]
        if not selected:
            return (), None
        peaks = (
            min((negated[f], x) for x, negated in selected) for f in range(len(self.functionals))
        )
        return tuple(x for x, _ in selected), tuple((Fraction(-negated, d), x) for negated, x in peaks)

    @staticmethod
    def _vector(entries, dim) -> Vector:
        v = tuple(_rational(x) for x in entries)
        if len(v) != dim:
            raise ValueError(f"vector of length {len(v)}, expected {dim}")
        return v

    def __repr__(self):
        return (
            f"ModelSpace(dim={self.dim}, |D|={len(self.subspaces)}, "
            f"|K|={len(self.compacts)}, eps={self.epsilon})"
        )

    def norm_value(self, x: Vector) -> Fraction:
        return (max if self.norm == "max" else sum)(map(abs, self._vector(x, self.dim)))

    def in_subspace(self, index: int, x: Vector) -> bool:
        x = self._vector(x, self.dim)
        return all(sum(map(mul, row, x)) == 0 for row in self.subspaces[index])

    def selection_set(self, z_index: int, c_index: int) -> Tuple[Vector, ...]:
        """Points of compact c that lie in subspace z and in the unit ball."""
        return self._gains[z_index][c_index][0]


class GameSpec(_Frozen):
    """A game: tree, move alphabets (``n_subspaces`` and ``n_compacts`` long),
    node weights (read-only) and a payoff set.

    Built once: the node arena, which numbers the tree's nodes (0 is the
    virtual root) and holds per id ``_kids``, the node's ``{label: child id}``
    in sorted label order (empty at a maximal node); and for the szlenk payoff
    on integers, per id ``_int_weights``, the node weight times Dw, the gains
    table's peaks times Dp (Dw and Dp the lcms of their denominators), and
    ``_bar``, the least sum that reaches epsilon * Dw * Dp.  Filled by the
    walks, for all of them: per node id its offers (``_offers``); the state
    memos of ``_scorer`` (``_states`` by id, ``_ids`` by state, ``_wins``,
    ``_steps``) and ``extract_collections``' ``_witness`` by id.  Not fields,
    so a pickle or copy starts empty.
    """

    _FIELDS = ("tree", "model", "weights", "payoff")
    __slots__ = _FIELDS + ("n_subspaces", "n_compacts", "_kids", "_int_weights", "_int_peaks", "_bar",
                           "_offer_table", "_states", "_ids", "_steps", "_wins", "_witness")

    def __init__(
        self,
        tree: FiniteBTree,
        model: ModelSpace,
        weights: Dict[NodePath, Fraction],
        payoff: Union[str, FrozenSet[History]],
    ):
        # the node arena: id 0 is the virtual root, the other ids follow breadth-first
        # in sorted label order, and reach every node iff the tree is prefix-closed
        index = tree._child_index()
        paths: List[NodePath] = [()]
        kids: List[Dict[Ordinal, int]] = []
        while len(kids) < len(paths):
            path = paths[len(kids)]
            found = index.get(path, ())
            kids.append(dict(zip(found, range(len(paths), len(paths) + len(found)))))
            paths.extend(path + (zeta,) for zeta in found)
        if not len(tree) or len(paths) <= len(tree):
            raise ValueError("tree must be a non-empty valid B-tree")
        weights = {tuple(k): _rational(v) for k, v in weights.items()}
        node_weights = [weights.get(node) for node in paths[1:]]  # by node id, from 1
        for node, w in zip(paths[1:], node_weights):
            if w is None:
                raise ValueError(f"no weight for node {path_to_text(node)}")
            if not 0 <= w.numerator <= w.denominator:
                raise ValueError(f"weight {w} outside [0, 1]")
        if len(weights) > len(tree):
            stray = next(path for path in weights if path not in tree.nodes)
            raise ValueError(f"weight for {path_to_text(stray)}, which is not a tree node")
        if payoff != PAYOFF_SZLENK:
            payoff = frozenset(tuple(tuple(m) for m in h) for h in payoff)
        self._set(tree=tree, model=model, weights=MappingProxyType(weights), payoff=payoff,
                  n_subspaces=len(model.subspaces), n_compacts=len(model.compacts))
        gains, eps = model._gains, model.epsilon
        dw = math.lcm(*(w.denominator for w in node_weights))
        dp = math.lcm(*(p.denominator for row in gains for _, ps in row for p, _ in ps or ()))
        scale = lambda p, d: p.numerator * (d // p.denominator)  # p * d, an int, without a Fraction
        int_peaks = tuple(
            tuple(None if ps is None else tuple(scale(p, dp) for p, _ in ps) for _, ps in row)
            for row in gains
        )
        self._set(_kids=tuple(kids), _int_peaks=int_peaks,
                  _int_weights=(0,) + tuple(scale(w, dw) for w in node_weights),
                  _bar=-(-eps.numerator * dw * dp // eps.denominator),
                  _offer_table={}, _ids={}, _steps={}, _witness={}, _states=[], _wins=[])
        if payoff != PAYOFF_SZLENK and any(_leaf_moves(self, h) is None for h in payoff):
            raise ValueError("payoff table entry is not a maximal history")

    __repr__ = object.__repr__  # never a whole tree

    def __reduce__(self):  # a mappingproxy does not pickle
        return GameSpec, (self.tree, self.model, dict(self.weights), self.payoff)

    def prefix_weights(self, node: NodePath) -> List[Fraction]:
        return [self.weights[node[: i + 1]] for i in range(len(node))]


class Strategy(_Frozen):
    """A decision rule for one player.

    For Player I, ``moves`` maps histories (after II's reply, or the empty
    history) to (label, subspace index).  For Player II it maps pairs
    (history, offered (label, subspace index)) to a compact index.
    Neither field can be rebound, but ``moves`` is a plain dict, so unhashable.
    """

    _FIELDS = ("player", "moves")
    __slots__ = _FIELDS

    def __init__(self, player: str, moves: dict):
        if player not in ("I", "II"):
            raise ValueError(f"unknown player {player!r}")
        self._set(player=player, moves=moves)


class ExtractedCollections(NamedTuple):
    """Witness collections pulled out of a winning strategy for Player II.

    ``compact_choices`` assigns a compact index to every (label, subspace)
    history; ``functionals`` realizes the payoff at every maximal history t;
    ``selections[(s, t)]`` is the vector used at prefix s on the way to t.
    """

    compact_choices: Dict[ZDHistory, int]
    functionals: Dict[ZDHistory, Vector]
    selections: Dict[Tuple[ZDHistory, ZDHistory], Vector]


# -- payoff ------------------------------------------------------------------


def _offers(game: GameSpec, node: int) -> tuple:
    """The offers at node ``node``, by child id and then subspace zi, each
    ``(child id, zi, (label, zi), its moves (label, zi, ci) by ci, (child id
    * n_subspaces + zi) * n_compacts)``, the last its move base (``_scorer``),
    built on the first walk through the node; every walk's histories and keys
    share these tuples.  A node's children have consecutive ids (``_offer_at``)."""
    found = game._offer_table.get(node)
    if found is None:
        n_subspaces, n_compacts = game.n_subspaces, game.n_compacts
        found = game._offer_table[node] = tuple(
            (child, zi, offer, tuple([(*offer, ci) for ci in range(n_compacts)]),
             (child * n_subspaces + zi) * n_compacts)
            for zeta, child in game._kids[node].items()
            for zi in range(n_subspaces)
            for offer in [(zeta, zi)]
        )
    return found


def _offer_at(game: GameSpec, node: int, move) -> Optional[tuple]:
    """The entry of ``_offers`` that a Player-I prescription at node ``node``
    picks, or None unless it is legal: a (label, subspace) pair whose label the
    node's {label: child id} finds, by hash and equality as the tree's node set
    would (an int equal to a label is not one), and an int subspace in range."""
    try:
        zeta, zi = move
        child = game._kids[node].get(zeta)
    except (TypeError, ValueError):  # not a pair, or a label not hashable
        return None
    if child is None or not (_is_int(zi) and 0 <= zi < game.n_subspaces):
        return None
    table = _offers(game, node)
    return table[(child - table[0][0]) * game.n_subspaces + zi]


def _scorer(game: GameSpec):
    """(root id, step, span): the payoff of a play, scored move by move.

    A state is the partial sums times Dw * Dp under the szlenk payoff (None
    once a reply's selection set is empty; each factor peaks on its own for a
    fixed x*, as the weights are nonnegative), the history under a table
    payoff.  Each distinct state gets one id in the game's ``_states`` and
    ``_ids``, and ``_wins[id]``, judged then, says if II wins a play ending
    there.  ``_steps`` maps the int ``id * span + base + ci`` (``base`` the
    offer's move base, ``_offers``) to the id after compact ci; ``step(id,
    offer, ci)`` numbers that id and stores the transition, and the walks
    call it only when ``_steps`` misses.  The memos are the game's, so each
    call on the game finds every step an earlier one took."""
    states, ids, wins, szlenk = game._states, game._ids, game._wins, game.payoff == PAYOFF_SZLENK
    steps, span = game._steps, len(game._kids) * game.n_subspaces * game.n_compacts
    weights, peaks, bar = game._int_weights, game._int_peaks, game._bar

    def number(state) -> int:
        found = ids.get(state)
        if found is None:
            found = ids[state] = len(states)
            states.append(state)
            # no functionals leave the sums () and a win out of reach
            wins.append(bool(state) and max(state) >= bar if szlenk else state in game.payoff)
        return found

    def step(i, offer, ci):
        state = states[i]
        if not szlenk:
            state += (offer[3][ci],)
        elif state is not None:
            gains, w = peaks[offer[1]][ci], weights[offer[0]]
            state = None if gains is None else tuple([s + w * p for s, p in zip(state, gains)])
        after = steps[i * span + offer[4] + ci] = number(state)
        return after

    return number((0,) * len(game.model.functionals) if szlenk else ()), step, span


def _leaf_moves(game: GameSpec, history) -> Optional[List[tuple]]:
    """The moves of ``history`` as (``_offers`` entry, ci) pairs, or None unless
    it is a maximal history of legal moves: each a Player-I prescription legal
    as ``_offer_at`` decides, with an int compact index in range."""
    moves, node = [], 0
    try:
        for label, zi, ci in history:
            offer = _offer_at(game, node, (label, zi))
            if offer is None or not (_is_int(ci) and 0 <= ci < game.n_compacts):
                return None
            moves.append((offer, ci))
            node = offer[0]
    except (TypeError, ValueError):  # not a sequence of moves, or a move not a triple
        return None
    return None if game._kids[node] else moves


def eval_payoff(game: GameSpec, leaf: History) -> bool:
    """Does the terminal history belong to the payoff set?"""
    moves = _leaf_moves(game, leaf)
    if moves is None:
        raise ValueError("leaf is not a maximal history")
    i, step, span = _scorer(game)
    for offer, ci in moves:
        after = game._steps.get(i * span + offer[4] + ci)
        i = step(i, offer, ci) if after is None else after
    return game._wins[i]


# -- solving -----------------------------------------------------------------


def solve(game: GameSpec) -> Tuple[str, Strategy]:
    """Determine the winner and a winning strategy.

    Player I wins at a position iff some offer (label, subspace) leaves
    every compact reply losing for II; the returned strategy follows the
    lexicographically least such offer, and for II the least winning reply.
    A position is the tree node's arena id with the play's state id
    (``_scorer``).  Each position is decided once, on an explicit stack; the
    strategy then prescribes a move at every history its own plays reach,
    with the game's offer and move tuples (``_offers``).
    """
    kids, n_compacts, steps, wins = game._kids, game.n_compacts, game._steps, game._wins
    root, step, span = _scorer(game)

    def decide(node: int, i: int):
        # yields each non-terminal child position it needs decided and is
        # sent back whether I wins there; returns (True, least winning offer)
        # or (False, least winning reply for each offer in order)
        replies = []
        for offer in _offers(game, node):
            terminal, at = not kids[offer[0]], i * span + offer[4]
            for ci in range(n_compacts):
                after = steps.get(at + ci)
                if after is None:
                    after = step(i, offer, ci)
                i_won = not wins[after] if terminal else (yield offer[0], after)
                if not i_won:
                    replies.append(ci)
                    break
            else:
                return True, offer
        return False, replies

    decided: Dict[Tuple[int, int], tuple] = {}
    stack = [((0, root), decide(0, root))]
    sent = None
    while stack:
        position, search = stack[-1]
        try:
            child = search.send(sent)
        except StopIteration as done:
            decided[position] = done.value
            stack.pop()
            sent = done.value[0]
            continue
        if child in decided:
            sent = decided[child][0]
        else:
            stack.append((child, decide(*child)))
            sent = None

    # every move of the write-out was taken by ``decide``, so ``_steps`` has it
    i_wins = decided[(0, root)][0]
    moves: dict = {}
    plays: List[Tuple[History, int, int]] = [((), 0, root)]
    while plays:
        history, node, i = plays.pop()
        choice = decided[(node, i)][1]
        if i_wins:
            moves[history] = choice[2]
            branches = [(choice, ci) for ci in range(n_compacts)]
        else:
            branches = list(zip(_offers(game, node), choice))
            for offer, ci in branches:
                moves[(history, offer[2])] = ci
        for offer, ci in branches:
            if kids[offer[0]]:
                plays.append((history + (offer[3][ci],), offer[0], steps[i * span + offer[4] + ci]))
    winner = "I" if i_wins else "II"
    return winner, Strategy(winner, moves)


def _plays(game: GameSpec, strategy: Strategy, extend=None, payload=None) -> Iterator[tuple]:
    """Walk every play consistent with ``strategy``, without recursion.

    Carries the state id (``_scorer``) and a caller's ``payload`` down the
    walk: ``payload`` at the empty history, then ``extend(payload, offer,
    ci)`` once per move, if ``extend`` is given.  Yields ``(leaf, id,
    payload)`` at each maximal history, built of the game's move tuples
    (``_offers``), and ends with ``(None, id, payload)`` at the first
    prescription that is missing or illegal: for Player I as ``_offer_at``
    decides, for Player II a reply that is not an int index in range.
    """
    kids, n_compacts, moves, steps = game._kids, game.n_compacts, strategy.moves, game._steps
    root, step, span = _scorer(game)
    stack: List[tuple] = [((), 0, root, payload)]
    if strategy.player == "I":
        while stack:
            history, node, i, payload = stack.pop()
            offer = _offer_at(game, node, moves.get(history))
            if offer is None:
                yield None, i, payload
                return
            child, at = offer[0], i * span + offer[4]
            for ci, move in enumerate(offer[3]):
                after = steps.get(at + ci)
                if after is None:
                    after = step(i, offer, ci)
                below = payload if extend is None else extend(payload, offer, ci)
                if kids[child]:
                    stack.append((history + (move,), child, after, below))
                else:
                    yield history + (move,), after, below
    else:
        while stack:
            history, node, i, payload = stack.pop()
            for offer in _offers(game, node):
                ci = moves.get((history, offer[2]))
                if not ((type(ci) is int or _is_int(ci)) and 0 <= ci < n_compacts):
                    yield None, i, payload
                    return
                after = steps.get(i * span + offer[4] + ci)
                if after is None:
                    after = step(i, offer, ci)
                below = payload if extend is None else extend(payload, offer, ci)
                if kids[offer[0]]:
                    stack.append((history + (offer[3][ci],), offer[0], after, below))
                else:
                    yield history + (offer[3][ci],), after, below


def verify_strategy(game: GameSpec, strategy: Strategy) -> bool:
    """Exhaustively play every admissible playout; True iff all favor the owner."""
    owner_is_ii, wins = strategy.player == "II", game._wins
    for leaf, i, _ in _plays(game, strategy):
        if leaf is None or wins[i] != owner_is_ii:
            return False
    return True


def game_position_count(game: GameSpec) -> int:
    """Number of move histories in the full product tree."""
    per_move = game.n_subspaces * game.n_compacts
    return sum(per_move ** len(node) for node in game.tree.nodes)


def brute_force_winner(game: GameSpec, max_positions: int = 10**6) -> str:
    """Naive exists/forall alternation over the full product tree."""
    count = game_position_count(game)
    if count > max_positions:
        raise ValueError(f"game has {count} positions, above the {max_positions} cap")
    tree = game.tree

    def won(history: History, node: NodePath) -> bool:
        return any(
            all(
                (
                    not eval_payoff(game, history + ((zeta, zi, ci),))
                    if tree.is_max(node + (zeta,))
                    else won(history + ((zeta, zi, ci),), node + (zeta,))
                )
                for ci in range(game.n_compacts)
            )
            for zeta in tree.children_labels(node)
            for zi in range(game.n_subspaces)
        )

    return "I" if won((), ()) else "II"


# -- substrategy completion ----------------------------------------------------


def complete_substrategy(game: GameSpec, sub: Strategy, fallback_z: int) -> Strategy:
    """Extend a Player-I substrategy to a total strategy, in one walk.

    The walk covers the non-maximal product tree on an explicit stack: it
    keeps each prescription, which must be legal as ``_offer_at`` decides,
    and elsewhere plays the least label with the fixed fallback subspace.  It
    carries whether a history lies on the substrategy's own play, where a
    prescription must exist; a key it never meets (off the tree, at a maximal
    node, or with an index out of range) is an error.  An already-total
    strategy therefore passes unchanged.
    """
    if sub.player != "I":
        raise ValueError("substrategy completion is for Player I")
    kids = game._kids
    if not (_is_int(fallback_z) and 0 <= fallback_z < game.n_subspaces):
        raise ValueError("fallback subspace index out of range")
    total: Dict[History, Offer] = {}
    met = 0
    stack: List[Tuple[History, int, bool]] = [((), 0, True)]
    while stack:
        history, node, on_play = stack.pop()
        offers = _offers(game, node)
        if history in sub.moves:
            met += 1
            move = sub.moves[history]
            if _offer_at(game, node, move) is None:
                raise ValueError("substrategy prescribes an illegal move")
            move = total[history] = tuple(move)
        elif on_play:
            raise ValueError("substrategy is undefined at a reachable position")
        else:
            move = total[history] = offers[fallback_z][2]
        for child, _, offer, moves, _ in offers:
            if kids[child]:
                played = on_play and offer == move
                stack.extend((history + (m,), child, played) for m in moves)
    if met < len(sub.moves):
        raise ValueError("substrategy domain leaves the non-maximal tree")
    return Strategy("I", total)


# -- witness extraction ---------------------------------------------------------


def extract_collections(game: GameSpec, strategy: Strategy) -> ExtractedCollections:
    """Verify a winning strategy for II and pull witness collections out of it.

    Verification and extraction share one walk over the strategy's plays; a
    strategy that is not a win for II raises ValueError.  The compact choice
    at a (label, subspace) history is what the strategy replies along its own
    play; at each maximal history the payoff inequality holds, and its exact
    witnesses supply the functional and the selection vectors, indexed by
    (prefix, maximal history) pairs.  The functional is the one of greatest
    value, the least such vector first; the selections are the least
    maximizers the gains table stores for it.
    """
    if game.payoff != PAYOFF_SZLENK:
        raise ValueError("collection extraction needs the szlenk payoff")
    if strategy.player != "II":
        raise ValueError("collection extraction needs a strategy for Player II")
    gains, xstars = game.model._gains, game.model.functionals
    by_vector = sorted(range(len(xstars)), key=xstars.__getitem__)
    compact_choices: Dict[ZDHistory, int] = {}
    functionals: Dict[ZDHistory, Vector] = {}
    selections: Dict[Tuple[ZDHistory, ZDHistory], Vector] = {}
    states, wins, witness = game._states, game._wins, game._witness  # witness: j per leaf's id

    def extend(prefixes, offer, ci):
        # the (label, subspace) prefixes of the history, the empty one first,
        # shared with every history below it; the walk extends once per reply
        # the strategy prescribes, so the new prefix keys that reply's choice
        pairs = prefixes[-1] + (offer[2],)
        compact_choices[pairs] = ci
        return prefixes + (pairs,)

    for leaf, i, prefixes in _plays(game, strategy, extend, ((),)):
        if leaf is None or not wins[i]:
            raise ValueError("strategy is not a verified win for Player II")
        j = witness.get(i)
        if j is None:  # the first of greatest value in by_vector's order
            j = witness[i] = max(by_vector, key=states[i].__getitem__)
        pairs = prefixes[-1]
        functionals[pairs] = xstars[j]
        for prefix, (_, zi, ci) in zip(prefixes[1:], leaf):
            selections[(prefix, pairs)] = gains[zi][ci][1][j][1]
    return ExtractedCollections(compact_choices, functionals, selections)


def build_szlenk_game(
    xi: Ordinal, budget: TruncationBudget, model: ModelSpace
) -> GameSpec:
    """The szlenk-payoff game on a budget truncation of the Gamma family."""
    from .families import gamma_family  # only here, so solving loads no families

    weights = gamma_family(Ordinal(xi)).node_weights(budget)
    return GameSpec(FiniteBTree(weights), model, weights, PAYOFF_SZLENK)


# -- serialization ---------------------------------------------------------------
#
# Within one call, each distinct label text is parsed once, each history is
# read from its parent's history, and each is given one text, from its parent's.


def _part_text(part: tuple) -> str:
    """A move's or an offer's text: its label and indices joined by ":"."""
    return ":".join(map(str, part))


def history_to_text(history: History) -> str:
    return ";".join(map(_part_text, history))


def _history_texts(part_text: Callable[[tuple], str]) -> Callable[[tuple], str]:
    """The text of a history, its parts' texts joined by ";", memoized: a
    history met after its parent extends the parent's text.  (The solver's
    and the extractor's dicts, and the sorted JSON texts, list parents first.)"""
    texts = {(): ""}

    def text(history: tuple) -> str:
        found = texts.get(history)
        if found is None:
            head = texts.get(history[:-1])
            if head is None:
                head = ";".join(map(part_text, history[:-1]))
            last = part_text(history[-1])
            found = texts[history] = f"{head};{last}" if head else last
        return found

    return text


def _read_move(text: str, form: str, label: Callable[[str], Ordinal]) -> tuple:
    """``text`` read as ``form``, ``label:subspace:compact`` or ``label:subspace``,
    its indices in ASCII digits with an optional minus, as the CLI's integer
    arguments; else a ValueError naming both, but a bad label keeps its OrdinalError."""
    fields = text.split(":")
    if len(fields) == form.count(":") + 1:
        zeta = label(fields[0])
        if all(map(_INT.fullmatch, fields[1:])):
            return (zeta, *map(int, fields[1:]))
    raise ValueError(f"{text!r} is not of the form {form}")


def _history_reader(label: Callable[[str], Ordinal]) -> Callable[[str], History]:
    """``history_from_text``, memoized, with ``label`` to parse a label text."""
    known: Dict[str, History] = {"": ()}

    def read(text: str) -> History:
        found = known.get(text)
        if found is None:
            # on from the parent's history when that is known, else from the
            # start: left to right, so that a bad text fails at its first bad part
            head, _, last = text.rpartition(";")
            found = known.get(head) if head else None
            if found is None:
                found, parts = (), text.split(";")
            else:
                parts = [last]
            for part in parts:
                found += (_read_move(part, "label:subspace:compact", label),)
            known[text] = found
        return found

    return read


def history_from_text(text: str) -> History:
    return _history_reader(cache(Ordinal))(text)


def _read_items(items: dict, entry: Callable[[str, object], tuple], what: str) -> dict:
    """The dict of the (key, value) pairs ``entry`` reads from ``items``; two
    texts that read as one key (``1`` and ``0+1``, say) are a ValueError."""
    found = dict(map(entry, items, items.values()))
    if len(found) < len(items):  # the dict kept only the later text's value
        texts: dict = {}
        for text, (key, _) in zip(items, map(entry, items, items.values())):
            if texts.setdefault(key, text) != text:
                raise ValueError(f"{what} {texts[key]!r} and {text!r} read as the same key")
    return found


def _vector_text(v: Vector) -> List[str]:
    return [_frac_text(x) for x in v]


def game_to_json(game: GameSpec) -> dict:
    model = game.model
    data = {
        "tree": game.tree.to_json(),
        "weights": {path_to_text(node): _frac_text(w) for node, w in game.weights.items()},
        "model": {
            "dim": model.dim,
            "subspaces": [list(map(_vector_text, m)) for m in model.subspaces],
            "compacts": [list(map(_vector_text, c)) for c in model.compacts],
            "functionals": list(map(_vector_text, model.functionals)),
            "epsilon": _frac_text(model.epsilon),
            "norm": model.norm,
        },
    }
    if game.payoff == PAYOFF_SZLENK:
        data["payoff"] = PAYOFF_SZLENK
    else:
        data["payoff"] = {"table": sorted(history_to_text(h) for h in game.payoff)}
    return data


def _nested_lists(value, depth: int) -> bool:
    if not isinstance(value, list):
        return False
    return depth == 1 or all(_nested_lists(v, depth - 1) for v in value)


def model_from_json(data: dict) -> ModelSpace:
    if not isinstance(data, dict):
        raise ValueError("a model must be a JSON object")
    for key, depth, shape in (
        ("subspaces", 3, "a list of matrices"),
        ("compacts", 3, "a list of point lists"),
        ("functionals", 2, "a list of vectors"),
    ):
        if not _nested_lists(_field(data, key, "model"), depth):
            raise ValueError(f'"{key}" must be {shape}')
    return ModelSpace(
        dim=_field(data, "dim", "model"),
        subspaces=data["subspaces"],
        compacts=data["compacts"],
        functionals=data["functionals"],
        epsilon=_field(data, "epsilon", "model"),
        norm=data.get("norm", "max"),
    )


def game_from_json(data: Union[dict, str]) -> GameSpec:
    data = _json_object(data, "game")
    model = model_from_json(_field(data, "model", "game"))
    tree = FiniteBTree.from_json(_field(data, "tree", "game"))
    weights = _field(data, "weights", "game")
    if not isinstance(weights, dict):
        raise ValueError('"weights" must map node paths to rationals')
    label = cache(Ordinal)
    weights = _read_items(weights, lambda k, v: (tuple(map(label, k.split(","))), v), '"weights" keys')
    payoff = _field(data, "payoff", "game")
    if payoff != PAYOFF_SZLENK:
        table = payoff.get("table") if isinstance(payoff, dict) else None
        if not isinstance(table, list) or not all(isinstance(h, str) for h in table):
            raise ValueError(f'"payoff" must be "{PAYOFF_SZLENK}" or a table of histories')
        payoff = frozenset(map(_history_reader(label), table))
    return GameSpec(tree, model, weights, payoff)


def strategy_to_json(strategy: Strategy) -> dict:
    part_text = cache(_part_text)  # a history's moves and an offer alike
    text = _history_texts(part_text)
    if strategy.player == "I":
        label_text = cache(str)
        rows = [(text(h), [label_text(zeta), zi]) for h, (zeta, zi) in strategy.moves.items()]
        rows.sort(key=itemgetter(0))
    else:
        rows = [((text(h), part_text(o)), ci) for (h, o), ci in strategy.moves.items()]
        rows.sort(key=itemgetter(0))
        rows = [(f"{h}|{o}", ci) for (h, o), ci in rows]
    return {"player": strategy.player, "moves": dict(rows)}


def strategy_from_json(data: Union[dict, str]) -> Strategy:
    data = _json_object(data, "strategy")
    player, items = _field(data, "player", "strategy"), _field(data, "moves", "strategy")
    if player not in ("I", "II"):
        raise ValueError(f'"player" must be "I" or "II", not {player!r}')
    if not isinstance(items, dict):
        raise ValueError('"moves" must be a JSON object')
    label = cache(Ordinal)
    read = _history_reader(label)

    def entry(key: str, value) -> tuple:
        if player == "I":
            if not (isinstance(value, list) and len(value) == 2 and isinstance(value[0], str)
                    and _is_int(value[1])):
                raise ValueError(f"Player I's move must be [label, subspace index], not {value!r}")
            return read(key), (label(value[0]), value[1])
        if not _is_int(value):
            raise ValueError(f"Player II's move must be a compact index, not {value!r}")
        parts = key.split("|")
        if len(parts) != 2:
            raise ValueError(f"{key!r} is not of the form history|label:subspace")
        return (read(parts[0]), _read_move(parts[1], "label:subspace", label)), value

    return Strategy(player, _read_items(items, entry, '"moves" keys'))


def collections_to_json(collections: ExtractedCollections) -> dict:
    choices, functionals, selections = collections
    text = _history_texts(cache(_part_text))
    vector_texts: Dict[int, List[str]] = {}  # by id: the vectors are few, and shared

    def vector_text(v: Vector) -> List[str]:
        if id(v) not in vector_texts:
            vector_texts[id(v)] = _vector_text(v)
        return list(vector_texts[id(v)])

    compacts = sorted(((text(s), ci) for s, ci in choices.items()), key=itemgetter(0))
    functionals = sorted(((text(t), f) for t, f in functionals.items()), key=itemgetter(0))
    selections = [((text(t), text(s)), v) for (s, t), v in selections.items()]
    selections.sort(key=itemgetter(0))
    return {
        "compacts": dict(compacts),
        "functionals": {t: vector_text(f) for t, f in functionals},
        "selections": {f"{s}|{t}": vector_text(v) for (t, s), v in selections},
    }
