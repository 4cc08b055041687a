"""Independent oracles and deterministic random generators for the tests.

Everything here is deliberately naive: repeated addition instead of the
coefficient rule, raw product enumeration instead of the max decomposition,
a search of every history instead of the memoized solver, closed-form member
lists instead of the recursive parser.  The tests compare
library output against these.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from random import Random

from ordgames.btree import FiniteBTree
from ordgames.games import (
    PAYOFF_SZLENK,
    GameSpec,
    ModelSpace,
    Strategy,
    eval_payoff,
    game_position_count,
)
from ordgames.ordinal import OMEGA, ONE, ZERO, Ordinal, omega_pow


def mul_by_repeated_add(a: Ordinal, n: int) -> Ordinal:
    total = ZERO
    for _ in range(n):
        total = total + a
    return total


def gamma1_members(max_label: int):
    """Closed form: descending runs n, n-1, ..., n-m+1 with 1 <= m <= n."""
    out = set()
    for n in range(1, max_label + 1):
        for m in range(1, n + 1):
            out.add(tuple(Ordinal(n - i) for i in range(m)))
    return out


def gamma2_members_from_display(max_n: int):
    """Members of the second Gamma stage assembled literally from its display:
    concatenations of blocks of first-stage members, block i shifted by
    omega * (n - i), with every block before the last maximal."""
    g1_all = sorted(gamma1_members(max_n))
    g1_max = [t for t in g1_all if t[-1] == Ordinal(1)]
    out = set()
    for n in range(1, max_n + 1):
        for m in range(1, n + 1):
            for head in itertools.product(g1_max, repeat=m - 1):
                for last in g1_all:
                    blocks = head + (last,)
                    path = []
                    for i, block in enumerate(blocks, start=1):
                        offset = OMEGA * (n - i)
                        path.extend(offset + label for label in block)
                    out.add(tuple(path))
    return out


def t_members(xi: Ordinal, labels, max_len: int):
    """Members of the T family at ``xi`` up to length ``max_len`` whose every
    choice at a limit index is taken from ``labels``, built top-down from the
    definition: T at 0 is empty, T at s+1 holds (s+1) alone and (s+1)
    followed by a member of T at s, and T at a limit is the union of T at mu
    over the successors mu below it.

    Maps each member to (its rank, whether it is maximal): the subtree below
    a member is the family at the index left over, whose order is that index.
    """
    out = {}
    frontier = [((), xi)]
    while frontier:
        prefix, index = frontier.pop()
        if len(prefix) == max_len:
            continue
        if index.is_successor:
            heads = [index]
        elif index.is_zero:
            heads = []
        else:
            heads = [mu for mu in labels if mu.is_successor and mu < index]
        for mu in heads:
            path, below = prefix + (mu,), mu.pred()
            out[path] = (below, below.is_zero)
            frontier.append((path, below))
    return out


def gamma_members(xi: Ordinal, max_n: int, max_len: int):
    """Members of the Gamma family at ``xi`` up to length ``max_len`` whose
    block parameters are at most ``max_n``, assembled from the definition:
    Gamma at 0 is the single node (1) of weight 1; a member of Gamma at s+1
    is m <= n blocks, block i a member of Gamma at s shifted by w^s * (n - i),
    every block before the last maximal, and every weight divided by n; Gamma
    at a limit d + w is the union of Gamma at z+1 shifted by w^z over
    z = d + k, k < max_n (the only limits handled).

    Maps each member to (its rank, whether it is maximal, its prefix
    weights).  Below a member with m blocks lie the rest of its last block
    and n - m whole blocks of order w^s each, so its rank is
    w^s * (n - m) plus the last block's rank.
    """
    if xi.is_zero:
        return {(ONE,): (ZERO, True, (Fraction(1),))}
    if xi.is_limit:
        beta, c = xi.terms[-1]
        if beta != ONE:
            raise ValueError(f"only limits d + w are handled, not {xi}")
        delta = Ordinal(xi.terms[:-1] + (((ONE, c - 1),) if c > 1 else ()))
        out = {}
        for k in range(max_n):
            zeta = delta + k
            unit = omega_pow(zeta)
            for path, value in gamma_members(zeta + 1, max_n, max_len).items():
                out[tuple(unit + label for label in path)] = value
        return out
    sigma = xi.pred()
    unit = omega_pow(sigma)
    inner = gamma_members(sigma, max_n, max_len)
    out = {}
    for n in range(1, max_n + 1):
        heads = [((), ())]  # (labels, weights) of the maximal blocks so far
        for i in range(1, n + 1):
            offset, longer = unit * (n - i), []
            for labels, weights in heads:
                for block, (rank, maximal, block_weights) in inner.items():
                    if len(labels) + len(block) > max_len:
                        continue
                    path = labels + tuple(offset + label for label in block)
                    path_weights = weights + tuple(w / n for w in block_weights)
                    out[path] = (offset + rank, maximal and i == n, path_weights)
                    if maximal:
                        longer.append((path, path_weights))
            heads = longer
    return out


def reference_walk(family, budget):
    """The nodes of a family's truncation in pre-order, and its maximal
    branches in that order, from ``children`` and ``is_maximal`` asked of
    every path: the walk as it was before it carried any state."""
    nodes, branches = [], []
    stack = [(label,) for label in reversed(family.children((), budget))]
    while stack:
        path = stack.pop()
        nodes.append(path)
        if family.is_maximal(path):
            branches.append(path)
        if len(path) < budget.max_depth:
            stack.extend(path + (label,) for label in reversed(family.children(path, budget)))
    return nodes, branches


def dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def selection_set(model: ModelSpace, z: int, c: int):
    """Points of compact c in subspace z and the unit ball, from the definition."""
    out = []
    for x in model.compacts[c]:
        size = max(abs(a) for a in x) if model.norm == "max" else sum(abs(a) for a in x)
        if size <= 1 and all(dot(row, x) == 0 for row in model.subspaces[z]):
            out.append(x)
    return out


def peaks(model: ModelSpace, z: int, c: int):
    """Per functional, its largest value over the selection set of subspace z
    and compact c and the least vector reaching it, from the definition; None
    when the selection set is empty."""
    points = selection_set(model, z, c)
    if not points:
        return None
    out = []
    for xstar in model.functionals:
        top = max(dot(xstar, x) for x in points)
        out.append((top, min(x for x in points if dot(xstar, x) == top)))
    return tuple(out)


def payoff_by_enumeration(game: GameSpec, leaf) -> bool:
    """Exhaustive search over functionals and full selection products."""
    model = game.model
    sets = [selection_set(model, z, c) for _, z, c in leaf]
    node = tuple(move[0] for move in leaf)
    weights = game.prefix_weights(node)
    for xstar in model.functionals:
        for combo in itertools.product(*sets):
            total = sum(
                (w * dot(xstar, x) for w, x in zip(weights, combo)), Fraction(0)
            )
            if total >= model.epsilon:
                return True
    return False


def verify_by_enumeration(game: GameSpec, strategy: Strategy) -> bool:
    """Does every play that follows ``strategy`` end in a win for its owner?

    Walks the plays by recursion and scores each leaf with
    ``payoff_by_enumeration`` (or the table); a missing or illegal
    prescription at a reached history fails.
    """
    tree = game.tree
    owner_is_ii = strategy.player == "II"

    def wins(history, node) -> bool:
        if node and tree.is_max(node):
            if game.payoff == PAYOFF_SZLENK:
                return payoff_by_enumeration(game, history) == owner_is_ii
            return (history in game.payoff) == owner_is_ii
        if owner_is_ii:
            moves = []
            for zeta in tree.children_labels(node):
                for zi in range(game.n_subspaces):
                    ci = strategy.moves.get((history, (zeta, zi)))
                    if ci is None or not 0 <= ci < game.n_compacts:
                        return False
                    moves.append((zeta, zi, ci))
        else:
            offer = strategy.moves.get(history)
            if offer is None or node + (offer[0],) not in tree:
                return False
            if not 0 <= offer[1] < game.n_subspaces:
                return False
            moves = [offer + (ci,) for ci in range(game.n_compacts)]
        return all(wins(history + (move,), node + (move[0],)) for move in moves)

    return wins((), ())


def maximal_histories(game: GameSpec):
    """Every complete playout of the game, in deterministic order."""
    tree = game.tree
    out = []

    def walk(history, node):
        for zeta in tree.children_labels(node):
            child = node + (zeta,)
            for zi in range(game.n_subspaces):
                for ci in range(game.n_compacts):
                    extended = history + ((zeta, zi, ci),)
                    if tree.is_max(child):
                        out.append(extended)
                    else:
                        walk(extended, child)

    walk((), ())
    return out


def product_tree_strategy(game: GameSpec):
    """(winner, winning strategy) by recursion over the full product tree.

    Every history is searched on its own, with no sharing between histories
    that lead to the same position.  Player I takes the least offer all of
    whose replies lose for II, Player II the least reply that does not lose;
    the strategy keeps only the histories its own plays reach.
    """
    tree = game.tree
    n_compacts = game.n_compacts
    i_moves, ii_moves = {}, {}

    def offers(node):
        return [(zeta, zi) for zeta in tree.children_labels(node) for zi in range(game.n_subspaces)]

    def first_player_wins(history, node) -> bool:
        replies = []
        for offer in offers(node):
            zeta, zi = offer
            child = node + (zeta,)
            reply = None
            for ci in range(n_compacts):
                extended = history + ((zeta, zi, ci),)
                if tree.is_max(child):
                    branch_won = not eval_payoff(game, extended)
                else:
                    branch_won = first_player_wins(extended, child)
                if not branch_won:
                    reply = ci
                    break
            if reply is None:
                i_moves[history] = offer
                return True
            replies.append((offer, reply))
        for offer, ci in replies:
            ii_moves[(history, offer)] = ci
        return False

    winner = "I" if first_player_wins((), ()) else "II"
    moves = {}
    stack = [((), ())]
    while stack:
        history, node = stack.pop()
        if winner == "I":
            offer = moves[history] = i_moves[history]
            branches = [(offer, ci) for ci in range(n_compacts)]
        else:
            branches = [(offer, ii_moves[(history, offer)]) for offer in offers(node)]
            for offer, ci in branches:
                moves[(history, offer)] = ci
        for (zeta, zi), ci in branches:
            if not tree.is_max(node + (zeta,)):
                stack.append((history + ((zeta, zi, ci),), node + (zeta,)))
    return winner, Strategy(winner, moves)


def reachable_restriction(game: GameSpec, strategy: Strategy) -> Strategy:
    """A Player-I strategy restricted to positions reachable under it."""
    assert strategy.player == "I"
    tree = game.tree
    moves = {}
    stack = [()]
    while stack:
        history = stack.pop()
        move = strategy.moves[history]
        moves[history] = move
        zeta, zi = move
        child = tuple(m[0] for m in history) + (zeta,)
        if tree.is_max(child):
            continue
        for ci in range(game.n_compacts):
            stack.append(history + ((zeta, zi, ci),))
    return Strategy("I", moves)


def complete_by_paths(game: GameSpec, sub: Strategy, fallback_z: int):
    """``complete_substrategy``'s contract, checked on ``game.tree`` paths.

    None when the Player-I substrategy breaks it: a key that is not a
    history of the non-maximal product tree, a prescription that is not a
    (child label, int subspace in range) pair, or a history on the
    substrategy's own play without one.  Otherwise the total strategy's
    moves: the prescription where there is one, else the least child label
    with ``fallback_z``.  Labels are looked up in the tree's node set, by
    hash, so an int equal to a label is not one.
    """
    tree = game.tree
    node_of = {}  # every history of the non-maximal product tree: its node path

    def walk(history, node):
        node_of[history] = node
        for zeta in tree.children_labels(node):
            if not tree.is_max(node + (zeta,)):
                for zi in range(game.n_subspaces):
                    for ci in range(game.n_compacts):
                        walk(history + ((zeta, zi, ci),), node + (zeta,))

    def legal(node, move):
        return (
            isinstance(move, tuple) and len(move) == 2 and node + (move[0],) in tree
            and isinstance(move[1], int) and 0 <= move[1] < game.n_subspaces
        )

    walk((), ())
    if any(key not in node_of for key in sub.moves):
        return None
    if any(not legal(node, sub.moves[h]) for h, node in node_of.items() if h in sub.moves):
        return None
    play = [()]
    while play:
        history = play.pop()
        if history not in sub.moves:
            return None
        zeta, zi = sub.moves[history]
        child = node_of[history] + (zeta,)
        if not tree.is_max(child):
            play.extend(history + ((zeta, zi, ci),) for ci in range(game.n_compacts))
    return {
        h: sub.moves[h] if h in sub.moves else (tree.children_labels(node)[0], fallback_z)
        for h, node in node_of.items()
    }


def winner_by_rerooting(game: GameSpec) -> str:
    """Determinacy decided by literally re-rooting subgames (table games only).

    Instead of threading histories, each move (zeta, Z, C) produces the
    subgame on the subtree above zeta with the payoff table stripped by one
    move.  Structurally independent of the solver's recursion.
    """
    assert game.payoff != PAYOFF_SZLENK
    n_subspaces, n_compacts = game.n_subspaces, game.n_compacts

    def player_one_wins(tree: FiniteBTree, table: frozenset) -> bool:
        for zeta in tree.roots():
            maximal = tree.is_max((zeta,))
            for z in range(n_subspaces):
                all_replies_lose = True
                for c in range(n_compacts):
                    move = (zeta, z, c)
                    if maximal:
                        good = (move,) not in table
                    else:
                        subtree = FiniteBTree(
                            t[1:] for t in tree.nodes if len(t) > 1 and t[0] == zeta
                        )
                        subtable = frozenset(
                            h[1:] for h in table if h and h[0] == move
                        )
                        good = player_one_wins(subtree, subtable)
                    if not good:
                        all_replies_lose = False
                        break
                if all_replies_lose:
                    return True
        return False

    return "I" if player_one_wins(game.tree, game.payoff) else "II"


# -- deterministic random instances -------------------------------------------


_LABELS = [Ordinal(1), Ordinal(2), Ordinal(3), Ordinal(4), OMEGA, OMEGA + 1, OMEGA * 2]


def random_tree(rng: Random, max_nodes: int = 18, max_depth: int = 3) -> FiniteBTree:
    nodes = set()
    roots = rng.sample(_LABELS, rng.randint(1, 3))
    for label in roots:
        nodes.add((label,))
    target = rng.randint(2, max_nodes)
    attempts = 0
    while len(nodes) < target and attempts < 4 * max_nodes:
        attempts += 1
        parent = rng.choice(sorted(nodes))
        if len(parent) >= max_depth:
            continue
        nodes.add(parent + (rng.choice(_LABELS),))
    return FiniteBTree(nodes)


def random_model(rng: Random) -> ModelSpace:
    dim = rng.randint(1, 3)

    def frac(lo=-2, hi=2):
        return Fraction(rng.randint(lo, hi), rng.randint(1, 3))

    def vector():
        return [frac() for _ in range(dim)]

    subspaces = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.15:
            subspaces.append([[1 if j == i else 0 for j in range(dim)] for i in range(dim)])
        elif kind < 0.55:
            subspaces.append([])  # whole space keeps II's selections alive
        else:
            subspaces.append([vector() for _ in range(rng.randint(1, 2))])
    compacts = [
        [vector() for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(1, 3))
    ]
    functionals = [vector() for _ in range(rng.randint(1, 3))]
    epsilon = Fraction(rng.randint(1, 3), rng.randint(3, 8))
    return ModelSpace(dim, subspaces, compacts, functionals, epsilon, rng.choice(["max", "sum"]))


def friendly_model(rng: Random) -> ModelSpace:
    """A model where selections usually survive, so Player II can often win."""
    dim = rng.randint(1, 3)
    ones = [Fraction(1)] * dim
    small = [Fraction(1, dim)] * dim

    def vector():
        return [Fraction(rng.randint(-2, 2), rng.randint(2, 3)) for _ in range(dim)]

    subspaces = [[] for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.4:
        subspaces.append([vector()])
    compacts = [
        [small] + [vector() for _ in range(rng.randint(0, 2))]
        for _ in range(rng.randint(1, 3))
    ]
    functionals = [ones] + [vector() for _ in range(rng.randint(0, 1))]
    epsilon = Fraction(rng.randint(1, 2), rng.randint(4, 9))
    return ModelSpace(dim, subspaces, compacts, functionals, epsilon, rng.choice(["max", "sum"]))


def random_game(rng: Random, max_positions: int = 8000) -> GameSpec:
    """A random finite game with a bounded product tree."""
    while True:
        tree = random_tree(rng)
        use_szlenk = rng.random() < 0.5
        balanced = use_szlenk and rng.random() < 0.5
        model = friendly_model(rng) if balanced else random_model(rng)
        low = 1 if balanced else 0
        weights = {
            node: Fraction(rng.randint(low, 3), rng.randint(3, 5)) for node in tree.nodes
        }
        game = GameSpec(tree, model, weights, PAYOFF_SZLENK if use_szlenk else frozenset())
        if game_position_count(game) > max_positions:
            continue
        if not use_szlenk:
            leaves = maximal_histories(game)
            table = frozenset(h for h in leaves if rng.random() < 0.5)
            game = GameSpec(tree, model, weights, table)
        return game


# -- reference renderers ---------------------------------------------------------
#
# The text boundary as it was before it memoized labels and histories: every
# label parsed and printed afresh, every history text joined from its moves.
# The library's renderers must give equal dicts and identical bytes.


def _frac_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def history_to_text(history) -> str:
    return ";".join(f"{zeta}:{zi}:{ci}" for zeta, zi, ci in history)


def reference_history_from_text(text: str):
    if not text:
        return ()
    moves = []
    for part in text.split(";"):
        bad = ValueError(f"{part!r} is not of the form label:subspace:compact")
        fields = part.split(":")
        if len(fields) != 3:
            raise bad
        zeta = Ordinal(fields[0])
        if not all(re.fullmatch(r"-?[0-9]+", field) for field in fields[1:]):
            raise bad
        moves.append((zeta, int(fields[1]), int(fields[2])))
    return tuple(moves)


def _offer_to_text(offer) -> str:
    return f"{offer[0]}:{offer[1]}"


def _pairs_to_text(pairs) -> str:
    return ";".join(_offer_to_text(p) for p in pairs)


def reference_strategy_to_json(strategy: Strategy) -> dict:
    if strategy.player == "I":
        moves = {
            history_to_text(h): [str(zeta), zi]
            for h, (zeta, zi) in sorted(
                strategy.moves.items(), key=lambda kv: history_to_text(kv[0])
            )
        }
    else:
        moves = {
            f"{history_to_text(h)}|{_offer_to_text(offer)}": ci
            for (h, offer), ci in sorted(
                strategy.moves.items(),
                key=lambda kv: (history_to_text(kv[0][0]), _offer_to_text(kv[0][1])),
            )
        }
    return {"player": strategy.player, "moves": moves}


def reference_collections_to_json(collections) -> dict:
    return {
        "compacts": {
            _pairs_to_text(s): ci
            for s, ci in sorted(
                collections.compact_choices.items(), key=lambda kv: _pairs_to_text(kv[0])
            )
        },
        "functionals": {
            _pairs_to_text(t): [_frac_text(x) for x in f]
            for t, f in sorted(
                collections.functionals.items(), key=lambda kv: _pairs_to_text(kv[0])
            )
        },
        "selections": {
            f"{_pairs_to_text(s)}|{_pairs_to_text(t)}": [_frac_text(x) for x in v]
            for (s, t), v in sorted(
                collections.selections.items(),
                key=lambda kv: (_pairs_to_text(kv[0][1]), _pairs_to_text(kv[0][0])),
            )
        },
    }
