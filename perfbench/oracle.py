"""Independent computations the benchmark checks the program's outputs against.

Nothing here imports ``ordgames``.  Ordinals are plain nested tuples in
Cantor normal form: a tuple of (exponent, coefficient) pairs with strictly
decreasing exponents, the exponent itself such a tuple, ``()`` being 0.  For
normal forms, Python's tuple order is the ordinal order.

Every check raises ``CheckError`` on a wrong answer.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

ZERO = ()
ONE = ((ZERO, 1),)
OMEGA = ((ONE, 1),)


class CheckError(AssertionError):
    """An output of the program disagrees with the independent computation."""


def expect(condition, message):
    if not condition:
        raise CheckError(message)


# -- ordinals -------------------------------------------------------------------


def nat(n):
    return ((ZERO, n),) if n else ZERO


def w_pow(e, c=1):
    """omega^e * c."""
    return ((e, c),) if c else ZERO


def is_successor(a):
    return bool(a) and a[-1][0] == ZERO


def pred(a):
    e, c = a[-1]
    return a[:-1] + (((e, c - 1),) if c > 1 else ())


def add(a, b):
    if not b:
        return a
    e0, c0 = b[0]
    head = tuple(t for t in a if t[0] > e0)
    same = [c for e, c in a if e == e0]
    if same:
        return head + ((e0, same[0] + c0),) + b[1:]
    return head + b


def fundamental(lam, k):
    """The k-th element of the canonical cofinal sequence of a limit."""
    beta, c = lam[-1]
    delta = lam[:-1] + (((beta, c - 1),) if c > 1 else ())
    if is_successor(beta):
        return add(delta, w_pow(pred(beta), k))
    return add(delta, w_pow(fundamental(beta, k)))


def text(a):
    """CNF text in the syntax ``ordgames`` parses and prints."""
    if not a:
        return "0"
    parts = []
    for e, c in a:
        if e == ZERO:
            parts.append(str(c))
            continue
        base = "w" if e == ONE else f"w^({text(e)})"
        parts.append(base if c == 1 else f"{base}*{c}")
    return "+".join(parts)


# -- truncation sizes by closed form ------------------------------------------------


@lru_cache(maxsize=None)
def gamma_size(xi, max_n):
    """(nodes, maximal nodes) of the Gamma family at xi truncated at max_n.

    Stage 0 is the single node (1).  A stage sigma+1 has, for each n <= N and
    each number m <= n of blocks, M^(m-1) * A members: m-1 maximal blocks and
    one arbitrary last block; of these, the ones with m = n blocks and a
    maximal last block, M^n of them, are maximal.  A limit stage is the sum
    of its first N components.
    """
    if not xi:
        return 1, 1
    if is_successor(xi):
        a, m = gamma_size(pred(xi), max_n)
        nodes = sum(m ** (k - 1) * a for n in range(1, max_n + 1) for k in range(1, n + 1))
        return nodes, sum(m**n for n in range(1, max_n + 1))
    parts = [gamma_size(add(fundamental(xi, k), ONE), max_n) for k in range(max_n)]
    return sum(p[0] for p in parts), sum(p[1] for p in parts)


@lru_cache(maxsize=None)
def t_size(xi, max_n):
    """(nodes, maximal nodes) of the T family at xi truncated at max_n."""
    if not xi:
        return 0, 0
    if is_successor(xi):
        a, m = t_size(pred(xi), max_n)
        return 1 + a, m if a else 1
    parts = [t_size(add(fundamental(xi, k), ONE), max_n) for k in range(max_n)]
    return sum(p[0] for p in parts), sum(p[1] for p in parts)


def family_size(kind, xi, max_n):
    return (gamma_size if kind == "Gamma" else t_size)(xi, max_n)


# -- members built from the definition, with their rank, maximality and weights --------


def random_gamma_member(xi, rng, max_blocks=3, maximal=False):
    """A member of Gamma at xi built top-down: (path, rank, maximal, weights).

    At xi = sigma+1 the member has m <= n blocks, block i a member of Gamma
    at sigma shifted by omega^sigma * (n - i), every block but the last
    maximal, and weights those of the blocks divided by n.  At a limit it is
    a member of Gamma at zeta+1 shifted by omega^zeta for some zeta < xi.
    """
    if not xi:
        return (ONE,), ZERO, True, (Fraction(1),)
    if is_successor(xi):
        sigma = pred(xi)
        n = rng.randint(1, max_blocks)
        m = n if maximal else rng.randint(1, n)
        path, weights = [], []
        for i in range(1, m + 1):
            block, rank, block_max, ws = random_gamma_member(sigma, rng, max_blocks, maximal or i < m)
            shift = w_pow(sigma, n - i)
            path.extend(add(shift, label) for label in block)
            weights.extend(w / n for w in ws)
        return tuple(path), add(w_pow(sigma, n - m), rank), m == n and block_max, tuple(weights)
    zeta = fundamental(xi, rng.randint(0, max_blocks - 1))
    path, rank, is_max, weights = random_gamma_member(add(zeta, ONE), rng, max_blocks, maximal)
    shift = w_pow(zeta)
    return tuple(add(shift, label) for label in path), rank, is_max, weights


def random_t_member(xi, rng, max_limit_step=4):
    """A member of T at xi: (path, rank, maximal).  T at s+1 is s+1 above T at s;
    T at a limit is the union of T at mu over successors mu below it."""
    path = []
    while True:
        if not is_successor(xi):
            # below a limit, any successor mu < xi may start the next segment
            xi = add(fundamental(xi, rng.randint(0, max_limit_step)), nat(rng.randint(1, 3)))
        path.append(xi)
        xi = pred(xi)
        if not xi or rng.random() < 0.2:
            return tuple(path), xi, not xi


def non_member(path, rng):
    """Members of both families strictly decrease along a path, so repeating a
    label, or putting a larger label after it, leaves the family."""
    i = rng.randrange(len(path))
    bigger = add(path[i], ONE)
    if rng.random() < 0.5:
        return path[: i + 1] + (path[i],) + path[i + 1 :]
    return path[: i + 1] + (bigger,) + path[i + 1 :]


# -- branches --------------------------------------------------------------------


def check_branch_weights(branch, weights, gamma1=False):
    """Every maximal branch carries weights summing to exactly 1; on the first
    Gamma stage, the branch n, n-1, ..., 1 carries 1/n at every node."""
    expect(len(weights) == len(branch), "one weight per node")
    expect(sum(weights, Fraction(0)) == 1, f"branch weights sum to {sum(weights)}, not 1")
    if gamma1:
        expect(all(w == Fraction(1, len(branch)) for w in weights), "Gamma_1 weights are 1/n")


# -- games --------------------------------------------------------------------------


def dot(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


class Model:
    """The rational model a game is played in, parsed from its JSON text."""

    def __init__(self, data):
        self.subspaces = [[tuple(map(Fraction, row)) for row in m] for m in data["subspaces"]]
        self.compacts = [[tuple(map(Fraction, x)) for x in c] for c in data["compacts"]]
        self.functionals = [tuple(map(Fraction, f)) for f in data["functionals"]]
        self.epsilon = Fraction(data["epsilon"])
        self.norm = data.get("norm", "max")

    def in_ball(self, x):
        size = max(map(abs, x)) if self.norm == "max" else sum(map(abs, x))
        return size <= 1

    def in_subspace(self, z, x):
        return all(dot(row, x) == 0 for row in self.subspaces[z])

    def selection(self, z, c):
        return [x for x in self.compacts[c] if self.in_ball(x) and self.in_subspace(z, x)]


class GameView:
    """A game as plain data: node tuples of hashable labels, node weights, a model."""

    def __init__(self, nodes, weights, model):
        self.weights = weights
        self.model = model
        self.children = {}
        for node in nodes:
            self.children.setdefault(node[:-1], []).append(node[-1])
        self.nodes = set(nodes)

    def is_leaf(self, node):
        return node not in self.children

    def leaves(self):
        return [n for n in self.nodes if self.is_leaf(n)]

    def maximal_histories(self):
        moves = len(self.model.subspaces) * len(self.model.compacts)
        return sum(moves ** len(n) for n in self.leaves())

    def positions(self):
        moves = len(self.model.subspaces) * len(self.model.compacts)
        return sum(moves ** len(n) for n in self.nodes)

    def prefix_weights(self, node):
        return [self.weights[node[: i + 1]] for i in range(len(node))]

    def payoff(self, history):
        """II wins a maximal history: raw enumeration of functionals and of
        every choice of one point per selection set."""
        model = self.model
        sets = [model.selection(z, c) for _, z, c in history]
        weights = self.prefix_weights(tuple(m[0] for m in history))
        for f in model.functionals:
            for combo in itertools.product(*sets):
                if sum((w * dot(f, x) for w, x in zip(weights, combo)), Fraction(0)) >= model.epsilon:
                    return True
        return False


def winner(game):
    """Backward induction on (node, partial sums s_f per functional).

    A reply whose selection set is empty loses for II at once; otherwise II's
    best selection adds w * max_{x in S} f(x) to each s_f, and II wins a
    maximal node iff some s_f reaches epsilon.
    """
    model = game.model
    nz, nc = len(model.subspaces), len(model.compacts)
    gains = {}
    for z in range(nz):
        for c in range(nc):
            s = model.selection(z, c)
            gains[z, c] = tuple(max(dot(f, x) for x in s) for f in model.functionals) if s else None
    memo = {}

    def first_wins(node, sums):
        if game.is_leaf(node):
            return not (sums and max(sums) >= model.epsilon)
        key = (node, sums)
        if key not in memo:
            memo[key] = any(
                all(
                    gains[z, c] is None
                    or first_wins(child, tuple(a + w * g for a, g in zip(sums, gains[z, c])))
                    for c in range(nc)
                )
                for label in game.children[node]
                for child, w in [(node + (label,), game.weights[node + (label,)])]
                for z in range(nz)
            )
        return memo[key]

    return "I" if first_wins((), tuple(Fraction(0) for _ in model.functionals)) else "II"


def play_out(game, player, move):
    """Play the strategy against every reply; returns the maximal offer
    sequences reached (for II) after checking the payoff at each.

    ``move(history, offer)`` gives II's compact index; ``move(history, None)``
    gives I's (label, subspace).  Histories are tuples of (label, z, c).
    """
    model = game.model
    nz, nc = len(model.subspaces), len(model.compacts)
    reached = []

    def walk(history, node, offers):
        if player == "I":
            choice = move(history, None)
            expect(choice is not None, "strategy for I undefined at a reachable history")
            label, z = choice
            expect(label in game.children[node] and 0 <= z < nz, "strategy for I plays an illegal move")
            options = [(label, z, c) for c in range(nc)]
        else:
            options = []
            for label in game.children[node]:
                for z in range(nz):
                    c = move(history, (label, z))
                    expect(c is not None and 0 <= c < nc, "strategy for II has no legal reply")
                    options.append((label, z, c))
        for label, z, c in options:
            extended = history + ((label, z, c),)
            child = node + (label,)
            pairs = offers + ((label, z),)
            if game.is_leaf(child):
                expect(game.payoff(extended) == (player == "II"), f"strategy for {player} loses a play")
                reached.append(pairs)
            else:
                walk(extended, child, pairs)

    walk((), (), ())
    return reached


def check_witnesses(game, reached, compact_choices, functionals, selections):
    """Every extracted witness: the functional comes from the model, each
    selection lies in compact, subspace and ball, and the weighted sum is at
    least epsilon."""
    model = game.model
    expect(set(functionals) == set(reached), "functionals do not cover the maximal histories of II's play")
    prefixes = {t[: i + 1] for t in reached for i in range(len(t))}
    expect(set(compact_choices) == prefixes, "compact choices do not cover II's play")
    expect(len(selections) == sum(len(t) for t in reached), "one selection per (prefix, branch)")
    for t in reached:
        f = functionals[t]
        expect(f in model.functionals, "extracted functional is not in the model")
        node = tuple(label for label, _ in t)
        total = Fraction(0)
        for i, w in enumerate(game.prefix_weights(node)):
            s = t[: i + 1]
            z, c = s[-1][1], compact_choices[s]
            x = selections[(s, t)]
            expect(x in model.compacts[c], "selection is not in the chosen compact")
            expect(model.in_subspace(z, x), "selection is not in the offered subspace")
            expect(model.in_ball(x), "selection is not in the unit ball")
            total += w * dot(f, x)
        expect(total >= model.epsilon, "witness sum is below epsilon")


def gamma_truncation(xi, max_n):
    """Every member of Gamma at xi within the breadth cap, built from the
    definition: a list of (path, prefix weights, maximal)."""
    if not xi:
        return [((ONE,), (Fraction(1),), True)]
    out = []
    if is_successor(xi):
        sigma = pred(xi)
        inner = gamma_truncation(sigma, max_n)
        heads = [e for e in inner if e[2]]
        for n in range(1, max_n + 1):
            for m in range(1, n + 1):
                for blocks in itertools.product(*([heads] * (m - 1) + [inner])):
                    path, weights = [], []
                    for i, (block, ws, _) in enumerate(blocks, start=1):
                        shift = w_pow(sigma, n - i)
                        path.extend(add(shift, label) for label in block)
                        weights.extend(w / n for w in ws)
                    out.append((tuple(path), tuple(weights), m == n and blocks[-1][2]))
        return out
    for k in range(max_n):
        zeta = fundamental(xi, k)
        shift = w_pow(zeta)
        for path, weights, maximal in gamma_truncation(add(zeta, ONE), max_n):
            out.append((tuple(add(shift, label) for label in path), weights, maximal))
    return out
