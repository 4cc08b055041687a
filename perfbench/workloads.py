"""The benchmark's workloads: seeded inputs, jobs, and the checks on their outputs.

A workload hands out blocks of jobs; ``BLOCKS`` blocks make a round, and a
run is made of whole rounds.  Every block holds the same job slots in the
same order, whatever the seed; only the seeded inputs differ.  So the share
of failing operations is the same in every run, and every block passes
through the same cache states.  A block is made in two steps: ``plan(n)``
makes its inputs on the oracle's side, without the program, and
``block(og, plan)`` turns them into the program's inputs and jobs; only the
second is timed as set-up.  A job's ``run`` is timed; its ``check`` is not,
and compares the output with ``oracle``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from random import Random
from time import perf_counter

import oracle as O

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

W_SZLENK = {
    "dim": 2,
    "subspaces": [[], [["1", "-1"]], [["1", "1"]]],
    "compacts": [[["1/2", "1/2"]], [["1", "0"], ["0", "1"]], [["-1/2", "1"], ["1", "-1"]]],
    "functionals": [["1", "1"], ["1", "-1"], ["0", "1"]],
    "epsilon": "1/2",
    "norm": "max",
}


class Job:
    """One timed operation.  Its name is its slot: unique in a block, the
    same in every block.  ``expect_failure`` marks the known fault kept in
    the enumerate workload; ``work`` holds sizes the traced run reports."""

    __slots__ = ("name", "run", "check", "expect_failure", "work")

    def __init__(self, name, run, check, expect_failure=False, work=None):
        self.name, self.run, self.check = name, run, check
        self.expect_failure = expect_failure
        self.work = work or {}


def frac_text(x):
    return f"{x.numerator}/{x.denominator}"


def scaled_w_szlenk(rng):
    """W-szlenk with functionals and epsilon scaled by one positive rational:
    every weighted sum scales with them, so the game is the same."""
    scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    model = dict(W_SZLENK)
    model["functionals"] = [[frac_text(Fraction(x) * scale) for x in f] for f in W_SZLENK["functionals"]]
    model["epsilon"] = frac_text(Fraction(W_SZLENK["epsilon"]) * scale)
    return model


def random_model(rng):
    """A model shaped like W-szlenk: the plane, two lines, three compacts of
    one or two points, three functionals.  Two compacts hold a point of one
    line each, so that either player may win."""
    halves = [Fraction(k, 2) for k in range(-2, 3)]
    subspaces, compacts = [[]], []
    for _ in range(2):
        a, b = rng.choice([(1, -1), (1, 1), (1, 0), (0, 1), (1, -2), (2, -1)])
        subspaces.append([[str(a), str(b)]])
        t = rng.choice([Fraction(1, 2), Fraction(1), Fraction(-1, 2)]) / max(abs(a), abs(b))
        compacts.append([[frac_text(b * t), frac_text(-a * t)]])
    compacts.append([[frac_text(rng.choice(halves)), frac_text(rng.choice(halves))] for _ in range(2)])
    for c in compacts[:2]:
        if rng.random() < 0.5:
            c.append([frac_text(rng.choice(halves)), frac_text(rng.choice(halves))])
    return {
        "dim": 2,
        "subspaces": subspaces,
        "compacts": compacts,
        "functionals": [[frac_text(rng.choice(halves)), frac_text(rng.choice(halves))] for _ in range(3)],
        "epsilon": rng.choice(["1/4", "1/3", "1/2", "2/3"]),
        "norm": rng.choice(["max", "sum"]),
    }


def parse_cnf(text):
    """CNF text as printed by ``ordgames`` -> oracle tuple (for index specs)."""
    terms, depth, start = [], 0, 0
    for i, ch in enumerate(text + "+"):
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if ch == "+" and depth == 0:
            part, start = text[start:i], i + 1
            base, _, coeff = part.partition("*")
            if base.startswith("w"):
                exp = O.ONE if base == "w" else parse_cnf(base[3:-1] if base[2] == "(" else base[2:])
                terms.append((exp, int(coeff or 1)))
            elif int(part):
                terms.append((O.ZERO, int(part)))
    return tuple(terms)


class GammaTree:
    """The truncation Gamma_xi at max_n built by ``oracle``, with text labels."""

    def __init__(self, xi_text, max_n):
        self.xi_text, self.max_n = xi_text, max_n
        xi = parse_cnf(xi_text)
        entries = O.gamma_truncation(xi, max_n)
        self.size = O.gamma_size(xi, max_n)
        O.expect((len(entries), sum(e[2] for e in entries)) == self.size, "oracle truncation size")
        self.weights = {tuple(map(O.text, path)): ws[-1] for path, ws, _ in entries}
        self.leaves = [tuple(map(O.text, path)) for path, _, maximal in entries if maximal]
        self.gamma1 = xi == O.ONE

    def view(self, model_data):
        return O.GameView(list(self.weights), self.weights, O.Model(model_data))


def winner_model(tree, want, rng):
    """The first seeded model under which ``want`` wins on ``tree``, by the oracle."""
    while True:
        model = random_model(rng)
        if O.winner(tree.view(model)) == want:
            return model


# -- checks shared by the in-process and the CLI runs ------------------------------------


def check_tree(tree, nodes, weights):
    """The program's truncation equals the oracle's, node for node and weight
    for weight; its size matches the closed form and every maximal branch
    carries weights summing to 1."""
    O.expect(len(nodes) == tree.size[0], f"{len(nodes)} nodes, closed form says {tree.size[0]}")
    O.expect(set(nodes) == set(tree.weights), "truncation differs from the definition")
    O.expect(all(weights[n] == tree.weights[n] for n in nodes), "node weights differ from the definition")
    for leaf in tree.leaves:
        O.check_branch_weights(leaf, [weights[leaf[: i + 1]] for i in range(len(leaf))], tree.gamma1)


# -- solve ----------------------------------------------------------------------------


class Solve:
    """szlenk games: build -> solve -> verify_strategy (-> extract_collections)."""

    # (index, max_n, model, winner).  Three W-szlenk games of 8-9k product
    # positions (~0.13 s), which hold the median, and one of 75k (~0.6 s):
    # scaling changes no game, so their cost is the same in every block and
    # for every seed (a seeded II-wins model on 75k positions costs 0.4 to
    # 0.8 s, and would move the slot's best time with the seed).  Three
    # seeded I-wins games (early exit, ~2 ms).
    SLOTS = [
        ("1", 4, "W", "II"),
        ("2", 2, "W", "II"),
        ("w", 2, "W", "II"),
        ("1", 5, "W", "II"),
        ("1", 5, "seeded", "I"),
        ("2", 2, "seeded", "I"),
        ("w", 2, "seeded", "I"),
    ]

    BLOCKS = 1

    def __init__(self, seed):
        self.seed = seed
        self.trees = {(xi, max_n): GammaTree(xi, max_n) for xi, max_n, _, _ in self.SLOTS}

    def plan(self, n):
        """Per slot: the tree, a model the oracle judged, the winner and the game as oracle data."""
        rng = Random(f"solve/{self.seed}/{n}")
        games = []
        for xi, max_n, kind, want in self.SLOTS:
            tree = self.trees[xi, max_n]
            model = scaled_w_szlenk(rng) if kind == "W" else winner_model(tree, want, rng)
            games.append((tree, model, want, tree.view(model)))
        return games

    def block(self, og, games):
        return [self._job(og, slot, *game) for slot, game in enumerate(games)]

    @staticmethod
    def _job(og, slot, tree, model, want, view):
        g = og.games
        Ordinal, Budget = og.ordinal.Ordinal, og.families.TruncationBudget
        xi, n = tree.xi_text, tree.max_n

        def run():
            game = g.build_szlenk_game(Ordinal(xi), Budget(max_n=n), g.ModelSpace(**model))
            winner, strategy = g.solve(game)
            ok = g.verify_strategy(game, strategy)
            collections = g.extract_collections(game, strategy) if winner == "II" else None
            return game, winner, strategy, ok, collections

        def check(out):
            game, winner, strategy, ok, collections = out
            weights = {tuple(map(str, k)): v for k, v in game.weights.items()}
            check_tree(tree, [tuple(map(str, k)) for k in game.tree.nodes], weights)
            O.expect(winner == want, f"solver says {winner} wins, backward induction says {want}")
            O.expect(ok is True, "verify_strategy rejected the solver's own strategy")
            moves = {_text_key(k, winner): v for k, v in strategy.moves.items()}
            if winner == "I":
                moves = {k: (str(v[0]), v[1]) for k, v in moves.items()}
            reached = O.play_out(view, winner, _mover(moves, winner))
            if winner == "II":
                O.check_witnesses(
                    view, reached,
                    {_pairs(k): v for k, v in collections.compact_choices.items()},
                    {_pairs(k): v for k, v in collections.functionals.items()},
                    {(_pairs(s), _pairs(t)): v for (s, t), v in collections.selections.items()},
                )

        return Job(f"solve #{slot} Gamma_{xi}@{n} {want}", run, check, work=_game_work(view))


def _history(h):
    return tuple((str(label), z, c) for label, z, c in h)


def _pairs(p):
    return tuple((str(label), z) for label, z in p)


def _text_key(key, player):
    if player == "I":
        return _history(key)
    history, (label, z) = key
    return _history(history), (str(label), z)


def _mover(moves, player):
    if player == "I":
        return lambda history, offer: moves.get(history)
    return lambda history, offer: moves.get((history, offer))


def _game_work(view):
    return {"games.positions": view.positions(), "games.leaves": view.maximal_histories()}


# -- enumerate ------------------------------------------------------------------------


def _spec(kind, xi_text, max_n):
    xi = parse_cnf(xi_text)
    return kind, xi_text, max_n, xi, O.family_size(kind, xi, max_n)


# (kind, index, max_n) truncated and enumerated once each per block: finite,
# successor and limit indices, from 15 to 498 nodes
SPECS = [_spec(*s) for s in [
    ("Gamma", "1", 20), ("Gamma", "2", 3), ("Gamma", "3", 2),
    ("Gamma", "w", 2), ("Gamma", "w+1", 2), ("Gamma", "w^(w)", 2),
    ("T", "40", 2), ("T", "80", 2), ("T", "w*2+5", 6), ("T", "w*3+5", 4),
    ("T", "w*3", 5), ("T", "w^(2)", 4), ("T", "w^(w)+w", 3), ("T", "w^(3)", 3),
]]


# index families for the batched reads, each with a few hundred microseconds per read
READ_FAMILIES = [("Gamma", x) for x in ("1", "2", "3", "w", "w+1", "w+2", "w*2")] + [
    ("T", x) for x in ("60", "w+7", "w*3", "w^(2)+w+2", "w^(w)", "w^(w)+w*2+1")
]
READS_PER_FAMILY = 2  # read jobs per family and block

# The slots of an enumerate block, in one order for every block and every
# seed: truncations, enumerations and reads of one family share the module
# caches of ``families``, so a slot meets the same cache state in every block
# of every run.  The order is shuffled once, with a constant seed, so that the
# jobs on one family do not run back to back.
ENUMERATE_SLOTS = [("truncate", s) for s in range(len(SPECS))] + [("branches", s) for s in range(len(SPECS))] + [
    ("reads", f, i) for f in range(len(READ_FAMILIES)) for i in range(READS_PER_FAMILY)]
Random("enumerate").shuffle(ENUMERATE_SLOTS)


class Enumerate:
    """truncate / maximal_branches with prefix_weights / batched per-path reads,
    on T and Gamma families at finite, successor and limit indices, plus the
    truncation of T at 400 that fails today."""

    BLOCKS = 8  # the failing truncation ends every eighth block
    PATHS_PER_READ_JOB = 100

    def __init__(self, seed):
        self.seed = seed

    def plan(self, n):
        """The seeded paths of every read job, as oracle data; whether the
        block ends a round."""
        rng = Random(f"enumerate/{self.seed}/{n}")
        paths = [[self._read_paths(family, rng) for _ in range(READS_PER_FAMILY)] for family in READ_FAMILIES]
        return paths, n % self.BLOCKS == self.BLOCKS - 1

    def block(self, og, plan):
        """Every spec truncated once and enumerated once, and the reads, in the
        order of ENUMERATE_SLOTS; at the end of a round, the failing T_400
        truncation."""
        paths, ends_round = plan
        self.og, self.known = og, {}
        jobs = []
        for kind, *at in ENUMERATE_SLOTS:
            if kind == "reads":
                f, i = at
                jobs.append(self._reads(READ_FAMILIES[f], i, paths[f][i]))
            else:
                jobs.append((self._truncate if kind == "truncate" else self._branches)(SPECS[at[0]]))
        if ends_round:
            jobs.append(self._t400())
        return jobs

    def _labels(self, path):
        """A path of oracle ordinals as program ordinals, built from CNF terms."""
        Ordinal, known = self.og.ordinal.Ordinal, self.known
        for label in path:
            if label not in known:
                known[label] = Ordinal(tuple((self._labels((e,))[0], c) for e, c in label))
        return tuple(known[label] for label in path)

    def _family(self, kind, xi_text):
        return self.og.families.make_family(kind, self.og.ordinal.Ordinal(xi_text))

    def _truncate(self, spec):
        kind, xi_text, max_n, xi, size = spec
        budget = self.og.families.TruncationBudget(max_n=max_n)

        def run():
            family = self._family(kind, xi_text)
            tree = family.truncate(budget)
            return family, tree

        def check(out):
            family, tree = out
            leaves = [n for n in tree.nodes if not tree.children_labels(n)]
            O.expect((len(tree), len(leaves)) == size, f"{kind}_{xi_text}@{max_n}: {len(tree)} nodes and "
                     f"{len(leaves)} leaves, closed form says {size}")

        return Job(f"truncate {kind}_{xi_text}@{max_n}", run, check)

    def _branches(self, spec):
        kind, xi_text, max_n, xi, size = spec
        budget = self.og.families.TruncationBudget(max_n=max_n)

        def run():
            family = self._family(kind, xi_text)
            out = []
            for branch in family.maximal_branches(budget):
                out.append((branch, family.prefix_weights(branch) if kind == "Gamma" else None))
            return out

        def check(out):
            O.expect(len(out) == size[1], f"{kind}_{xi_text}@{max_n}: {len(out)} branches, closed form says {size[1]}")
            O.expect(len({b for b, _ in out}) == len(out), "a branch repeats")
            for branch, weights in out:
                if kind == "Gamma":
                    O.check_branch_weights(branch, weights, xi == O.ONE)
                else:
                    O.expect(branch[-1] == 1, "a maximal T branch ends at 1")

        return Job(f"branches {kind}_{xi_text}@{max_n}", run, check)

    def _read_paths(self, family, rng):
        """Member paths built from the definition, with rank, maximality and
        weights, and as many non-members, all as oracle ordinals."""
        kind, xi_text = family
        xi = parse_cnf(xi_text)
        members, outsiders = [], []
        for _ in range(self.PATHS_PER_READ_JOB):
            if kind == "Gamma":
                path, rank, maximal, weights = O.random_gamma_member(xi, rng, max_blocks=2)
            else:
                (path, rank, maximal), weights = O.random_t_member(xi, rng), None
            members.append((path, rank, maximal, weights))
            outsiders.append(O.non_member(path, rng))
        return members, outsiders

    def _reads(self, family, slot, paths):
        kind, xi_text = family
        members = [(self._labels(path), *rest) for path, *rest in paths[0]]
        outsiders = [self._labels(path) for path in paths[1]]

        def run():
            family = self._family(kind, xi_text)
            got = []
            for path, _, _, _ in members:
                got.append((family.member(path), family.is_maximal(path), family.rank(path),
                            family.weight(path) if kind == "Gamma" else None))
            return got, [family.member(path) for path in outsiders]

        def check(out):
            got, outside = out
            for (member, maximal, rank, weight), (path, want_rank, want_max, weights) in zip(got, members):
                O.expect(member is True, "a member built from the definition is rejected")
                O.expect(maximal is want_max, "maximality differs from the definition")
                O.expect(_terms(rank) == want_rank, f"rank {rank} differs from the definition")
                O.expect(weights is None or weight == weights[-1], "weight differs from the definition")
            O.expect(not any(outside), "a path that does not decrease is accepted as a member")

        return Job(f"reads #{slot} {kind}_{xi_text}", run, check)

    def _t400(self):
        """T at 400 is the chain 400, 399, ..., 1; truncating it raises
        RecursionError today (unbounded recursion in truncate/_t_member)."""
        budget = self.og.families.TruncationBudget(max_n=4)

        def run():
            return self._family("T", "400").truncate(budget)

        def check(tree):
            chain = tuple(self.og.ordinal.Ordinal(400 - i) for i in range(400))
            O.expect(set(tree.nodes) == {chain[: i + 1] for i in range(400)}, "T_400 is not the chain 400..1")

        return Job("truncate T_400@4", run, check, expect_failure=True)


def _terms(ordinal):
    """A program ordinal as an oracle tuple, read off its CNF terms."""
    return tuple((_terms(e), c) for e, c in ordinal.terms)


# -- cli --------------------------------------------------------------------------------


class Cli:
    """``python -m ordgames.cli`` as separate processes, one at a time.  A job
    is one process: game build, solve, verify and extract on a small szlenk
    game won by II, then one ``family truncate`` or ``family branches --sum``."""

    # W-szlenk (scaled by a seeded rational, which changes no game) on three
    # games of 8-9k product positions, and six family calls of 100-1000
    # nodes: every block runs the same eighteen processes
    GAMES = [("1", 4), ("2", 2), ("w", 2)]
    FAMILY_CALLS = [
        ("truncate", "Gamma", "2", 3), ("branches", "Gamma", "w+1", 2), ("truncate", "T", "w*3", 3),
        ("branches", "Gamma", "3", 2), ("truncate", "Gamma", "w^(w)", 2), ("branches", "T", "w^(2)+w", 3),
    ]

    BLOCKS = 1

    def __init__(self, seed, traced=False):
        self.seed, self.traced = seed, traced
        self.trees = {(xi, n): GammaTree(xi, n) for xi, n in self.GAMES}
        self.work = os.path.join(OUT, f"cli-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        self.processes = []  # (wall s, rss MB, stdout bytes, trace or None) per child
        self.files = 0

    def plan(self, n):
        """Per game: its tree, a scaled W-szlenk model and the game as oracle data."""
        rng = Random(f"cli/{self.seed}/{n}")
        games = []
        for xi, max_n in self.GAMES:
            tree, model = self.trees[xi, max_n], scaled_w_szlenk(rng)
            games.append((tree, model, tree.view(model)))
        return games

    def block(self, og, games):
        """One call outside the jobs, so that every module's bytecode is
        compiled, then the jobs; the pipelines' model files are written here."""
        self._call(["family", "member", "Gamma", "1", "1"])
        self.processes.clear()
        jobs = []
        for game in games:
            jobs += self._pipeline(*game)
        for call in self.FAMILY_CALLS:
            verb, kind, xi, max_n = call
            argv = ["family", verb, kind, xi, "--max-n", str(max_n)] + (["--sum"] if verb == "branches" else [])
            check = lambda out, call=call: _check_family_output(*call, _read(out))
            jobs.append(Job(" ".join(argv), lambda argv=argv: self._call(argv), check))
        return jobs

    def _file(self, name):
        self.files += 1
        return os.path.join(self.work, f"{self.files}-{name}")

    def _call(self, argv):
        """Run one CLI process to completion; returns the file holding its stdout."""
        out_path = self._file("stdout")
        err_path = os.path.join(self.work, "stderr.txt")
        if self.traced:
            trace_path = self._file("trace.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_entry.py"), trace_path] + argv
        else:
            trace_path, cmd = None, [sys.executable, "-m", "ordgames.cli"] + argv
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            child = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.work, env=self.env)
            _, status, usage = os.wait4(child.pid, 0)
            wall = perf_counter() - start
            child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode != 0:
            raise RuntimeError(f"ordgames {' '.join(argv)} exited {child.returncode}: {_read(err_path)[-400:]}")
        trace = None
        if trace_path:
            with open(trace_path) as handle:
                trace = json.load(handle)
            os.remove(trace_path)
        self.processes.append((wall, usage.ru_maxrss / 1024, os.path.getsize(out_path), trace))
        return out_path

    def _pipeline(self, tree, model, view):
        """game build -> solve -> verify -> extract, each a job whose check
        reads the outputs of the steps before it."""
        model_path = self._file("model.json")
        with open(model_path, "w") as handle:
            json.dump(model, handle)
        xi, n = tree.xi_text, tree.max_n
        files = {}

        def step(name, argv, check):
            def run():
                files[name] = self._call(argv())
                return _read(files[name])

            return Job(f"game {name} Gamma_{xi}@{n}", run, check, work=_game_work(view) if name == "solve" else None)

        def check_build(out):
            game = json.loads(out)
            nodes = [tuple(node) for node in game["tree"]["nodes"]]
            weights = {tuple(k.split(",")): Fraction(v) for k, v in game["weights"].items()}
            check_tree(tree, nodes, weights)
            O.expect(O.Model(game["model"]).functionals == view.model.functionals, "game JSON changed the model")

        def check_solve(out):
            solved = json.loads(out)
            O.expect(solved["winner"] == "II", f"solver says {solved['winner']} wins, backward induction says II")
            moves = {}
            for key, c in solved["strategy"]["moves"].items():
                history, offer = key.split("|")
                label, z = offer.split(":")
                moves[_history_text(history), (label, int(z))] = c
            files["reached"] = O.play_out(view, "II", _mover(moves, "II"))

        def check_verify(out):
            O.expect(out.strip() == "true", "game verify rejected the solver's own strategy")

        def check_extract(out):
            extracted = json.loads(out)
            O.check_witnesses(view, files["reached"],
                {_pairs_text(k): v for k, v in extracted["compacts"].items()},
                {_pairs_text(k): tuple(map(Fraction, v)) for k, v in extracted["functionals"].items()},
                {tuple(map(_pairs_text, k.split("|"))): tuple(map(Fraction, v))
                 for k, v in extracted["selections"].items()})

        return [
            step("build", lambda: ["game", "build", xi, model_path, "--max-n", str(n)], check_build),
            step("solve", lambda: ["game", "solve", files["build"]], check_solve),
            step("verify", lambda: ["game", "verify", files["build"], files["solve"]], check_verify),
            step("extract", lambda: ["game", "extract", files["build"], files["solve"]], check_extract),
        ]


def _check_family_output(verb, kind, xi_text, max_n, text):
    nodes, maximal = O.family_size(kind, parse_cnf(xi_text), max_n)
    if verb == "truncate":
        O.expect(len(json.loads(text)["nodes"]) == nodes, "family truncate: size differs from the closed form")
        return
    lines = text.splitlines()
    O.expect(len(lines) == maximal, "family branches: count differs from the closed form")
    if kind == "T":
        O.expect(all(line.endswith(",1") or line == "1" for line in lines), "a maximal T branch ends at 1")
        return
    for line in lines:
        path, weights, total = line.split("\t")
        weights = [Fraction(w) for w in weights.split(",")]
        O.check_branch_weights(path.split(","), weights, xi_text == "1")
        O.expect(Fraction(total) == 1, "family branches --sum column is not 1")


def _history_text(text):
    if not text:
        return ()
    return tuple((label, int(z), int(c)) for label, z, c in (m.split(":") for m in text.split(";")))


def _pairs_text(text):
    return tuple((label, int(z)) for label, z in (p.split(":") for p in text.split(";")))


def _read(path):
    with open(path) as handle:
        return handle.read()


WORKLOADS = {"solve": Solve, "enumerate": Enumerate, "cli": Cli}
