"""Each output check of the benchmark accepts the program's answer and
rejects a planted wrong one.

    python3 -m pytest -q perfbench/test_checks.py
"""

import copy
import os
import sys
from fractions import Fraction
from random import Random

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracle as O  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402


@pytest.fixture(scope="module")
def og():
    return run.fresh_import()


def rejects(check, *args):
    with pytest.raises(O.CheckError):
        check(*args)


def test_closed_form_sizes():
    cnf = W.parse_cnf
    sizes = [O.gamma_size(cnf(x), n)[0] for x, n in
             [("2", 2), ("2", 3), ("3", 2), ("4", 2), ("w", 2), ("w+1", 2)]]
    assert sizes == [12, 108, 96, 4224, 15, 150]
    assert O.t_size(cnf("37"), 3) == (37, 1)
    assert O.t_size(cnf("w*3"), 3) == (78, 27)


def _enumerate(og):
    enum = W.Enumerate(1)
    enum.og, enum.known = og, {}
    return enum


def test_truncate_check(og):
    job = _enumerate(og)._truncate(W._spec("Gamma", "2", 3))
    family, tree = job.run()
    job.check((family, tree))
    short = og.btree.FiniteBTree(sorted(tree.nodes)[:-1])
    rejects(job.check, (family, short))


def test_branches_check(og):
    job = _enumerate(og)._branches(W._spec("Gamma", "1", 6))
    out = job.run()
    job.check(out)
    rejects(job.check, out[:-1])
    branch, weights = out[0]
    rejects(job.check, [(branch, weights[:-1] + (weights[-1] * 2,))] + out[1:])
    rejects(O.check_branch_weights, (1, 2), (Fraction(1, 4), Fraction(3, 4)), True)


def test_reads_check(og):
    enum = _enumerate(og)
    job = enum._reads(W.READ_FAMILIES[2], 0, enum._read_paths(W.READ_FAMILIES[2], Random(3)))
    got, outside = job.run()
    job.check((got, outside))
    member, maximal, rank, weight = got[0]
    rejects(job.check, ([(False, maximal, rank, weight)] + got[1:], outside))
    rejects(job.check, ([(member, not maximal, rank, weight)] + got[1:], outside))
    rejects(job.check, ([(member, maximal, rank + 1, weight)] + got[1:], outside))
    rejects(job.check, (got, [True] + outside[1:]))


def test_t400_check(og):
    job = _enumerate(og)._t400()
    chain = [tuple(og.ordinal.Ordinal(400 - i) for i in range(k)) for k in range(1, 401)]
    job.check(og.btree.FiniteBTree(chain))
    rejects(job.check, og.btree.FiniteBTree(chain[:-1]))


def _solved(og, model, xi="1", n=3):
    tree = W.GammaTree(xi, n)
    view = tree.view(model)
    job = W.Solve._job(og, 0, tree, model, O.winner(view), view)
    return job, job.run()


def test_winner_agrees_with_solver(og):
    rng = Random(7)
    for xi, n in [("1", 3), ("2", 2), ("w", 2)]:
        tree = W.GammaTree(xi, n)
        for _ in range(15):
            model = W.random_model(rng)
            game = og.games.build_szlenk_game(og.ordinal.Ordinal(xi), og.families.TruncationBudget(max_n=n),
                                              og.games.ModelSpace(**model))
            assert O.winner(tree.view(model)) == og.games.solve(game)[0]


def test_solve_check_ii(og):
    job, out = _solved(og, W.W_SZLENK)
    job.check(out)
    game, winner, strategy, ok, collections = out
    assert winner == "II"
    rejects(job.check, (game, "I", strategy, ok, collections))
    rejects(job.check, (game, winner, strategy, False, collections))
    missing = og.games.Strategy("II", dict(list(strategy.moves.items())[1:]))
    rejects(job.check, (game, winner, missing, ok, collections))
    # some other reply loses a play, and the play-out sees it
    rejected = 0
    for key in strategy.moves:
        for other in {0, 1, 2} - {strategy.moves[key]}:
            try:
                job.check((game, winner, og.games.Strategy("II", {**strategy.moves, key: other}), ok, collections))
            except O.CheckError:
                rejected += 1
    assert rejected > 0


def test_solve_check_witnesses(og):
    job, out = _solved(og, W.W_SZLENK)
    game, winner, strategy, ok, collections = out
    leaf = next(iter(collections.functionals))
    planted = [
        collections._replace(functionals={**collections.functionals, leaf: (Fraction(5), Fraction(5))}),
        collections._replace(selections={
            k: ((Fraction(2), Fraction(2)) if k[1] == leaf else v) for k, v in collections.selections.items()}),
        collections._replace(compact_choices={k: (c + 1) % 3 for k, c in collections.compact_choices.items()}),
        collections._replace(selections={k: (Fraction(0), Fraction(0)) for k in collections.selections}),
    ]
    for bad in planted:
        rejects(job.check, (game, winner, strategy, ok, bad))


def test_solve_check_i(og):
    model = copy.deepcopy(W.W_SZLENK)
    model["epsilon"] = "3"  # no weighted sum reaches 3: I wins
    job, out = _solved(og, model)
    job.check(out)
    game, winner, strategy, ok, collections = out
    assert winner == "I"
    rejects(job.check, (game, "II", strategy, ok, collections))
    rejects(job.check, (game, winner, og.games.Strategy("I", {}), ok, collections))
    root = og.games.Strategy("I", {**strategy.moves, (): (og.ordinal.Ordinal(99), 0)})
    rejects(job.check, (game, winner, root, ok, collections))


def test_family_output_check():
    W._check_family_output("branches", "Gamma", "1", 2, "1\t1/1\t1/1\n2,1\t1/2,1/2\t1/1\n")
    rejects(W._check_family_output, "branches", "Gamma", "1", 2, "1\t1/1\t1/1\n")
    rejects(W._check_family_output, "branches", "Gamma", "1", 2, "1\t1/1\t1/1\n2,1\t1/3,1/2\t1/1\n")
    W._check_family_output("truncate", "T", "3", 2, '{"nodes": [["3"], ["3", "2"], ["3", "2", "1"]]}')
    rejects(W._check_family_output, "truncate", "T", "3", 2, '{"nodes": [["3"], ["3", "2"]]}')
