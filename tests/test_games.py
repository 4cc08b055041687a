import copy
import enum
import itertools
import json
import math
import pickle
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    complete_by_paths,
    friendly_model,
    maximal_histories,
    payoff_by_enumeration,
    peaks,
    product_tree_strategy,
    random_game,
    random_model,
    reachable_restriction,
    reference_collections_to_json,
    reference_history_from_text,
    reference_strategy_to_json,
    selection_set,
    verify_by_enumeration,
    winner_by_rerooting,
)
from ordgames.btree import FiniteBTree, path_from_text
from ordgames.families import TruncationBudget
from ordgames.games import (
    PAYOFF_SZLENK,
    GameSpec,
    ModelSpace,
    Strategy,
    brute_force_winner,
    build_szlenk_game,
    collections_to_json,
    complete_substrategy,
    eval_payoff,
    ExtractedCollections,
    extract_collections,
    game_from_json,
    game_position_count,
    game_to_json,
    history_from_text,
    solve,
    strategy_from_json,
    strategy_to_json,
    verify_strategy,
)
from ordgames.ordinal import OMEGA, ONE, Ordinal

P = path_from_text
HALF = Fraction(1, 2)


def whole_space_model(eps=HALF, extra_subspaces=(), functionals=(("1",),)):
    return ModelSpace(
        1,
        subspaces=[[]] + list(extra_subspaces),
        compacts=[[["1"]]],
        functionals=functionals,
        epsilon=eps,
    )


def single_node_game(model=None, payoff=PAYOFF_SZLENK):
    tree = FiniteBTree([(ONE,)])
    return GameSpec(tree, model or whole_space_model(), {(ONE,): Fraction(1)}, payoff)


ZERO_SUBSPACE_1D = [["1"]]  # x = 0 in dimension 1
LEAF = ((ONE, 0, 0),)

# the W-szlenk model without its epsilon: three subspaces, three compacts,
# three functionals in dimension 2
W_SZLENK = dict(
    dim=2,
    subspaces=[[], [["1", "-1"]], [["1", "1"]]],
    compacts=[[["1/2", "1/2"]], [["1", "0"], ["0", "1"]], [["-1/2", "1"], ["1", "-1"]]],
    functionals=[["1", "1"], ["1", "-1"], ["0", "1"]],
)


class TestModelSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelSpace(0, [[]], [[["1"]]], [], HALF)
        with pytest.raises(ValueError):
            ModelSpace(1, [], [[["1"]]], [], HALF)
        with pytest.raises(ValueError):
            ModelSpace(1, [[]], [], [], HALF)
        with pytest.raises(ValueError):
            ModelSpace(1, [[]], [[["1"]]], [], Fraction(0))
        with pytest.raises(ValueError):
            ModelSpace(1, [[]], [[["1"]]], [], HALF, norm="euclid")
        with pytest.raises(ValueError):
            ModelSpace(2, [[]], [[["1"]]], [], HALF)  # wrong vector length

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["dim", "epsilon", "compacts", "functionals"])
    def test_infinite_scalars_are_value_errors(self, field, value):
        # JSON reads Infinity, -Infinity and 1e400 as these floats
        args = dict(dim=1, subspaces=[[]], compacts=[[["1"]]], functionals=[["1"]], epsilon=HALF)
        args[field] = {"compacts": [[[value]]], "functionals": [[value]]}.get(field, value)
        message = {"dim": "not an integer dim"}.get(field, "not a rational")
        with pytest.raises(ValueError, match=message):
            ModelSpace(**args)

    def test_selection_set(self):
        model = ModelSpace(
            2,
            subspaces=[[], [["1", "-1"]]],  # whole space; the diagonal x1 = x2
            compacts=[[["1", "1"], ["1", "0"], ["2", "2"]]],
            functionals=[["1", "0"]],
            epsilon=HALF,
        )
        assert model.selection_set(0, 0) == ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(0)))
        # diagonal keeps (1,1) but drops (1,0); (2,2) fails the ball
        assert model.selection_set(1, 0) == ((Fraction(1), Fraction(1)),)

    def test_sum_norm(self):
        model = ModelSpace(
            2,
            subspaces=[[]],
            compacts=[[["1/2", "1/2"], ["1", "1"]]],
            functionals=[["1", "1"]],
            epsilon=HALF,
            norm="sum",
        )
        assert model.selection_set(0, 0) == ((HALF, HALF),)

    def test_selection_sets_match_definition(self):
        rng = random.Random(1234)
        for _ in range(30):
            model = random_model(rng)
            for z in range(len(model.subspaces)):
                for c in range(len(model.compacts)):
                    assert list(model.selection_set(z, c)) == selection_set(model, z, c)

    @staticmethod
    def assert_gains_match_definition(model):
        for z in range(len(model.subspaces)):
            for c in range(len(model.compacts)):
                assert model._gains[z][c] == (tuple(selection_set(model, z, c)), peaks(model, z, c))

    def test_gains_match_definition(self):
        rng = random.Random(4321)
        for _ in range(60):
            self.assert_gains_match_definition(random_model(rng))
            self.assert_gains_match_definition(friendly_model(rng))

    def test_gains_ties_and_no_functionals(self):
        # three points reach the peak of (1, 1) and two that of (0, 1): the
        # least of them is kept; the second compact holds one point twice
        tied = ModelSpace(
            2,
            subspaces=[[], [["1", "0"]]],
            compacts=[[["1", "0"], ["0", "1"], ["1/2", "1/2"], ["-1", "1"]], [["1/2", "1/2"]] * 2],
            functionals=[["1", "1"], ["0", "1"], ["1", "0"]],
            epsilon=HALF,
        )
        self.assert_gains_match_definition(tied)
        assert tied._gains[0][0][1][:2] == ((1, (0, 1)), (1, (-1, 1)))
        assert tied._gains[0][1][1][0] == (1, (HALF, HALF))
        assert tied._gains[1][1] == ((), None)
        bare = ModelSpace(2, [[], [["1", "0"]]], [[["1", "0"], ["0", "1"]]], [], HALF)
        self.assert_gains_match_definition(bare)
        assert bare._gains[0][0] == (((1, 0), (0, 1)), ())

    @pytest.mark.parametrize("norm", ["max", "sum"])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_gains_over_distinct_denominators(self, dim, norm):
        # the gains pass scales each compact's points, the functionals and
        # each subspace matrix by the lcm of their denominators: here the
        # points' denominators are coprime, one compact is empty, and rows
        # and functionals each have their own denominators
        def vec(*entries):
            return [entries[i % len(entries)] for i in range(dim)]

        model = ModelSpace(
            dim,
            subspaces=[[], [vec("1/4", "-1/6", "1/10")], [vec("2/3", "0", "5/7"), vec("-1/8", "3/5", "1")]],
            compacts=[
                [vec("1/7", "2/9", "5/11"), vec("-6/7", "1/9", "-2/11"), vec("1", "-1/13", "0")],
                [],
                [vec("9/11"), vec("-1/7"), vec("3/4", "-3/4", "3/8")],
            ],
            functionals=[vec("1/3", "-2/5", "1/7"), vec("3/8"), vec("-5/6", "1", "0")],
            epsilon=HALF,
            norm=norm,
        )
        self.assert_gains_match_definition(model)
        assert all(row[1] == ((), None) for row in model._gains)
        assert any(ps and any(p.denominator > 50 for p, _ in ps) for row in model._gains for _, ps in row)

    @pytest.mark.parametrize("norm", ["max", "sum"])
    def test_gains_of_scaled_w_szlenk(self, norm):
        # every entry times 7/9: within the max-norm ball, every point of
        # W-szlenk stays selected and every peak is (7/9)^2 times its own
        scale = Fraction(7, 9)
        scaled = {key: [[[Fraction(x) * scale for x in v] for v in m] for m in W_SZLENK[key]]
                  for key in ("subspaces", "compacts")}
        scaled["functionals"] = [[Fraction(x) * scale for x in f] for f in W_SZLENK["functionals"]]
        model = ModelSpace(2, epsilon=HALF, norm=norm, **scaled)
        self.assert_gains_match_definition(model)
        if norm == "max":
            plain = ModelSpace(epsilon=HALF, **W_SZLENK)
            for row, plain_row in zip(model._gains, plain._gains):
                for (points, ps), (plain_points, plain_ps) in zip(row, plain_row):
                    assert points == tuple(tuple(x * scale for x in v) for v in plain_points)
                    assert [p for p, _ in ps or ()] == [p * scale**2 for p, _ in plain_ps or ()]

    @pytest.mark.parametrize("x", [(), ("1",), ("1", "0", "0")], ids=["empty", "short", "long"])
    def test_vectors_of_the_wrong_length_rejected(self, x):
        # zip would cut a vector short, and max of nothing has its own message
        model = ModelSpace(epsilon=HALF, **W_SZLENK)
        message = f"^vector of length {len(x)}, expected 2$"
        with pytest.raises(ValueError, match=message):
            model.in_subspace(1, x)
        with pytest.raises(ValueError, match=message):
            model.norm_value(x)

    @pytest.mark.parametrize(
        "dim", [2.7, 2.0, "2", True, Fraction(2)], ids=["float", "whole-float", "text", "bool", "fraction"]
    )
    def test_dim_must_be_an_int(self, dim):
        with pytest.raises(ValueError, match=r"^not an integer dim: "):
            ModelSpace(dim, [[]], [[["1", "0"]]], [["1", "1"]], HALF)

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("field", ["epsilon", "subspaces", "compacts", "functionals"])
    def test_bools_are_not_rationals(self, field, value):
        # JSON true and false are not numbers, though Python counts them as 1 and 0
        args = dict(dim=1, subspaces=[[]], compacts=[[["1"]]], functionals=[["1"]], epsilon=HALF)
        args[field] = {"subspaces": [[[value]]], "compacts": [[[value]]],
                       "functionals": [[value]]}.get(field, value)
        with pytest.raises(ValueError, match=f"^not a rational: {value}$"):
            ModelSpace(**args)

    @pytest.mark.parametrize(
        "value", ["١/٢", "１/２", "1_0/20", "+1/2", " 1/2 ", "1/2\n", "0.5", "5E-1", "1/-2", "1/0", "", 0.5, 0.1, None]
    )
    @pytest.mark.parametrize("field", ["epsilon", "weight"])
    def test_rationals_read_by_one_grammar(self, field, value):
        # ASCII digits p or p/q after an optional minus, and no float: the
        # text Fraction alone would read as 1/2, and JSON's 0.1
        with pytest.raises(ValueError, match=f"^not a rational: {re.escape(repr(value))}$"):
            if field == "epsilon":
                whole_space_model(eps=value)
            else:
                GameSpec(FiniteBTree([(ONE,)]), whole_space_model(), {(ONE,): value}, PAYOFF_SZLENK)

    @pytest.mark.parametrize("value, expected", [("1/2", HALF), ("02/04", HALF), ("-0", 0), ("7", 7), (3, 3), (HALF, HALF)])
    def test_rationals_in_the_grammar(self, value, expected):
        assert ModelSpace(1, [[]], [[[value]]], [["1"]], HALF).compacts[0][0][0] == expected


class TestGameSpecValidation:
    def test_weights_must_cover_tree(self):
        tree = FiniteBTree([(ONE,)])
        with pytest.raises(ValueError):
            GameSpec(tree, whole_space_model(), {}, PAYOFF_SZLENK)

    def test_weights_must_be_probabilities(self):
        tree = FiniteBTree([(ONE,)])
        with pytest.raises(ValueError):
            GameSpec(tree, whole_space_model(), {(ONE,): Fraction(3, 2)}, PAYOFF_SZLENK)

    @pytest.mark.parametrize("value", [Fraction(0), Fraction(1), 1, "1/2"], ids=["0", "1", "int-1", "text"])
    def test_weights_in_the_unit_interval_accepted(self, value):
        game = GameSpec(FiniteBTree([(ONE,)]), whole_space_model(), {(ONE,): value}, PAYOFF_SZLENK)
        assert type(game.weights[(ONE,)]) is Fraction
        assert game.weights[(ONE,)] == Fraction(value)

    @pytest.mark.parametrize("value", [Fraction(-1, 2), Fraction(3, 2), -1, "3/2"])
    def test_weights_outside_the_unit_interval_rejected(self, value):
        tree = FiniteBTree([(ONE,)])
        with pytest.raises(ValueError, match=r"^weight -?\d+(/\d+)? outside \[0, 1\]$"):
            GameSpec(tree, whole_space_model(), {(ONE,): value}, PAYOFF_SZLENK)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_infinite_weight_is_a_value_error(self, value):
        tree = FiniteBTree([(ONE,)])
        with pytest.raises(ValueError, match="not a rational"):
            GameSpec(tree, whole_space_model(), {(ONE,): value}, PAYOFF_SZLENK)

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_weight_is_a_value_error(self, value):
        tree = FiniteBTree([(ONE,)])
        with pytest.raises(ValueError, match=f"^not a rational: {value}$"):
            GameSpec(tree, whole_space_model(), {(ONE,): value}, PAYOFF_SZLENK)

    def test_integer_tables_match_fraction_arithmetic(self):
        # the scorer's integer weights, peaks and bar against the same
        # quantities worked out in Fractions
        rng = random.Random(97)
        checked = 0
        while checked < 40:
            game = random_game(rng)
            if game.payoff != PAYOFF_SZLENK:
                continue
            checked += 1
            gains = [ps for row in game.model._gains for _, ps in row if ps is not None]
            dw = math.lcm(*(w.denominator for w in game.weights.values()))
            dp = math.lcm(*(p.denominator for ps in gains for p, _ in ps))
            paths, kids = {0: ()}, game._kids
            for node in range(len(kids)):  # parents are numbered before their children
                for label, child in kids[node].items():
                    paths[child] = paths[node] + (label,)
            assert sorted(paths.values())[1:] == sorted(game.tree.nodes)
            assert game._int_weights[0] == 0
            for node, path in paths.items():
                if path:
                    assert type(game._int_weights[node]) is int
                    assert game._int_weights[node] == game.weights[path] * dw
            for row, int_row in zip(game.model._gains, game._int_peaks):
                for (_, ps), int_ps in zip(row, int_row):
                    assert int_ps == (None if ps is None else tuple(p * dp for p, _ in ps))
                    assert all(type(p) is int for p in int_ps or ())
            assert game._bar == math.ceil(game.model.epsilon * dw * dp)

    def test_invalid_tree_rejected(self):
        with pytest.raises(ValueError):
            GameSpec(FiniteBTree(), whole_space_model(), {}, PAYOFF_SZLENK)
        bad = FiniteBTree([P("2,1")])
        with pytest.raises(ValueError):
            GameSpec(bad, whole_space_model(), {P("2,1"): Fraction(1)}, PAYOFF_SZLENK)

    def test_table_entries_checked(self):
        tree = FiniteBTree.closure([P("1,1")])
        weights = {node: HALF for node in tree.nodes}
        with pytest.raises(ValueError):  # not maximal
            GameSpec(tree, whole_space_model(), weights, frozenset({((ONE, 0, 0),)}))
        with pytest.raises(ValueError):  # compact index out of range
            GameSpec(
                tree,
                whole_space_model(),
                weights,
                frozenset({((ONE, 0, 0), (ONE, 0, 7))}),
            )


    @pytest.mark.parametrize("index", [0.0, Fraction(0), False], ids=["float", "fraction", "bool"])
    def test_table_indices_must_be_ints(self, index):
        # equal to 0, but game_to_json would write "1:0.0:0" or
        # "1:False:0", which game_from_json cannot read back
        for entry in [((ONE, index, 0),), ((ONE, 0, index),)]:
            with pytest.raises(ValueError, match="payoff table entry"):
                single_node_game(payoff=frozenset({entry}))

    @pytest.mark.parametrize(
        "stray",
        [{(Ordinal(7),): 5}, {(ONE, ONE): Fraction(1, 10**50)}, {(1,): 1}],
        ids=["out-of-range", "below-a-leaf", "int-label"],
    )
    def test_weights_off_the_tree_rejected(self, stray):
        # kept, such a weight would be printed nowhere, break the JSON round
        # trip and still enter the weights' common denominator
        tree = FiniteBTree([(ONE,)])
        with pytest.raises(ValueError, match="not a tree node"):
            GameSpec(tree, whole_space_model(), {(ONE,): Fraction(1), **stray}, PAYOFF_SZLENK)

    def test_weights_are_read_only(self):
        # a write would change how the game is solved, but not its equality
        # with its own JSON copy
        game = build_szlenk_game(ONE, TruncationBudget(3), ModelSpace(epsilon=HALF, **W_SZLENK))
        with pytest.raises(TypeError):
            game.weights[(ONE,)] = Fraction(0)
        with pytest.raises(AttributeError, match="^GameSpec is immutable$"):
            game.weights = {}
        assert game == game_from_json(game_to_json(game))

    def test_alphabet_sizes_are_read_only(self):
        game = build_szlenk_game(ONE, TruncationBudget(2), ModelSpace(epsilon=HALF, **W_SZLENK))
        assert (game.n_subspaces, game.n_compacts) == (3, 3)
        for name in ("n_subspaces", "n_compacts"):
            with pytest.raises(AttributeError, match="^GameSpec is immutable$"):
                setattr(game, name, 1)
        assert (game.n_subspaces, game.n_compacts) == (3, 3)


class TestEvalPayoff:
    def test_single_node_true(self):
        game = single_node_game()
        assert eval_payoff(game, LEAF) is True

    def test_zero_subspace_empties_selection(self):
        game = single_node_game(whole_space_model(extra_subspaces=[ZERO_SUBSPACE_1D]))
        assert eval_payoff(game, ((ONE, 1, 0),)) is False

    def test_table_lookup(self):
        game = single_node_game(payoff=frozenset({LEAF}))
        assert eval_payoff(game, LEAF) is True
        assert eval_payoff(game, ((ONE, 0, 0),)) is True

    def test_requires_maximal(self):
        tree = FiniteBTree.closure([P("1,1")])
        weights = {node: HALF for node in tree.nodes}
        game = GameSpec(tree, whole_space_model(), weights, PAYOFF_SZLENK)
        with pytest.raises(ValueError):
            eval_payoff(game, LEAF)

    @pytest.mark.parametrize("payoff", [PAYOFF_SZLENK, frozenset({LEAF})], ids=["szlenk", "table"])
    def test_move_indices_checked(self, payoff):
        # two subspaces and one compact: -1 must not wrap round to subspace 1
        game = single_node_game(whole_space_model(extra_subspaces=[ZERO_SUBSPACE_1D]), payoff)
        for leaf in [((ONE, -1, 0),), ((ONE, 2, 0),), ((ONE, 0, 1),), ((ONE, 0, -1),),
                     ((ONE, 0.0, 0),), ((ONE, 0, Fraction(0)),)]:
            with pytest.raises(ValueError):
                eval_payoff(game, leaf)

    @pytest.mark.parametrize("payoff", [PAYOFF_SZLENK, frozenset({LEAF})], ids=["szlenk", "table"])
    @pytest.mark.parametrize(
        "leaf", [[5], None, 5, [LEAF[0], 5], "1:0:0", [(ONE, 0)]],
        ids=["int-move", "none", "int", "int-tail", "string", "pair-move"],
    )
    def test_leaf_of_non_sequences_rejected(self, payoff, leaf):
        with pytest.raises(ValueError, match="^leaf is not a maximal history$"):
            eval_payoff(single_node_game(payoff=payoff), leaf)

    def test_leaf_forms_give_one_verdict(self):
        # a leaf is read once, move by move, so lists and one-pass iterators
        # of moves score as the tuple of tuples does, under both payoffs
        rng = random.Random(6061)
        seen = set()
        while len(seen) < 4:
            game = random_game(rng)
            for leaf in maximal_histories(game)[:8]:
                verdict = eval_payoff(game, leaf)
                seen.add((game.payoff == PAYOFF_SZLENK, verdict))
                for form in ([list(m) for m in leaf], (m for m in leaf), (iter(m) for m in leaf)):
                    assert eval_payoff(game, form) is verdict

    def test_no_functionals_means_false(self):
        game = single_node_game(whole_space_model(functionals=()))
        assert eval_payoff(game, LEAF) is False

    def test_matches_enumeration_oracle(self):
        rng = random.Random(4021)
        checked = 0
        while checked < 60:
            game = random_game(rng)
            if game.payoff != PAYOFF_SZLENK:
                continue
            for leaf in maximal_histories(game)[:6]:
                sets = [game.model.selection_set(z, c) for _, z, c in leaf]
                product_size = 1
                for s in sets:
                    product_size *= max(len(s), 1)
                if product_size > 10**4:
                    continue
                assert eval_payoff(game, leaf) == payoff_by_enumeration(game, leaf)
                checked += 1


class TestExactPartialSums:
    """The payoff is scored on integer partial sums over common denominators;
    these games sit on the boundary of the payoff inequality."""

    def test_w_szlenk_gamma1_at_its_value(self):
        # 2/3 is the value of this game: II wins at 2/3, I just above it
        budget = TruncationBudget(max_n=3)
        at_value = build_szlenk_game(ONE, budget, ModelSpace(epsilon=Fraction(2, 3), **W_SZLENK))
        winner, strategy = solve(at_value)
        assert winner == "II"
        assert verify_strategy(at_value, strategy)
        assert extract_collections(at_value, strategy).functionals
        above = Fraction(2, 3) + Fraction(1, 10**6)
        game = build_szlenk_game(ONE, budget, ModelSpace(epsilon=above, **W_SZLENK))
        winner, strategy = solve(game)
        assert winner == "I"
        assert verify_strategy(game, strategy)

    def test_coprime_denominators_match_enumeration(self):
        # weight denominators 7, 11 and 13, peak denominators 3 and 5; epsilon
        # runs over every value a leaf's selections reach, so at each epsilon
        # some leaf meets the payoff inequality with equality
        tree = FiniteBTree.closure([P("1,1,1"), P("1,2")])
        weights = {P("1"): Fraction(1, 7), P("1,1"): Fraction(1, 11), P("1,2"): Fraction(2, 11),
                   P("1,1,1"): Fraction(1, 13)}
        model = dict(dim=1, subspaces=[[]], compacts=[[["1/3"]], [["2/5"]], [["-3/5"], ["1/3"]]],
                     functionals=[["1"], ["-1"]])
        probe = GameSpec(tree, ModelSpace(epsilon=1, **model), weights, PAYOFF_SZLENK)
        leaves = maximal_histories(probe)
        values = set()
        for leaf in leaves:
            ws = probe.prefix_weights(tuple(m[0] for m in leaf))
            for xstar in probe.model.functionals:
                combos = itertools.product(*(selection_set(probe.model, z, c) for _, z, c in leaf))
                for combo in combos:
                    values.add(sum(w * xstar[0] * x[0] for w, x in zip(ws, combo)))
        seen = set()
        for eps in sorted(v for v in values if v > 0):
            game = GameSpec(tree, ModelSpace(epsilon=eps, **model), weights, PAYOFF_SZLENK)
            outcomes = [eval_payoff(game, leaf) for leaf in leaves]
            assert outcomes == [payoff_by_enumeration(game, leaf) for leaf in leaves]
            seen.add(tuple(outcomes))
        assert len(seen) > 2  # the winning leaves change with epsilon

    @pytest.mark.parametrize(
        "model",
        [whole_space_model(functionals=()), ModelSpace(1, [[]], [[["2"]]], [["1"]], HALF)],
        ids=["no-functionals", "empty-selection-set"],
    )
    def test_nothing_to_score_gives_player_one(self, model):
        game = build_szlenk_game(Ordinal(2), TruncationBudget(max_n=2), model)
        winner, strategy = solve(game)
        assert winner == "I"
        assert verify_strategy(game, strategy)
        assert not any(eval_payoff(game, leaf) for leaf in maximal_histories(game))


class TestSolve:
    def test_payoff_false_table_player_one_wins(self):
        game = single_node_game(payoff=frozenset())
        winner, strategy = solve(game)
        assert winner == "I"
        assert strategy.moves[()] == (ONE, 0)
        assert verify_strategy(game, strategy)

    def test_payoff_true_table_player_two_wins(self):
        game = single_node_game(payoff=frozenset({LEAF}))
        winner, strategy = solve(game)
        assert winner == "II"
        assert strategy.moves[((), (ONE, 0))] == 0
        assert verify_strategy(game, strategy)

    def test_zero_subspace_flips_winner(self):
        game = single_node_game()
        assert solve(game)[0] == "II"
        flipped = single_node_game(whole_space_model(extra_subspaces=[ZERO_SUBSPACE_1D]))
        winner, strategy = solve(flipped)
        assert winner == "I"
        assert strategy.moves[()] == (ONE, 1)  # picks the zero subspace
        assert verify_strategy(flipped, strategy)

    def test_deterministic_tie_breaks(self):
        # two subspaces, both winning for I: the strategy takes index 0
        model = whole_space_model(extra_subspaces=[[]])
        game = single_node_game(model, payoff=frozenset())
        winner, strategy = solve(game)
        assert winner == "I" and strategy.moves[()] == (ONE, 0)

    def test_repeat_solves_identical(self):
        rng = random.Random(7)
        for _ in range(5):
            game = random_game(rng)
            first = solve(game)
            second = solve(game)
            assert first[0] == second[0]
            assert first[1].moves == second[1].moves

    def test_agrees_with_brute_force_on_random_games(self):
        rng = random.Random(99)
        for _ in range(40):
            game = random_game(rng)
            winner, strategy = solve(game)
            assert verify_strategy(game, strategy)
            assert brute_force_winner(game) == winner

    def test_agrees_with_rerooting_recursion_on_table_games(self):
        rng = random.Random(424242)
        seen = 0
        while seen < 25:
            game = random_game(rng)
            if game.payoff == PAYOFF_SZLENK:
                continue
            seen += 1
            assert winner_by_rerooting(game) == solve(game)[0]

    def test_matches_product_tree_oracle(self):
        # the oracle searches every history on its own; the solver decides
        # each (node, partial sums) position once and must write out the
        # same strategy, tie-breaks included
        rng = random.Random(2718)
        kinds = set()
        for _ in range(60):
            game = random_game(rng)
            winner, strategy = solve(game)
            want_winner, want = product_tree_strategy(game)
            assert (winner, strategy.player) == (want_winner, want.player)
            assert strategy.moves == want.moves
            kinds.add((game.payoff == PAYOFF_SZLENK, winner))
        assert len(kinds) == 4  # both payoff kinds, both winners


class TestStrategy:
    def test_value_semantics(self):
        strategy = Strategy("II", {((), (ONE, 0)): 0})
        assert repr(strategy) == "Strategy(player='II', moves={((), (Ordinal('1'), 0)): 0})"
        assert strategy == Strategy("II", {((), (ONE, 0)): 0}) != Strategy("II", {})
        with pytest.raises(TypeError):
            hash(strategy)
        with pytest.raises(ValueError, match="unknown player 'III'"):
            Strategy("III", {})
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(strategy, protocol)) == strategy
        assert copy.copy(strategy) == strategy == copy.deepcopy(strategy)
        with pytest.raises(AttributeError, match="Strategy is immutable"):
            strategy.moves = {}


class TestVerifyStrategy:
    def test_rejects_wrong_side(self):
        game = single_node_game(payoff=frozenset({LEAF}))  # II wins
        losing = Strategy("I", {(): (ONE, 0)})
        assert not verify_strategy(game, losing)

    def test_hand_built_ii_strategy(self):
        game = single_node_game()
        psi = Strategy("II", {((), (ONE, 0)): 0})
        assert verify_strategy(game, psi)

    def test_missing_prescription_fails(self):
        game = single_node_game(payoff=frozenset())
        assert not verify_strategy(game, Strategy("I", {}))

    def test_illegal_move_fails(self):
        game = single_node_game(payoff=frozenset())
        assert not verify_strategy(game, Strategy("I", {(): (Ordinal(9), 0)}))
        assert not verify_strategy(game, Strategy("I", {(): (ONE, 5)}))
        # an int equals the Ordinal label, but is not a label of the tree
        assert not verify_strategy(game, Strategy("I", {(): (1, 0)}))
        assert verify_strategy(game, Strategy("I", {(): (ONE, 0)}))

    @pytest.mark.parametrize(
        "strategy",
        [
            Strategy("I", {(): (ONE,)}),
            Strategy("I", {(): ONE}),
            Strategy("I", {(): (ONE, 0.5)}),
            Strategy("II", {((), (ONE, 0)): 0.5}),
            Strategy("I", {(): (ONE, False)}),
            Strategy("II", {((), (ONE, 0)): False}),
        ],
        ids=["one-field-move", "bare-label", "float-subspace", "float-reply", "bool-subspace", "bool-reply"],
    )
    def test_malformed_move_fails(self, strategy):
        # not an error: a move of the wrong shape is an illegal move; I wins
        # the second game, II the first
        for game in (single_node_game(), single_node_game(payoff=frozenset())):
            assert not verify_strategy(game, strategy)

    LEGAL_CHAIN = {(): (ONE, 0), ((ONE, 0, 0),): (Ordinal(2), 0)}

    @pytest.mark.parametrize(
        "moves",
        [
            {(): (1, 0), ((1, 0, 0),): (Ordinal(2), 0)},
            {(): (Ordinal(2), 0)},
            {**LEGAL_CHAIN, ((ONE, 0, 0),): (Ordinal(3), 0)},
            {**LEGAL_CHAIN, ((ONE, 0, 0),): (2, 0)},
        ],
        ids=["int-root-label", "deeper-label-at-root", "root-label-below-1", "int-child-label"],
    )
    def test_label_must_be_a_child_of_the_node(self, moves):
        # roots 1 and 3, and 2 only below 1; I wins every play of this game
        tree = FiniteBTree.closure([P("1,2"), P("3")])
        game = GameSpec(tree, whole_space_model(), dict.fromkeys(tree.nodes, HALF), frozenset())
        assert verify_strategy(game, Strategy("I", self.LEGAL_CHAIN))
        assert not verify_strategy(game, Strategy("I", moves))
        with pytest.raises(ValueError):
            complete_substrategy(game, Strategy("I", moves), 0)

    @staticmethod
    def flip_one_move(game, strategy, rng):
        """The strategy with one reply or offer changed, or None if it has no other."""
        key = rng.choice(list(strategy.moves))
        if strategy.player == "II":
            if game.n_compacts == 1:
                return None
            changed = (strategy.moves[key] + 1) % game.n_compacts
        else:
            node = tuple(move[0] for move in key)
            offers = [
                (zeta, zi)
                for zeta in game.tree.children_labels(node)
                for zi in range(game.n_subspaces)
            ]
            if len(offers) == 1:
                return None
            changed = offers[(offers.index(strategy.moves[key]) + 1) % len(offers)]
        return Strategy(strategy.player, {**strategy.moves, key: changed})

    def test_matches_enumeration_oracle(self):
        # the oracle scores every leaf from the full selection products in
        # Fraction arithmetic; the library walks the integer partial sums.
        # Every witness extract_collections returns is checked in Fraction
        rng = random.Random(5150)
        flipped_rejected = witnessed = 0
        for _ in range(60):
            game = random_game(rng)
            _, strategy = solve(game)
            flipped = self.flip_one_move(game, strategy, rng)
            for candidate in filter(None, (strategy, flipped)):
                ok = verify_strategy(game, candidate)
                assert ok == verify_by_enumeration(game, candidate)
                flipped_rejected += candidate is flipped and not ok
                if game.payoff != PAYOFF_SZLENK or candidate.player != "II":
                    continue
                if not ok:
                    with pytest.raises(ValueError):
                        extract_collections(game, candidate)
                    continue
                collections = extract_collections(game, candidate)
                for t, xstar in collections.functionals.items():
                    weights = game.prefix_weights(tuple(offer[0] for offer in t))
                    total = Fraction(0)
                    for i, w in enumerate(weights, 1):
                        s = t[:i]
                        x = collections.selections[(s, t)]
                        assert x in selection_set(game.model, s[-1][1], collections.compact_choices[s])
                        total += w * sum(a * b for a, b in zip(xstar, x))
                    assert total >= game.model.epsilon
                    witnessed += 1
        assert flipped_rejected > 0 and witnessed > 0


class TestBruteForce:
    def test_size_cap(self):
        game = single_node_game()
        with pytest.raises(ValueError):
            brute_force_winner(game, max_positions=0)

    def test_position_count(self):
        tree = FiniteBTree.closure([P("1,1")])
        weights = {node: HALF for node in tree.nodes}
        model = ModelSpace(
            1, [[], []], [[["1"]], [["0"]]], [["1"]], HALF
        )  # |D| = |K| = 2
        game = GameSpec(tree, model, weights, PAYOFF_SZLENK)
        assert game_position_count(game) == 4 + 16


class TestMonotonicity:
    def test_payoff_set_monotone(self):
        rng = random.Random(2024)
        seen = 0
        while seen < 12:
            game = random_game(rng)
            if game.payoff == PAYOFF_SZLENK:
                continue
            seen += 1
            leaves = maximal_histories(game)
            extra = frozenset(h for h in leaves if rng.random() < 0.5)
            bigger = GameSpec(game.tree, game.model, game.weights, game.payoff | extra)
            if solve(game)[0] == "II":
                assert solve(bigger)[0] == "II"

    def test_epsilon_monotone(self):
        rng = random.Random(11)
        seen = 0
        while seen < 12:
            game = random_game(rng)
            if game.payoff != PAYOFF_SZLENK:
                continue
            seen += 1
            if solve(game)[0] != "II":
                continue
            model = game.model
            smaller = ModelSpace(
                model.dim,
                model.subspaces,
                model.compacts,
                model.functionals,
                model.epsilon / 2,
                model.norm,
            )
            assert solve(GameSpec(game.tree, smaller, game.weights, PAYOFF_SZLENK))[0] == "II"

    def test_more_subspaces_never_hurt_player_one(self):
        rng = random.Random(5150)
        seen = 0
        while seen < 12:
            game = random_game(rng)
            if game.payoff != PAYOFF_SZLENK:
                continue
            seen += 1
            if solve(game)[0] != "I":
                continue
            model = game.model
            enlarged = ModelSpace(
                model.dim,
                list(model.subspaces) + [[[1 if j == i else 0 for j in range(model.dim)] for i in range(model.dim)]],
                model.compacts,
                model.functionals,
                model.epsilon,
                model.norm,
            )
            assert solve(GameSpec(game.tree, enlarged, game.weights, PAYOFF_SZLENK))[0] == "I"

    def test_winner_monotone_in_budget(self):
        # the truncation at max_n k is a subtree of the one at k + 1 with the
        # same weights, so it only takes offers away from Player I: II winning
        # at k + 1 means II wins at k.  Budgets stop at Gamma_2@3 and Gamma_w@2
        # (Gamma_w@3 has 173,130 nodes).
        max_n = {"1": 4, "2": 3, "w": 2}
        rng = random.Random(1729)
        turns = 0
        for case in range(24):
            xi = ("1", "2", "w")[case % 3]
            if case % 2:
                model = random_model(rng)
            else:
                # W-szlenk where its winner turns with the budget
                model = ModelSpace(epsilon=Fraction(rng.randint(17, 24), 24), **W_SZLENK)
            winners = [
                solve(build_szlenk_game(Ordinal(xi), TruncationBudget(n), model))[0]
                for n in range(1, max_n[xi] + 1)
            ]
            assert ("I", "II") not in zip(winners, winners[1:]), (xi, model, winners)
            turns += ("II", "I") in zip(winners, winners[1:])
        assert turns >= 4

    def test_zero_subspace_rule(self):
        rng = random.Random(31337)
        for _ in range(8):
            dim = rng.randint(1, 3)
            identity = [[1 if j == i else 0 for j in range(dim)] for i in range(dim)]
            # compacts avoiding the zero vector
            compacts = []
            for _ in range(rng.randint(1, 2)):
                c = []
                for _ in range(rng.randint(1, 3)):
                    vec = [Fraction(rng.randint(-2, 2), 2) for _ in range(dim)]
                    if all(x == 0 for x in vec):
                        vec[0] = Fraction(1, 2)
                    c.append(vec)
                compacts.append(c)
            model = ModelSpace(
                dim,
                [[],
                 identity],
                compacts,
                [[Fraction(1) for _ in range(dim)]],
                Fraction(1, 3),
            )
            tree = FiniteBTree.closure([P("2,1"), P("3")])
            weights = {node: HALF for node in tree.nodes}
            game = GameSpec(tree, model, weights, PAYOFF_SZLENK)
            winner, strategy = solve(game)
            assert winner == "I"
            assert verify_strategy(game, strategy)


class TestCompleteSubstrategy:
    def make_two_step_game(self):
        tree = FiniteBTree.closure([P("1,1"), P("2")])
        weights = {node: HALF for node in tree.nodes}
        game = GameSpec(tree, whole_space_model(extra_subspaces=[ZERO_SUBSPACE_1D]), weights, PAYOFF_SZLENK)
        return game

    def test_total_sub_unchanged(self):
        game = self.make_two_step_game()
        winner, strategy = solve(game)
        assert winner == "I"
        sub = reachable_restriction(game, strategy)
        total = complete_substrategy(game, sub, fallback_z=0)
        again = complete_substrategy(game, total, fallback_z=0)
        assert again.moves == total.moves
        for key, value in sub.moves.items():
            assert total.moves[key] == value

    def test_completion_of_winning_sub_wins(self):
        game = self.make_two_step_game()
        _, strategy = solve(game)
        sub = reachable_restriction(game, strategy)
        total = complete_substrategy(game, sub, fallback_z=1)
        assert verify_strategy(game, total)

    def test_illegal_first_move_rejected(self):
        game = self.make_two_step_game()
        with pytest.raises(ValueError):
            complete_substrategy(game, Strategy("I", {(): (Ordinal(9), 0)}), 0)

    def test_missing_reachable_position_rejected(self):
        game = self.make_two_step_game()
        # prescribes the chain root but nothing after II's replies
        with pytest.raises(ValueError):
            complete_substrategy(game, Strategy("I", {(): (ONE, 0)}), 0)

    def test_off_cone_entries_pass_through(self):
        # legal prescriptions outside the first-move cone are kept verbatim
        game = self.make_two_step_game()
        moves = {(): (Ordinal(2), 0), ((ONE, 0, 0),): (ONE, 1)}
        total = complete_substrategy(game, Strategy("I", moves), 0)
        assert total.moves[((ONE, 0, 0),)] == (ONE, 1)

    def test_illegal_prescription_rejected(self):
        game = self.make_two_step_game()
        moves = {(): (Ordinal(2), 0), ((ONE, 0, 0),): (Ordinal(9), 0)}
        with pytest.raises(ValueError):
            complete_substrategy(game, Strategy("I", moves), 0)

    @pytest.mark.parametrize("on_play", [False, True], ids=["off-play", "on-play"])
    def test_float_subspace_rejected(self, on_play):
        # 0.0 equals subspace 0 but is no index: strategy_to_json would write
        # a move that strategy_from_json rejects
        game = self.make_two_step_game()
        moves = {(): (ONE, 0.0)} if on_play else {(): (Ordinal(2), 0), ((ONE, 0, 0),): (ONE, 0.0)}
        with pytest.raises(ValueError, match="illegal move"):
            complete_substrategy(game, Strategy("I", moves), 0)

    @pytest.mark.parametrize("fallback_z", [-1, 2, 0.0, False], ids=["negative", "too-large", "float", "bool"])
    def test_fallback_must_be_a_subspace_index(self, fallback_z):
        game = self.make_two_step_game()
        _, strategy = solve(game)
        with pytest.raises(ValueError, match="fallback"):
            complete_substrategy(game, reachable_restriction(game, strategy), fallback_z)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_path_oracle_on_random_games(self, seed):
        # a winning substrategy with one key dropped or added, checked against
        # the contract read off the tree's paths
        rng = random.Random(seed)
        while True:
            game = random_game(rng)
            winner, strategy = solve(game)
            if winner == "I":
                break
        moves = dict(reachable_restriction(game, strategy).moves)
        histories = list(complete_by_paths(game, Strategy("I", moves), 0))
        history = rng.choice(histories)
        labels = game.tree.children_labels(tuple(m[0] for m in history))
        kind = rng.choice(["drop", "legal", "label", "float", "off-tree", "maximal"])
        if kind == "drop":
            del moves[rng.choice(list(moves))]
        elif kind == "legal":  # off the play, if there is room
            off_play = [h for h in histories if h not in moves]
            if off_play:
                history = rng.choice(off_play)
                labels = game.tree.children_labels(tuple(m[0] for m in history))
                moves[history] = (rng.choice(labels), rng.randrange(game.n_subspaces))
        elif kind == "label":  # the int 1 equals the label 1 but is not one
            moves[history] = (rng.choice([OMEGA * 3, 1]), 0)
        elif kind == "float":
            moves[history] = (rng.choice(labels), float(rng.randrange(game.n_subspaces)))
        elif kind == "off-tree":
            move = rng.choice([(OMEGA * 3, 0, 0), (labels[0], game.n_subspaces, 0), (labels[0], 0, -1)])
            moves[history + (move,)] = (ONE, 0)
        else:
            moves[rng.choice(maximal_histories(game))] = (ONE, 0)
        sub, fallback_z = Strategy("I", moves), rng.randrange(game.n_subspaces)
        want = complete_by_paths(game, sub, fallback_z)
        if want is None:
            with pytest.raises(ValueError):
                complete_substrategy(game, sub, fallback_z)
        else:
            total = complete_substrategy(game, sub, fallback_z)
            assert total.moves == want
            assert verify_strategy(game, total)

    def test_player_two_rejected(self):
        game = self.make_two_step_game()
        with pytest.raises(ValueError):
            complete_substrategy(game, Strategy("II", {}), 0)

    def test_fallback_fills_off_domain(self):
        game = self.make_two_step_game()
        _, strategy = solve(game)
        sub = reachable_restriction(game, strategy)
        total = complete_substrategy(game, sub, fallback_z=1)
        off_domain = [h for h in total.moves if h not in sub.moves]
        for h in off_domain:
            zeta, zi = total.moves[h]
            assert zi == 1
            node = tuple(m[0] for m in h)
            assert zeta == game.tree.children_labels(node)[0]


class TestExtractCollections:
    def test_single_node_exact(self):
        game = single_node_game()
        winner, strategy = solve(game)
        assert winner == "II"
        collections = extract_collections(game, strategy)
        key = ((ONE, 0),)
        assert collections.compact_choices == {key: 0}
        assert collections.functionals == {key: (Fraction(1),)}
        assert collections.selections == {(key, key): (Fraction(1),)}

    def test_tie_takes_least_functional(self):
        # both functionals reach 1/2; the lesser vector (0, 1) is listed second
        model = ModelSpace(2, [[]], [[["1/2", "1/2"]]], [["1", "0"], ["0", "1"]], HALF)
        game = single_node_game(model)
        collections = extract_collections(game, solve(game)[1])
        assert collections.functionals == {((ONE, 0),): (Fraction(0), Fraction(1))}

    def test_rejects_player_one(self):
        game = single_node_game(payoff=frozenset())
        winner, strategy = solve(game)
        with pytest.raises(ValueError):
            extract_collections(game, strategy)

    def test_rejects_table_games(self):
        game = single_node_game(payoff=frozenset({LEAF}))
        _, strategy = solve(game)
        with pytest.raises(ValueError):
            extract_collections(game, strategy)

    def test_rejects_unverified_strategy(self):
        game = single_node_game(whole_space_model(eps=Fraction(2)))  # I wins: 1 < 2
        assert solve(game)[0] == "I"
        bogus = Strategy("II", {((), (ONE, 0)): 0})
        with pytest.raises(ValueError):
            extract_collections(game, bogus)

    def test_lemma_conclusions_on_random_games(self):
        rng = random.Random(616)
        done = 0
        while done < 10:
            game = random_game(rng)
            if game.payoff != PAYOFF_SZLENK:
                continue
            winner, strategy = solve(game)
            if winner != "II":
                continue
            done += 1
            collections = extract_collections(game, strategy)
            for t, xstar in collections.functionals.items():
                total = Fraction(0)
                node = tuple(offer[0] for offer in t)
                weights = game.prefix_weights(node)
                for i in range(1, len(t) + 1):
                    s = t[:i]
                    x = collections.selections[(s, t)]
                    # conclusion (ii): the selection lies in the prescribed compact
                    assert x in game.model.compacts[collections.compact_choices[s]]
                    # and in the ball and the offered subspace
                    assert game.model.norm_value(x) <= 1
                    assert game.model.in_subspace(s[-1][1], x)
                    total += weights[i - 1] * sum(a * b for a, b in zip(xstar, x))
                # conclusion (i): the payoff inequality holds exactly
                assert total >= game.model.epsilon


class TestBuildSzlenkGame:
    def test_gamma0(self):
        game = build_szlenk_game(Ordinal(0), TruncationBudget(3), whole_space_model())
        assert set(game.tree.nodes) == {(ONE,)}
        assert game.weights[(ONE,)] == 1
        assert solve(game)[0] == "II"

    def test_gamma1_weights(self):
        game = build_szlenk_game(ONE, TruncationBudget(3), whole_space_model())
        assert game.weights[P("3,2")] == Fraction(1, 3)
        assert game.tree.order() == 3

    def test_gamma2_branch_sums(self):
        game = build_szlenk_game(Ordinal(2), TruncationBudget(2), whole_space_model())
        for leaf in game.tree.max_nodes():
            total = sum(game.prefix_weights(leaf), Fraction(0))
            assert total == 1

    def test_gamma1_max_n6_w_szlenk(self):
        # 672,597 histories in the product tree, few (node, partial sums) positions
        game = build_szlenk_game(ONE, TruncationBudget(6), ModelSpace(epsilon=HALF, **W_SZLENK))
        winner, strategy = solve(game)
        assert winner == "II"
        assert verify_strategy(game, strategy)


class TestJsonRoundTrip:
    def test_game_round_trip(self):
        rng = random.Random(8080)
        for _ in range(6):
            game = random_game(rng)
            data = json.loads(json.dumps(game_to_json(game), sort_keys=True))
            assert game_from_json(data) == game

    def test_strategy_round_trip(self):
        rng = random.Random(9090)
        for _ in range(6):
            game = random_game(rng)
            winner, strategy = solve(game)
            data = json.loads(json.dumps(strategy_to_json(strategy)))
            restored = strategy_from_json(data)
            assert restored.player == strategy.player
            assert restored.moves == strategy.moves
            assert verify_strategy(game, restored)

    def test_pickle_and_copy_round_trip(self):
        rng = random.Random(7070)
        for _ in range(6):
            game = random_game(rng)
            for restore in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy):
                assert restore(game.model) == game.model
                assert restore(game) == game
                assert solve(restore(game)) == solve(game)


class TestCollidingKeys:
    """Two JSON key texts that read as one node path or one strategy key are
    a ValueError naming both, in either order; a dict would keep the later.
    Labels have many texts, indices one: a key whose index is not ASCII
    digits (``+0``, `` 0``, ``0_0``) is no twin of the key with ``0`` but
    malformed, and rejected as such before or after it."""

    MALFORMED = {
        "|1:+0": "'1:+0' is not of the form label:subspace",
        "|1: 0": "'1: 0' is not of the form label:subspace",
        "|1:0_0": "'1:0_0' is not of the form label:subspace",
        "2:0:+0|1:1": "'2:0:+0' is not of the form label:subspace:compact",
        "3:1:+0": "'3:1:+0' is not of the form label:subspace:compact",
        "3:1:0;2:1: 0": "'2:1: 0' is not of the form label:subspace:compact",
    }

    @staticmethod
    def game(eps, max_n):
        return build_szlenk_game(ONE, TruncationBudget(max_n=max_n), ModelSpace(**W_SZLENK, epsilon=eps))

    @classmethod
    def rejected(cls, reader, data, field, key, twin, first):
        # ``key`` joins ``data[field]`` with ``twin``'s value, before or after it
        items = data[field]
        data[field] = {key: items[twin], **items} if first else {**items, key: items[twin]}
        texts = (key, twin) if first else (twin, key)
        message = cls.MALFORMED.get(key, f"{texts[0]!r} and {texts[1]!r} read as the same key")
        with pytest.raises(ValueError, match=re.escape(message)):
            reader(data)

    @pytest.mark.parametrize("first", [False, True], ids=["last", "first"])
    @pytest.mark.parametrize("key, twin", [("0+1", "1"), ("2,0+1", "2,1"), ("0+2,1", "2,1")])
    def test_weight_keys(self, key, twin, first):
        self.rejected(game_from_json, game_to_json(self.game("1/2", 2)), "weights", key, twin, first)

    @pytest.mark.parametrize("first", [False, True], ids=["last", "first"])
    @pytest.mark.parametrize("key, twin", [
        ("|1:+0", "|1:0"), ("|1: 0", "|1:0"), ("|1:0_0", "|1:0"), ("|0+1:0", "|1:0"),
        ("2:0:+0|1:1", "2:0:0|1:1"), ("0+2:0:0|1:1", "2:0:0|1:1"),
    ])
    def test_player_ii_move_keys(self, key, twin, first):
        winner, strategy = solve(self.game("1/2", 2))
        assert winner == "II"
        self.rejected(strategy_from_json, strategy_to_json(strategy), "moves", key, twin, first)

    @pytest.mark.parametrize("first", [False, True], ids=["last", "first"])
    @pytest.mark.parametrize("key, twin", [("3:1:+0", "3:1:0"), ("0+3:1:0", "3:1:0"),
                                           ("3:1:0;2:1: 0", "3:1:0;2:1:0")])
    def test_player_i_move_keys(self, key, twin, first):
        winner, strategy = solve(self.game("3/4", 3))
        assert winner == "I"
        self.rejected(strategy_from_json, strategy_to_json(strategy), "moves", key, twin, first)


def _outcome(function, *args):
    """The value, or the type and text of the ValueError raised."""
    try:
        return function(*args)
    except ValueError as exc:
        return type(exc), str(exc)


_PARTS = st.one_of(
    st.sampled_from(["1:0:0", "2:1:0", "w:0:1", "w+1:0:0"]), st.text("12w+:x", max_size=6)
)
_HISTORY_TEXTS = st.lists(_PARTS, max_size=4).map(";".join)


class TestTextBoundary:
    """The memoized readers and renderers against the plain ones in oracles."""

    @staticmethod
    def same_json(new, old):
        assert new == old
        assert json.dumps(new) == json.dumps(old)  # insertion order too

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_renderers_match_reference(self, rng):
        game = random_game(rng)
        winner, strategy = solve(game)
        # a part of the strategy too, where histories miss their parents
        part = Strategy(winner, {k: v for k, v in strategy.moves.items() if rng.random() < 0.5})
        for s in (strategy, part):
            data = strategy_to_json(s)
            self.same_json(data, reference_strategy_to_json(s))
            assert strategy_from_json(json.loads(json.dumps(data))) == s
            if winner == "I":
                for text in data["moves"]:
                    assert history_from_text(text) == reference_history_from_text(text)
        if winner == "II" and game.payoff == PAYOFF_SZLENK:
            collections = extract_collections(game, strategy)
            self.same_json(collections_to_json(collections), reference_collections_to_json(collections))
            choices = {k: v for k, v in collections.compact_choices.items() if rng.random() < 0.5}
            thinned = ExtractedCollections(choices, collections.functionals, collections.selections)
            self.same_json(collections_to_json(thinned), reference_collections_to_json(thinned))

    @settings(max_examples=200, deadline=None)
    @given(_HISTORY_TEXTS)
    def test_history_from_text_matches_reference(self, text):
        assert _outcome(history_from_text, text) == _outcome(reference_history_from_text, text)

    @pytest.mark.parametrize("part", ["1:\u0660:\u0660", "1:+0:0", "1: 0:0", "1:0_0:0", "1:0:0 ", "1:0:\uff10"])
    def test_indices_are_ascii_digits(self, part):
        # as the CLI reads its integer arguments: an optional minus, then 0-9
        for text in (part, f"2:1:0;{part}"):
            message = f"{part!r} is not of the form label:subspace:compact"
            assert _outcome(history_from_text, text) == _outcome(reference_history_from_text, text) == (ValueError, message)
        assert history_from_text("1:10:0;2:-1:007") == ((ONE, 10, 0), (Ordinal(2), -1, 7))

    @pytest.mark.parametrize("entry", ["1:0", "1:x:0", "x:0:0", "1:0:0;", "1:0:0:0"])
    def test_table_entry_errors_match_reference(self, entry):
        data = game_to_json(single_node_game(payoff=frozenset({LEAF})))
        data["payoff"] = {"table": [entry]}
        assert _outcome(game_from_json, data) == _outcome(reference_history_from_text, entry)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_HISTORY_TEXTS, max_size=6, unique=True))
    def test_strategy_keys_match_reference(self, keys):
        # one call reads every key: the first bad key, at its first bad part,
        # names the error, as reading each key afresh from the left would
        def reference(keys):
            return {reference_history_from_text(key): (ONE, 0) for key in keys}

        def read(keys):
            data = {"player": "I", "moves": {key: ["1", 0] for key in keys}}
            return strategy_from_json(data).moves

        assert _outcome(read, keys) == _outcome(reference, keys)


class TestCallsCarryNoState:
    """Calls repeated, in either order, give the same results: the memos a
    game shares between its calls change no answer."""

    CALLS = {
        "solve": lambda game, strategy, leaves: solve(game),
        "verify": lambda game, strategy, leaves: verify_strategy(game, strategy),
        "extract": lambda game, strategy, leaves: _outcome(extract_collections, game, strategy),
        "payoff": lambda game, strategy, leaves: [eval_payoff(game, leaf) for leaf in leaves],
    }

    @pytest.mark.parametrize("seed", range(10))
    def test_repeat_calls_in_either_order_agree(self, seed):
        rng = random.Random(seed)
        cases = []
        for _ in range(2):
            game = random_game(rng)
            leaves = maximal_histories(game)
            rng.shuffle(leaves)
            cases.append((game, solve(game)[1], leaves))
        # two games' calls interleaved; each game's calls in both orders, each order twice
        runs = [[], []]
        forward = list(self.CALLS)
        for order in (forward, forward[::-1]):
            for _ in range(2):
                for case, got in zip(cases, runs):
                    got.append({name: self.CALLS[name](*case) for name in order})
        for (_, strategy, _), got in zip(cases, runs):
            assert all(run == got[0] for run in got)
            assert got[0]["solve"] == (strategy.player, strategy)
            assert got[0]["verify"] is True


class TestGameMemo:
    """A game's memos and move tuples, filled by whatever call came first,
    change no output; a pickle or copy starts with them empty."""

    @staticmethod
    def outputs(game, strategy=None):
        """The texts of solve (unless a strategy is given), verify and extract."""
        texts = []
        if strategy is None:
            winner, strategy = solve(game)
            texts += [winner, json.dumps(strategy_to_json(strategy))]
        texts.append(verify_strategy(game, strategy))
        if game.payoff == PAYOFF_SZLENK and strategy.player == "II":
            extracted = _outcome(extract_collections, game, strategy)
            if isinstance(extracted, ExtractedCollections):
                extracted = json.dumps(collections_to_json(extracted))
            texts.append(extracted)
        return texts

    @staticmethod
    def memos(game):
        return [game._offer_table, game._steps, game._wins, game._witness]

    @classmethod
    def probes(cls, game, strategy, rng):
        """Calls off the solver's path: every leaf's payoff, then verify and
        extract on forged strategies (one move changed, one missing, one out
        of range) and on the loser's strategy of least moves everywhere."""
        leaves = maximal_histories(game)
        out = [eval_payoff(game, leaf) for leaf in leaves]
        player, moves = strategy.player, strategy.moves
        key = rng.choice(list(moves))
        out_of_range = (ONE, game.n_subspaces) if player == "I" else game.n_compacts
        forged = [
            TestVerifyStrategy.flip_one_move(game, strategy, rng),
            Strategy(player, {k: v for k, v in moves.items() if k != key}),
            Strategy(player, {**moves, key: out_of_range}),
        ]
        if player == "I":
            loser = {(leaf[:i], m[:2]): 0 for leaf in leaves for i, m in enumerate(leaf)}
        else:
            least = lambda h: game.tree.children_labels(tuple(m[0] for m in h))[0]
            loser = {leaf[:i]: (least(leaf[:i]), 0) for leaf in leaves for i in range(len(leaf))}
        forged.append(Strategy("II" if player == "I" else "I", loser))
        for candidate in filter(None, forged):
            out += cls.outputs(game, candidate)
        return out

    @pytest.mark.parametrize("seed", range(12))
    def test_warmed_memos_change_no_output(self, seed):
        rng = random.Random(seed)
        if seed < 4:
            model = ModelSpace(epsilon=(HALF, Fraction(3, 4))[seed % 2], **W_SZLENK)
            game = build_szlenk_game(Ordinal(seed // 2 + 1), TruncationBudget(2), model)
        else:
            game = random_game(rng)
        fresh = game_from_json(json.loads(json.dumps(game_to_json(game))))
        _, oracle = product_tree_strategy(game)
        # the warmed game first meets the probes, the fresh game the pipeline
        probed = self.probes(game, oracle, random.Random(seed))
        if game.payoff == PAYOFF_SZLENK:
            assert game._steps and game._wins and not fresh._steps
        assert self.outputs(game) == self.outputs(fresh)
        assert self.probes(fresh, oracle, random.Random(seed)) == probed

    def test_pickle_and_copy_start_with_empty_memos(self):
        game = build_szlenk_game(ONE, TruncationBudget(3), ModelSpace(epsilon=HALF, **W_SZLENK))
        want = self.outputs(game)
        assert all(self.memos(game))
        for restore in (lambda g: pickle.loads(pickle.dumps(g)), copy.copy, copy.deepcopy):
            restored = restore(game)
            assert restored == game
            assert not any(self.memos(restored))
            assert self.outputs(restored) == want

    @pytest.mark.parametrize("seed", range(10))
    def test_results_do_not_depend_on_tuple_identity(self, seed):
        # a deep copy and a JSON read-back share no tuple with the game's
        # offer table; they verify and extract as the solver's own strategy
        rng = random.Random(seed)
        if seed < 2:
            eps = (HALF, Fraction(3, 4))[seed]
            game = build_szlenk_game(ONE, TruncationBudget(3), ModelSpace(epsilon=eps, **W_SZLENK))
        else:
            game = random_game(rng)
        _, strategy = solve(game)
        want = self.outputs(game, strategy)
        text = json.dumps(strategy_to_json(strategy))
        for other in (copy.deepcopy(strategy), strategy_from_json(text)):
            assert other == strategy and json.dumps(strategy_to_json(other)) == text
            assert set(map(id, other.moves)) & set(map(id, strategy.moves)) <= {id(())}
            assert self.outputs(game, other) == want
            # on a fresh game, the copy's walk builds the offer table
            fresh = game_from_json(json.loads(json.dumps(game_to_json(game))))
            assert self.outputs(fresh, other) == self.outputs(fresh, strategy) == want


class TestEdgeStates:
    """Plays whose states cannot win for II (no functionals: the sums are ();
    every selection set empty: the sums die to None) go through the solver,
    the verifier and the extractor alike, and a reply that is an int
    subclass counts as its int value."""

    NO_FUNCTIONALS = whole_space_model(functionals=())
    ALL_DEAD = ModelSpace(1, [[], ZERO_SUBSPACE_1D], [[["2"]], [["-3"]]], [["1"]], HALF)

    @pytest.mark.parametrize("model, states", [(NO_FUNCTIONALS, [()]), (ALL_DEAD, [(0,), None])],
                             ids=["no-functionals", "all-selection-sets-empty"])
    def test_player_one_wins_and_forged_ii_is_refused(self, model, states):
        game = build_szlenk_game(Ordinal(2), TruncationBudget(max_n=2), model)
        winner, strategy = solve(game)
        assert winner == "I"
        assert verify_strategy(game, strategy)
        assert game._states == states  # each distinct state numbered once
        leaves = maximal_histories(game)
        for ci in range(game.n_compacts):
            forged = Strategy("II", {(leaf[:i], m[:2]): ci for leaf in leaves for i, m in enumerate(leaf)})
            assert not verify_strategy(game, forged)
            with pytest.raises(ValueError, match="^strategy is not a verified win for Player II$"):
                extract_collections(game, forged)

    def test_int_enum_reply_counts_as_its_value(self):
        model = ModelSpace(epsilon=HALF, **W_SZLENK)
        Compact = enum.IntEnum("Compact", {"FIRST": 0, "SECOND": 1, "THIRD": 2})

        def fresh():
            return build_szlenk_game(ONE, TruncationBudget(max_n=3), model)

        winner, strategy = solve(fresh())
        assert winner == "II"
        as_enum = Strategy("II", {key: Compact(ci) for key, ci in strategy.moves.items()})
        # each on a fresh game, so that the enum replies key the new transitions
        game = fresh()
        assert verify_strategy(game, as_enum)
        got, want = extract_collections(game, as_enum), extract_collections(fresh(), strategy)
        assert got == want
        assert json.dumps(collections_to_json(got)) == json.dumps(collections_to_json(want))
        assert all(type(key) is int for key in game._steps)


class TestDeepChain:
    def test_walks_deeper_than_the_recursion_limit(self):
        # a single chain deeper than the recursion limit in force: solving,
        # verification, extraction and completion must not recurse once per move
        depth = 300
        labels = [Ordinal(k) for k in range(1, depth + 1)]
        tree = FiniteBTree.closure([tuple(labels)])
        weights = {node: Fraction(int(len(node) == 1)) for node in tree.nodes}
        game = GameSpec(tree, whole_space_model(), weights, PAYOFF_SZLENK)
        histories = [tuple((zeta, 0, 0) for zeta in labels[:i]) for i in range(depth)]
        psi = Strategy("II", {(h, (labels[i], 0)): 0 for i, h in enumerate(histories)})
        sub = Strategy("I", {h: (labels[i], 0) for i, h in enumerate(histories)})
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            solved = solve(game)
            assert verify_strategy(game, psi)
            collections = extract_collections(game, psi)
            total = complete_substrategy(game, sub, fallback_z=0)
        finally:
            sys.setrecursionlimit(limit)
        leaf = tuple((zeta, 0) for zeta in labels)
        assert collections.functionals == {leaf: (Fraction(1),)}
        assert len(collections.compact_choices) == len(collections.selections) == depth
        assert total.moves == sub.moves
        assert solved == ("II", psi)


class TestOutputIndependentOfObjects:
    @staticmethod
    def outputs(game):
        winner, strategy = solve(game)
        texts = [winner, json.dumps(strategy_to_json(strategy)), verify_strategy(game, strategy)]
        if winner == "II" and game.payoff == PAYOFF_SZLENK:
            texts.append(json.dumps(collections_to_json(extract_collections(game, strategy))))
        return texts, strategy

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_json_round_trip_gives_identical_output(self, rng):
        # the copy has fresh Ordinal labels and its own node set order; the
        # solver's internal node numbering must not show in any output
        game = random_game(rng)
        copy = game_from_json(json.loads(json.dumps(game_to_json(game))))
        texts, strategy = self.outputs(game)
        copy_texts, copy_strategy = self.outputs(copy)
        assert texts == copy_texts
        assert verify_strategy(game, copy_strategy) and verify_strategy(copy, strategy)
        want_winner, want = product_tree_strategy(copy)
        assert (strategy.player, strategy.moves) == (want_winner, want.moves)
        assert brute_force_winner(copy) == strategy.player
