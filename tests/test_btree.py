import copy
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_btrees, small_labels
from ordgames.btree import FiniteBTree, path_from_text, path_to_text, verify_monotone_map
from ordgames.ordinal import Ordinal

P = path_from_text


def chain(n: int) -> FiniteBTree:
    return FiniteBTree.closure([tuple(Ordinal(n - i) for i in range(n))]) if n else FiniteBTree()


class TestValidate:
    def test_examples(self):
        assert FiniteBTree([P("1")]).validate()
        assert FiniteBTree([P("2"), P("2,1")]).validate()
        assert not FiniteBTree([P("2,1")]).validate()

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            FiniteBTree([()])

    @given(finite_btrees())
    def test_closure_validates(self, tree):
        assert tree.validate()


class TestMaxNodes:
    def test_examples(self):
        assert FiniteBTree([P("1")]).max_nodes() == {P("1")}
        assert FiniteBTree([P("2"), P("2,1")]).max_nodes() == {P("2,1")}
        assert FiniteBTree().max_nodes() == frozenset()

    @given(finite_btrees())
    def test_max_nodes_have_rank_zero(self, tree):
        assert tree.max_nodes() == {t for t in tree.nodes if tree.rank(t) == 0}


    @pytest.mark.parametrize("path", ["", "2,2"])
    def test_is_max_names_the_missing_path(self, path):
        with pytest.raises(ValueError, match=f"^{path or 'the empty path'} is not a member$"):
            chain(3).is_max(P(path))


# node sets with no closure under prefixes, so that a node's parent may be missing
node_sets = st.lists(st.lists(small_labels, min_size=1, max_size=4).map(tuple), max_size=6).map(FiniteBTree)


class TestNodeOrderAndMaximality:
    """``__iter__`` holds the one sort of the nodes, which ``to_json`` follows,
    and ranks decide maximality, on node sets not closed under prefixes too."""

    @staticmethod
    def check(tree):
        ordered = sorted(tree.nodes)
        assert list(tree) == ordered
        assert tree.to_json()["nodes"] == [[str(label) for label in t] for t in ordered]
        leaves = {t for t in tree.nodes if not tree.children_labels(t)}
        assert {t for t in tree.nodes if tree.is_max(t)} == leaves == tree.max_nodes()

    def test_not_prefix_closed(self):
        tree = FiniteBTree([P("2,1"), P("1")])
        assert not tree.validate()
        assert list(tree) == [P("1"), P("2,1")]
        assert tree.to_json() == {"nodes": [["1"], ["2", "1"]]}
        assert tree.is_max(P("1")) and tree.is_max(P("2,1"))
        assert tree.max_nodes() == {P("1"), P("2,1")}
        self.check(tree)

    @given(finite_btrees())
    def test_trees(self, tree):
        self.check(tree)

    @given(node_sets)
    def test_node_sets(self, tree):
        self.check(tree)

    def test_nodes_cannot_be_assigned(self):
        tree = chain(2)
        with pytest.raises(AttributeError, match="^FiniteBTree is immutable$"):
            tree.nodes = frozenset()
        assert tree.nodes == {P("2"), P("2,1")}


class TestDerive:
    def test_examples(self):
        assert chain(3).derive() == FiniteBTree([P("3"), P("3,2")])
        assert chain(3).derive().order() == 2
        assert FiniteBTree([P("1")]).derive() == FiniteBTree()
        t3 = FiniteBTree([P("3"), P("3,2"), P("3,2,1")])
        assert t3.derive() == FiniteBTree([P("3"), P("3,2")])

    @given(finite_btrees())
    def test_derivative_is_smaller_valid_subtree(self, tree):
        derived = tree.derive()
        assert derived.nodes <= tree.nodes
        assert derived.validate()
        if tree.nodes:
            assert len(derived) < len(tree)


class TestOrder:
    def test_examples(self):
        assert FiniteBTree().order() == 0
        for n in range(1, 9):
            assert chain(n).order() == n

    def test_union_of_chains(self):
        # N chains sharing no nodes; longest has length N
        paths = [tuple(Ordinal(n - i) for i in range(n)) for n in range(1, 6)]
        tree = FiniteBTree.closure(paths)
        assert tree.order() == 5

    @given(finite_btrees())
    def test_matches_iterated_derivation(self, tree):
        assert tree.order() == tree.order_by_derivation()

    @given(finite_btrees())
    def test_derivative_drops_order_by_one(self, tree):
        if tree.nodes:
            assert tree.derive().order() == tree.order() - 1


class TestRank:
    def test_examples(self):
        t = chain(3)
        assert t.rank(P("3,2,1")) == 0
        assert t.rank(P("3")) == 2
        with pytest.raises(ValueError):
            t.rank(P("7"))

    @given(finite_btrees())
    def test_rank_is_order_of_strict_extension_subtree(self, tree):
        for t in tree.nodes:
            above = FiniteBTree(
                s[len(t):] for s in tree.nodes if len(s) > len(t) and s[: len(t)] == t
            )
            assert tree.rank(t) == above.order()

    @given(finite_btrees())
    def test_rank_via_survival(self, tree):
        # rank(t) is the last derivation stage containing t
        stages = []
        current = tree
        while current.nodes:
            stages.append(current.nodes)
            current = current.derive()
        for t in tree.nodes:
            assert tree.rank(t) == max(k for k, stage in enumerate(stages) if t in stage)


class TestMonotoneMap:
    def test_identity(self):
        t2 = FiniteBTree([P("2"), P("2,1")])
        assert verify_monotone_map(t2, t2, lambda s: s)

    def test_constant_map_fails(self):
        t2 = FiniteBTree([P("2"), P("2,1")])
        assert not verify_monotone_map(t2, t2, lambda s: P("2"))

    def test_embedding_t2_into_t3(self):
        t2 = FiniteBTree([P("2"), P("2,1")])
        t3 = FiniteBTree([P("3"), P("3,2"), P("3,2,1")])
        f = {P("2"): P("3"), P("2,1"): P("3,2")}
        assert verify_monotone_map(t2, t3, f)

    def test_range_outside_target_fails(self):
        t2 = FiniteBTree([P("2"), P("2,1")])
        assert not verify_monotone_map(t2, t2, lambda s: P("9") if len(s) == 1 else P("9,1"))

    @given(finite_btrees(), finite_btrees())
    def test_composition(self, s, t):
        # composing two verified maps (here identities into supersets) verifies
        union = FiniteBTree(s.nodes | t.nodes)
        assert verify_monotone_map(s, union, lambda p: p)
        assert verify_monotone_map(union, union, lambda p: p)


class TestJson:
    def test_format(self):
        tree = FiniteBTree([P("w"), P("w,1")])
        assert tree.to_json() == {"nodes": [["w"], ["w", "1"]]}

    @given(finite_btrees())
    def test_round_trip(self, tree):
        assert FiniteBTree.from_json(json.loads(json.dumps(tree.to_json()))) == tree

    def test_path_text_round_trip(self):
        assert path_to_text(P("w+1,3")) == "w+1,3"
        assert P("") == ()

    @settings(max_examples=50)
    @given(finite_btrees())
    def test_pickle_and_copy_round_trip(self, tree):
        for restore in (lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy, copy.copy):
            assert restore(tree) == tree


class TestJsonObjectReaders:
    @pytest.mark.parametrize("what", ["tree", "family", "budget", "game", "strategy"])
    def test_text_parsed_and_non_objects_rejected(self, what):
        from ordgames.families import budget_from_json, family_from_json
        from ordgames.games import game_from_json, strategy_from_json

        read, text = {
            "tree": (FiniteBTree.from_json, '{"nodes": [["1"]]}'),
            "family": (family_from_json, '{"kind": "T", "xi": "2"}'),
            "budget": (budget_from_json, '{"max_n": 2}'),
            "game": (game_from_json, None),
            "strategy": (strategy_from_json, '{"player": "I", "moves": {"": ["1", 0]}}'),
        }[what]
        if text is not None:
            assert read(text) == read(json.loads(text))
        for bad in ["[1]", "5", '"{}"', [1], 5]:
            with pytest.raises(ValueError, match=f"^a {what} must be a JSON object$"):
                read(bad)
