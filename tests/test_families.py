import collections
import copy
import functools
import itertools
import pickle
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from conftest import ordinals
from oracles import gamma1_members, gamma2_members_from_display, gamma_members, reference_walk, t_members
from ordgames import families
from ordgames.btree import FiniteBTree, path_from_text, verify_monotone_map
from ordgames.families import (
    TFamily,
    TruncationBudget,
    gamma_family,
    make_family,
    monotone_embedding,
    t_family,
)
from ordgames.ordinal import OMEGA, ONE, ZERO, Ordinal, OrdinalError, omega_pow, quot_rem_omega_pow, subtract_left

P = path_from_text
B = TruncationBudget

G0 = gamma_family(ZERO)
G1 = gamma_family(ONE)
G2 = gamma_family(Ordinal(2))
GW = gamma_family(OMEGA)


class TestBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            B(0)
        with pytest.raises(ValueError):
            B(1, max_depth=0)

    def test_value_semantics(self):
        budget = B(3)
        assert repr(budget) == "TruncationBudget(max_n=3, max_depth=512)"
        assert budget == B(max_n=3, max_depth=512) and budget != B(3, 9) and budget != (3, 512)
        assert hash(budget) == hash((3, 512)) and len({budget, B(3)}) == 1
        with pytest.raises(AttributeError):
            budget.max_n = 4
        with pytest.raises(TypeError):
            B(None)

    def test_pickle_and_copy_round_trip(self):
        budget = B(3, max_depth=9)
        for restore in (lambda b: pickle.loads(pickle.dumps(b)), copy.deepcopy, copy.copy):
            assert restore(budget) == budget and hash(restore(budget)) == hash(budget)

    @pytest.mark.parametrize("bad", [2.5, True, False, "3", None, 3.0])
    def test_rejects_what_is_not_an_int(self, bad):
        with pytest.raises(TypeError):
            B(bad)
        with pytest.raises(TypeError):
            B(2, max_depth=bad)

    def test_make_family(self):
        assert make_family("T", Ordinal(2)).member(P("2,1"))
        assert make_family("Gamma", ZERO).member(P("1"))
        for kind in ("X", ["T"], None):
            with pytest.raises(ValueError, match="unknown family kind"):
                make_family(kind, ZERO)

    def test_json_descriptors(self):
        from ordgames.families import budget_from_json, family_from_json, family_to_json

        family = family_from_json('{"kind": "Gamma", "xi": "w+1"}')
        assert family.kind == "Gamma" and family.xi == OMEGA + 1
        assert family_from_json(family_to_json(family)).xi == family.xi
        budget = budget_from_json('{"max_n": 3, "max_depth": 9}')
        assert budget == B(3, max_depth=9)
        assert budget_from_json('{"max_n": 2}') == B(2)

    @pytest.mark.parametrize("text", ["[1]", "5", '"T"', "null"])
    def test_family_descriptor_must_be_an_object(self, text):
        from ordgames.families import family_from_json

        with pytest.raises(ValueError, match="a family must be a JSON object"):
            family_from_json(text)


class TestGammaMembership:
    def test_base(self):
        assert G0.member(P("1"))
        assert not G0.member(P("2"))
        assert not G0.member(P("1,1"))
        assert not G0.member(())

    def test_gamma1_examples(self):
        assert G1.member(P("3,2"))
        assert not G1.member(P("2,2"))

    def test_gamma1_closed_form(self):
        members = gamma1_members(6)
        for length in range(1, 4):
            for path in itertools.product(range(7), repeat=length):
                candidate = tuple(Ordinal(k) for k in path)
                assert G1.member(candidate) == (candidate in members)

    def test_gamma2_matches_display_oracle(self):
        # exhaustive comparison over all short paths whose labels could occur
        # with outer parameter <= 3 and inner labels <= 3
        positives = gamma2_members_from_display(3)
        labels = [OMEGA * q + r for q in range(3) for r in range(1, 4)]
        for length in range(1, 5):
            for path in itertools.product(labels, repeat=length):
                assert G2.member(path) == (path in positives), path

    def test_gamma2_weight_closed_form(self):
        # weight is 1 / (outer parameter * inner parameter of the last block);
        # the inner parameter is the remainder of the last block's first label
        def split(label):
            q, r = quot_rem_omega_pow(label, ONE, remainder_in_half_open_above=True)
            return q.as_int(), r.as_int()

        for path in sorted(gamma2_members_from_display(3)):
            quotients = [split(label)[0] for label in path]
            n = quotients[0] + 1
            block_start = quotients.index(quotients[-1])
            k = split(path[block_start])[1]
            assert G2.weight(path) == Fraction(1, n * k)

    def test_gamma2_block_structure(self):
        assert G2.member(P("w+2,w+1,3,2,1"))
        assert G2.member(P("w+3"))
        # first block must be maximal before a new block opens
        assert not G2.member(P("w+2,3"))
        # quotients must descend by exactly one
        assert not G2.member(P("w*2+1,1"))
        # labels must carry a finite block index
        assert not G2.member(P("w^2"))

    def test_gamma_limit(self):
        assert GW.member(P("2"))          # shifted Gamma_1 component
        assert GW.member(P("3,2"))
        assert GW.member(P("w+1"))        # shifted Gamma_2 component
        assert GW.member(P("w*2+2,w*2+1,w+3,w+2,w+1"))
        assert not GW.member(P("1"))      # 1 is below every shifted component
        assert not GW.member(P("w"))      # exact powers fall between components
        assert not GW.member(P("w^(w)"))
        # the shift applies to every label, so unshifted tails do not qualify
        assert not GW.member(P("w+2,w+1,3,2,1"))

    def test_member_of_bigger_limit(self):
        gw2 = gamma_family(Ordinal("w*2"))
        # first label leading exponent picks the component
        assert gw2.member(P("w^(w+1)+w+1"))
        assert not gw2.member(P("w^(w*2)+2"))

    def test_limit_scanner_matches_component_sweep(self):
        # candidate restriction vs trying every offset below the index
        import random

        from ordgames.ordinal import OrdinalError, subtract_left

        def sweep_member(path):
            for zeta in range(7):
                unit = omega_pow(Ordinal(zeta))
                try:
                    stripped = tuple(subtract_left(unit, label) for label in path)
                except OrdinalError:
                    continue
                if gamma_family(Ordinal(zeta) + 1).member(stripped):
                    return True
            return False

        rng = random.Random(77)
        pool = [Ordinal(k) for k in range(0, 9)] + [
            OMEGA, OMEGA + 1, OMEGA + 2, OMEGA * 2 + 1, OMEGA * 2 + 2,
            omega_pow(2), omega_pow(2) + 1, omega_pow(2) + OMEGA + 1,
        ]
        for _ in range(400):
            path = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
            assert GW.member(path) == sweep_member(path)


class TestTMembership:
    def test_finite(self):
        t2 = t_family(Ordinal(2))
        assert t2.member(P("2")) and t2.member(P("2,1"))
        assert not t2.member(P("1"))
        assert not t2.member(P("2,2"))
        assert not t_family(ZERO).member(P("1"))

    def test_limit(self):
        tw = t_family(OMEGA)
        assert tw.member(P("3,2,1"))
        assert not tw.member(P("3,1"))
        assert not tw.member(P("w"))
        t_big = t_family(OMEGA * 2)
        assert t_big.member(P("w+1,3,2,1"))
        assert not t_big.member(P("w,3"))


class TestTOracle:
    @staticmethod
    def assert_labels_below(labels, index, budget):
        # what the definition allows one step below a node whose subtree is T at index
        if index.is_limit:
            assert len(labels) == budget.max_n and labels == sorted(set(labels))
            assert all(mu.is_successor and mu < index for mu in labels)
        else:
            assert labels == ([index] if index.is_successor else [])

    @settings(max_examples=60, deadline=None)
    @given(ordinals(height=1), st.lists(ordinals(height=1), max_size=4))
    def test_matches_top_down_construction(self, xi, pool):
        # finite, successor and limit indices below w^w; every member whose
        # labels lie in the universe is built, so every other path over the
        # universe must be rejected
        family, budget = t_family(xi), B(3)
        seed = t_members(xi, pool, max_len=4)
        universe = sorted(set(pool) | {xi} | {label for path in seed for label in path})[:7]
        built = t_members(xi, universe, max_len=4)
        self.assert_labels_below(family.children((), budget), xi, budget)
        for path, (rank, maximal) in built.items():
            assert family.member(path)
            assert family.rank(path) == rank
            assert family.is_maximal(path) is maximal
            self.assert_labels_below(family.children(path, budget), rank, budget)
        for length in range(4):
            for path in itertools.product(universe, repeat=length):
                assert family.member(path) == (path in built), path
                if path not in built:
                    with pytest.raises(ValueError):
                        family.is_maximal(path)


class TestGammaOracle:
    INDICES = [ZERO, ONE, Ordinal(2), Ordinal(3), OMEGA, OMEGA + 1, OMEGA + 2, OMEGA * 2]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(INDICES), st.integers(1, 3), st.integers(1, 4), st.data())
    def test_matches_top_down_construction(self, xi, max_n, max_len, data):
        # finite, successor and limit indices up to w*2; a member with labels
        # in the universe of the built members has block parameters <= max_n,
        # so every other path over a sample of that universe must be rejected
        max_n = max_n if xi.is_finite else min(max_n, 2)
        family, budget = gamma_family(xi), B(max_n)
        built = gamma_members(xi, max_n, max_len)
        below = {}
        for path in built:
            below.setdefault(path[:-1], set()).add(path[-1])
        assert family.children((), budget) == sorted(below[()])
        for path, (rank, maximal, weights) in built.items():
            assert family.member(path)
            assert family.rank(path) == rank
            assert family.is_maximal(path) is maximal
            assert family.prefix_weights(path) == weights
            if len(path) < max_len:
                assert family.children(path, budget) == sorted(below.get(path, ()))
        universe = sorted({label for path in built for label in path})
        sample = data.draw(st.lists(st.sampled_from(universe), max_size=5, unique=True))
        for length in range(max_len + 1):
            for path in itertools.product(sample, repeat=length):
                assert family.member(path) == (path in built), path
                if path not in built:
                    with pytest.raises(ValueError):
                        family.is_maximal(path)


# (family, largest max_n, largest max_depth or None): a few hundred nodes
# at most (Gamma_3 and Gamma_w at max_n 3 have over 170,000); finite,
# successor and limit indices
WALK_CASES = [
    (gamma_family(ZERO), 3, None),
    (gamma_family(ONE), 3, None),
    (gamma_family(Ordinal(2)), 3, None),
    (gamma_family(Ordinal(3)), 2, None),
    (gamma_family(OMEGA), 2, None),
    (gamma_family(OMEGA + 1), 2, None),
    (gamma_family(OMEGA * 2), 2, 3),
    (gamma_family(omega_pow(OMEGA)), 2, None),
    (t_family(Ordinal(5)), 3, None),
    (t_family(OMEGA * 2 + 3), 3, None),
    (t_family(OMEGA * 3), 3, None),
    (t_family(omega_pow(2)), 3, None),
    (t_family(omega_pow(OMEGA) + OMEGA), 3, None),
]


@st.composite
def walks(draw):
    """A family and a budget, with or without a max_depth cut-off."""
    family, top_n, top_depth = draw(st.sampled_from(WALK_CASES))
    max_n = draw(st.integers(1, top_n))
    max_depth = draw(st.one_of(st.none(), st.integers(1, 5)))
    if top_depth is not None:
        max_depth = min(max_depth or top_depth, top_depth)
    return family, B(max_n) if max_depth is None else B(max_n, max_depth=max_depth)


class TestWalk:
    """The walk carries each node's state down from its parent's and asks
    ``_below`` once per distinct state; it must give every node the state a
    point query gets, and the nodes and branches of a walk that asks
    ``children``/``is_maximal`` per path."""

    @settings(max_examples=40, deadline=None)
    @given(walks())
    def test_matches_point_queries(self, walk):
        family, budget = walk
        walked = list(family._walk(budget))
        for path, state in walked:
            assert state == family._read(path)[-1], path
        nodes, branches = reference_walk(family, budget)
        assert [path for path, _ in walked] == nodes
        assert family.truncate(budget) == FiniteBTree(nodes)
        assert list(family.maximal_branches(budget)) == branches
        if family.kind == "Gamma":
            assert family.node_weights(budget) == {path: family.weight(path) for path in nodes}
            assert list(family.weighted_branches(budget)) == [(b, family.prefix_weights(b)) for b in branches]

    @settings(max_examples=20, deadline=None)
    @given(walks())
    def test_adds_no_step_table_or_entry(self, walk):
        # a walk may intern readings and name families in the memo, but no
        # step table; start from an empty memo, so that no clear can fall
        # within the walks, and give the tables some labels to keep
        family, budget = walk
        _forget_readings()
        for path, _ in itertools.islice(family._walk(budget), 5):
            family.member(path + path[-1:])
        before = _tables_state()
        assert before
        family.truncate(budget)
        list(family.maximal_branches(budget))
        if family.kind == "Gamma":
            family.node_weights(budget)
            list(family.weighted_branches(budget))
        assert _tables_state() == before

    @pytest.mark.parametrize(
        "family, nodes, calls",
        [(t_family(omega_pow(3)), 498, 16), (gamma_family(Ordinal(2)), 108, 37)],
    )
    def test_expands_each_distinct_state_once(self, family, nodes, calls, monkeypatch):
        # the root, then one call per distinct state walked: T_w^(3) repeats
        # the chains below each label, Gamma_2 the blocks of Gamma_1
        states = []
        below = family._below
        monkeypatch.setattr(family, "_below", lambda state, budget: states.append(state) or below(state, budget))
        walked = [state for _, state in family._walk(B(3))]
        assert len(walked) == nodes
        assert len(states) == calls == 1 + len(set(walked))
        assert states[0] is None

    def test_t_family(self):
        for xi in (Ordinal(5), OMEGA * 2 + 3, omega_pow(2)):
            family, budget = t_family(xi), B(3)
            nodes, branches = reference_walk(family, budget)
            assert [path for path, _ in family._walk(budget)] == nodes
            assert list(family.maximal_branches(budget)) == branches


class TestDeepT:
    def test_deeper_than_the_recursion_limit(self):
        # truncation, branches and per-path queries must not recurse per label
        chain = tuple(Ordinal(k) for k in range(400, 0, -1))
        deep = tuple(Ordinal(k) for k in range(3000, 0, -1))
        t400, t3000 = t_family(Ordinal(400)), t_family(Ordinal(3000))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            tree = t400.truncate(B(4))
            branches = list(t400.maximal_branches(B(4)))
            queries = (
                t3000.member(deep),
                t3000.rank(deep),
                t3000.is_maximal(deep),
                t3000.children(deep, B(4)),
                t3000.children(deep[:-1], B(4)),
                monotone_embedding(Ordinal(2999), Ordinal(3000))(deep[1:]),
            )
        finally:
            sys.setrecursionlimit(limit)
        assert tree == FiniteBTree.closure([chain])
        assert branches == [chain]
        assert queries == (True, ZERO, True, [], [ONE], deep[:-1])


class TestLongGammaPath:
    def test_reads_in_memory_independent_of_length(self):
        # a point read steps one label at a time; what it keeps per label
        # must not grow with the path, or a long path costs its square
        chain = tuple(Ordinal(k) for k in range(3000, 0, -1))
        swapped = chain[:-2] + (chain[-1], chain[-2])
        tracemalloc.start()
        try:
            queries = (
                G1.member(chain),
                G1.weight(chain),
                G1.branch_weight_sum(chain),
                G1.rank(chain),
                G1.member(swapped),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert queries == (True, Fraction(1, 3000), (Fraction(1), True), ZERO, False)
        assert peak < 8 * 2**20, peak


class TestDeepGamma:
    def test_walks_a_deep_finite_index(self):
        # _below recurses once per index level, so a cache wrapped around it
        # would add a frame per level and halve the depth a walk reaches
        assert gamma_family(Ordinal(700)).truncate(B(1)) == FiniteBTree.closure([(ONE,)])


class TestChildren:
    def test_gamma1(self):
        assert G1.children((), B(3)) == [ONE, Ordinal(2), Ordinal(3)]
        assert G1.children(P("3,2"), B(3)) == [ONE]
        assert G1.children(P("3,2,1"), B(3)) == []

    def test_t2(self):
        t2 = t_family(Ordinal(2))
        assert t2.children(P("2"), B(5)) == [ONE]
        assert t2.children((), B(5)) == [Ordinal(2)]

    def test_error_on_non_member(self):
        with pytest.raises(ValueError):
            G1.children(P("2,2"), B(3))

    def test_consistent_with_member(self):
        budget = B(4)
        for family in (G1, G2, GW, t_family(OMEGA), t_family(Ordinal(3))):
            frontier = [()]
            for _ in range(3):
                next_frontier = []
                for node in frontier:
                    for label in family.children(node, budget):
                        child = node + (label,)
                        assert family.member(child)
                        next_frontier.append(child)
                frontier = next_frontier[:8]

    def test_finite_branching_is_complete(self):
        # within the Gamma_1 component every non-root branching is finite:
        # scan all candidate labels and compare against children
        budget = B(8)
        node = P("4,3")
        kids = set(G1.children(node, budget))
        for candidate in range(0, 9):
            label = Ordinal(candidate)
            assert (label in kids) == G1.member(node + (label,))


class TestMaximality:
    def test_examples(self):
        assert G1.is_maximal(P("3,2,1"))
        assert not G1.is_maximal(P("3,2"))
        assert G0.is_maximal(P("1"))
        assert GW.is_maximal(P("3,2"))        # shifted (2,1) is maximal in Gamma_1
        # strips to (2,1), a complete single-block member of the next stage
        assert GW.is_maximal(P("w+2,w+1"))
        assert not GW.is_maximal(P("w*2+1"))  # strips to w+1: block 1 of 2

    def test_t_families(self):
        assert t_family(Ordinal(2)).is_maximal(P("2,1"))
        assert not t_family(Ordinal(2)).is_maximal(P("2"))
        assert t_family(ONE).is_maximal(P("1"))

    def test_error_on_non_member(self):
        with pytest.raises(ValueError):
            G1.is_maximal(P("2,2"))


class TestWeights:
    def test_examples(self):
        assert G0.weight(P("1")) == 1
        assert G1.weight(P("3,2")) == Fraction(1, 3)
        assert G2.weight(P("w+3,w+2,w+1")) == Fraction(1, 6)

    def test_branch_sums(self):
        assert G0.branch_weight_sum(P("1")) == (Fraction(1), True)
        assert G1.branch_weight_sum(P("3,2,1")) == (Fraction(1), True)
        assert G1.branch_weight_sum(P("3,2")) == (Fraction(2, 3), False)

    def test_prefix_weights(self):
        assert G1.prefix_weights(P("3,2,1")) == (Fraction(1, 3),) * 3
        assert G2.prefix_weights(P("w+2,w+1,3,2,1")) == (
            Fraction(1, 4),
            Fraction(1, 4),
            Fraction(1, 6),
            Fraction(1, 6),
            Fraction(1, 6),
        )

    def test_prefix_weights_match_pointwise(self):
        path = P("w+2,w+1,3,2,1")
        assert G2.prefix_weights(path) == tuple(
            G2.weight(path[: i + 1]) for i in range(len(path))
        )

    def test_error_on_non_member(self):
        with pytest.raises(ValueError):
            G1.weight(P("2,2"))

    def test_positive_and_bounded(self):
        for branch in itertools.islice(G2.maximal_branches(B(3)), 50):
            for w in G2.prefix_weights(branch):
                assert 0 < w <= 1


class TestEnumeration:
    def test_gamma1(self):
        assert list(G1.maximal_branches(B(3))) == [P("1"), P("2,1"), P("3,2,1")]

    def test_gamma0_and_t2(self):
        assert list(G0.maximal_branches(B(1))) == [P("1")]
        assert list(t_family(Ordinal(2)).maximal_branches(B(7))) == [P("2,1")]

    def test_gamma2_complete_enumeration(self):
        branches = list(G2.maximal_branches(B(3)))
        # blocks chosen independently: sum over n <= 3 of 3^n branches
        assert len(branches) == 3 + 9 + 27
        assert len(set(branches)) == len(branches)
        for branch in branches:
            total, complete = G2.branch_weight_sum(branch)
            assert complete and total == 1

    def test_limit_sample_sums(self):
        for branch in itertools.islice(GW.maximal_branches(B(3)), 200):
            total, complete = GW.branch_weight_sum(branch)
            assert complete and total == 1

    def test_depth_cap_never_yields_pseudo_leaves(self):
        branches = list(G1.maximal_branches(B(5, max_depth=2)))
        assert branches == [P("1"), P("2,1")]
        for branch in branches:
            assert G1.is_maximal(branch)


class TestTruncation:
    def test_gamma1_order(self):
        for n in range(1, 7):
            tree = G1.truncate(B(n))
            assert tree.validate()
            assert tree.order() == n

    def test_t_chains(self):
        for n in range(0, 9):
            tree = t_family(Ordinal(n)).truncate(B(2))
            assert len(tree) == n and tree.order() == n

    def test_gamma0(self):
        assert G0.truncate(B(4)) == FiniteBTree([P("1")])

    def test_all_nodes_are_members(self):
        tree = GW.truncate(B(2, max_depth=6))
        assert tree.validate()
        for node in tree.nodes:
            assert GW.member(node)


class TestSymbolicRank:
    def test_gamma1_chain_positions(self):
        for n in range(1, 6):
            for m in range(1, n + 1):
                path = tuple(Ordinal(n - i) for i in range(m))
                assert G1.rank(path) == Ordinal(n - m)

    def test_examples(self):
        assert G0.rank(P("1")) == ZERO
        assert t_family(Ordinal(5)).rank(P("5,4")) == Ordinal(3)
        assert G2.rank(P("w+2,w+1")) == OMEGA
        assert G2.rank(P("w*2+1")) == OMEGA * 2

    def test_limit_delegates_to_component(self):
        assert GW.rank(P("3,2")) == G1.rank(P("2,1"))
        assert GW.rank(P("w+1")) == G2.rank(P("1"))

    def test_matches_btree_rank_when_subtree_finite(self):
        tree = G1.truncate(B(6))
        for node in tree.nodes:
            assert G1.rank(node) == Ordinal(tree.rank(node))
        t5 = t_family(Ordinal(5))
        tree5 = t5.truncate(B(2))
        for node in tree5.nodes:
            assert t5.rank(node) == Ordinal(tree5.rank(node))

    def test_dominates_btree_rank_on_truncations(self):
        tree = G2.truncate(B(3))
        for node in tree.nodes:
            assert G2.rank(node) >= tree.rank(node)

    def test_root_ranks_realize_order(self):
        # root ranks n-1 in the Gamma_1 truncation; sup + 1 is the window size
        tree = G1.truncate(B(5))
        assert max(tree.rank((r,)) for r in tree.roots()) + 1 == 5


class TestDeepIndices:
    def test_gamma_above_limit_roots(self):
        # successor stage over a limit: blocks over Gamma_w with unit w^w
        family = gamma_family(OMEGA + 1)
        roots = family.root_labels(B(2))
        assert Ordinal("w^(w)+2") in roots       # n = 2 block offset
        assert Ordinal("w*2+1") in roots         # Gamma_w root inside block 1
        for branch in itertools.islice(family.maximal_branches(B(2)), 12):
            assert family.branch_weight_sum(branch) == (Fraction(1), True)

    def test_gamma_limit_of_limits(self):
        family = gamma_family(omega_pow(2))
        assert family.member(P("w^(w)+3,w^(w)+2"))
        assert not family.member(P("w^(w)"))
        for branch in itertools.islice(family.maximal_branches(B(2)), 6):
            assert family.branch_weight_sum(branch) == (Fraction(1), True)

    def test_t_omega_squared(self):
        family = t_family(omega_pow(2))
        assert family.root_labels(B(4)) == [
            ONE,
            OMEGA + 1,
            OMEGA * 2 + 1,
            OMEGA * 3 + 1,
        ]
        assert family.member(P("w+1,3,2,1"))
        assert family.member(P("w*2+1,w+1"))
        assert not family.member(P("w,3"))
        assert family.rank(P("w*2+1")) == OMEGA * 2


class TestBlockRoundTrip:
    @given(st.integers(1, 4), st.data())
    def test_reassembly(self, max_n, data):
        # parse each label of a sampled member and reassemble it exactly
        family = G2
        branches = list(itertools.islice(family.maximal_branches(B(max_n)), 30))
        branch = data.draw(st.sampled_from(branches))
        sigma = ONE
        for label in branch:
            q, r = quot_rem_omega_pow(label, sigma, remainder_in_half_open_above=True)
            assert omega_pow(sigma) * q.as_int() + r == label


# CNF ordinals below w^(w)*3, and exponents below w^(w)
_BELOW_W_W_3 = st.builds(lambda c, rest: omega_pow(OMEGA) * c + rest, st.integers(0, 2), ordinals(height=1))
_EXPONENTS = st.one_of(st.sampled_from([ZERO, ONE, OMEGA, OMEGA + 1]), ordinals(height=1, max_terms=2))


class TestTermReadings:
    """Gamma labels are split, stripped, built and ranked by reading and
    concatenating CNF terms; each reading agrees with the general arithmetic."""

    @given(_BELOW_W_W_3.filter(bool), _EXPONENTS)
    def test_split(self, label, sigma):
        try:
            q, r = quot_rem_omega_pow(label, sigma, remainder_in_half_open_above=True)
            expected = q.as_int(), r
        except OrdinalError:
            expected = None, label
        assert gamma_family(sigma + 1)._split(label) == expected

    @given(_BELOW_W_W_3.filter(bool), _EXPONENTS)
    def test_strip(self, label, zeta):
        try:
            expected = subtract_left(omega_pow(zeta), label) or None
        except OrdinalError:
            expected = None
        assert gamma_family(zeta + 1)._strip(label) == expected

    @given(_BELOW_W_W_3.filter(bool), _EXPONENTS, st.integers(0, 4))
    def test_shift(self, r, above, q):
        sigma = r.leading_exponent + above  # so r leads with an exponent <= sigma
        label = gamma_family(sigma + 1)._label(q, r)
        assert label == omega_pow(sigma) * q + r
        assert Ordinal(list(label)) == label  # canonical CNF

    @settings(max_examples=60)
    @given(st.sampled_from(["1", "2", "3", "w", "w+1", "w*2", "w^2", "w^2+2"]), st.data())
    def test_rank(self, xi, data):
        family = gamma_family(Ordinal(xi))
        nodes = [path for path, _ in itertools.islice(family._walk(B(2)), 400)]
        path = data.draw(st.sampled_from(nodes))
        # the sum of omega^sigma * q over the index levels, outermost first
        level, reading, rank = family, family._states(path)[-1], ZERO
        while not level.xi.is_zero:
            if level.xi.is_successor:
                q, reading, _ = reading.inner
                rank = rank + omega_pow(level.xi.pred()) * q
                level = gamma_family(level.xi.pred())
            else:
                level, reading = reading.inner
        assert family.rank(path) == rank


class TestLabelsReadAsOrdinals:
    """A path's labels are read as ``Ordinal`` reads them before they meet
    the step tables: ints and CNF text name the same ordinals on every
    family, a label ``Ordinal`` cannot read is no member, and no answer
    depends on an earlier query."""

    @pytest.mark.parametrize("family, label, unreadable", [(G2, 2, 2.0), (G1, 1, True), (t_family(ONE), 1, 1.0)])
    @pytest.mark.parametrize("readable_first", [True, False])
    def test_answers_do_not_depend_on_the_query_order(self, family, label, unreadable, readable_first):
        _forget_readings()
        if readable_first:
            assert family.member((label,)) and not family.member((unreadable,))
        else:  # (label,) == (unreadable,), so a cache keyed by raw labels answered False here
            assert not family.member((unreadable,)) and family.member((label,))

    @pytest.mark.parametrize("family", [t_family(Ordinal(3)), G2, GW], ids=["T_3", "Gamma_2", "Gamma_w"])
    def test_int_and_text_labels(self, family):
        for path, _ in itertools.islice(family._walk(B(3)), 200):
            for read in (lambda label: label.as_int() if label.is_finite else label, str):
                other = tuple(read(label) for label in path)
                assert family.member(other) and family.rank(other) == family.rank(path)
                assert family.is_maximal(other) == family.is_maximal(path)

    @pytest.mark.parametrize("label", [1.5, "x", None, -1, [(ZERO, 0)]])
    def test_unreadable_labels_are_no_members(self, label):
        for family in (t_family(Ordinal(3)), G1, G2, GW):
            assert not family.member((label,))
            with pytest.raises(ValueError, match="is not a member"):
                family.rank((label,))


def _forget_readings():
    """Empty the memo: its families, interned readings and step tables."""
    families._MEMO.clear()
    families._memo_size = 0


def _tables_state():
    """Every step table's labels, by key."""
    return {key: list(table) for key, table in families._MEMO.items() if type(table) is dict}


def _memo_held():
    """The families, readings, tables, table entries, children lists and list
    pairs that the memo holds now."""
    return len(families._MEMO) + sum(len(value) for value in families._MEMO.values() if type(value) in (dict, list))


def _bound_memo(patch, bound):
    """Bound the memo at ``bound``."""
    patch.setattr(families, "_MEMO_MAX", bound)


def _memo_within_bound():
    """Whether the memo holds no more than it counts, and counts no more than its bound."""
    return _memo_held() <= families._memo_size <= families._MEMO_MAX


# Gamma at finite, limit and successor-of-limit indices, with the max_n of
# the walks whose nodes are queried
READ_CASES = [(gamma_family(Ordinal(xi)), n) for xi, n in (("1", 4), ("2", 3), ("w", 2), ("w+1", 2), ("w*2", 2))]


@functools.lru_cache(maxsize=None)
def _read_nodes(family, n):
    return [path for path, _ in family._walk(B(n))]


def _rank_by_levels(family, reading):
    """The rank of ``reading`` in ``family``: the sum of omega^sigma * q over
    the index levels, outermost first, read through ``inner``."""
    rank = ZERO
    while not family.xi.is_zero:
        if family.xi.is_successor:
            q, reading, _ = reading.inner
            rank, family = rank + omega_pow(family.xi.pred()) * q, gamma_family(family.xi.pred())
        else:
            family, reading = reading.inner
    return rank


# T and Gamma at finite, successor, limit and successor-of-limit indices,
# with the max_n of the walks whose nodes are queried, and labels that no
# walk below reaches at its position
FOLD_CASES = [(t_family(Ordinal(xi)), n) for xi, n in (("3", 2), ("w", 3), ("w+1", 3), ("w*2+3", 3), ("w^2", 2))] + READ_CASES
FOLD_LABELS = [Ordinal(text) for text in ("0", "1", "2", "w", "w+1", "w^2", "w^2+2", "w^(w)", "w^(w)+2", "w^(w+1)*3")]


def _draw_paths(data, case):
    """A walked member of ``case``'s family, and paths that share a prefix of
    it (none, at times) and go on by labels of its walk or of FOLD_LABELS."""
    family, n = case
    nodes = _read_nodes(family, n)
    labels = sorted({label for path in nodes for label in path} | set(FOLD_LABELS))
    node = data.draw(st.sampled_from(nodes))
    cut = data.draw(st.integers(0, len(node)))
    tails = st.lists(st.sampled_from(labels), max_size=2).map(tuple)
    return [node] + [node[:cut] + tail for tail in data.draw(st.lists(tails, min_size=1, max_size=4))]


def _uncached_read(family, path):
    """``_Family._read`` folding ``_step`` with no step table."""
    states, state = [], None
    for label in path:
        state = family._step(state, label)
        if state is None:
            return []
        states.append(state)
    return states


def _point_answers(family, path):
    """None for a non-member, whose other point queries raise; else its
    maximality, rank, and weight in Gamma."""
    if not family.member(path):
        queries = [family.is_maximal, family.rank] + ([family.weight] if family.kind == "Gamma" else [])
        for query in queries:
            with pytest.raises(ValueError, match="is not a member"):
                query(path)
        return None
    return family.is_maximal(path), family.rank(path), family.weight(path) if family.kind == "Gamma" else None


class TestInternedReadings:
    """A Gamma reading is interned: one object per reading, compared and
    hashed by identity.  The families, the readings and the step tables
    share one memo, bounded by ``_MEMO_MAX`` (131,072) in all and cleared
    when full.  No answer depends on which reading or family is which
    object, nor on what the memo holds."""

    @pytest.fixture(autouse=True)
    def fresh_tables(self):
        # a query that reads on across a clear fills tables the memo has
        # forgotten; start and leave every test with an empty memo
        _forget_readings()
        yield
        _forget_readings()

    @pytest.mark.parametrize(
        "family, max_n",
        [
            (t_family(OMEGA * 2 + 3), 3),
            (t_family(omega_pow(2)), 3),
            (G2, 3),
            (gamma_family(OMEGA + 1), 2),
            (GW, 2),
            (gamma_family(omega_pow(2)), 2),
        ],
        ids=["T_w*2+3", "T_w^2", "Gamma_2", "Gamma_w+1", "Gamma_w", "Gamma_w^2"],
    )
    def test_the_walk_yields_the_read_objects(self, family, max_n):
        walked = list(family._walk(B(max_n)))
        assert len(walked) > 10
        for path, state in walked:
            assert state is family._read(path)[-1], path

    def test_one_reading_at_index_0(self):
        zero = families._GAMMA_0
        assert G0._read(P("1")) == (zero,) and G0._below(None, B(3)) == [(ONE, zero)]
        _forget_readings()
        assert G0._read(P("1"))[0] is zero and G1._read(P("1"))[0].inner[1] is zero
        # a reading equal in value but not interned is another reading
        assert families._Reading(True, 1, ()) != zero

    def test_readings_are_read_only(self):
        reading = G2._read(P("2"))[-1]
        for name, value in (("maximal", False), ("denominator", 3), ("inner", ()), ("weight", Fraction(1, 3)), ("x", 1)):
            with pytest.raises(AttributeError):
                setattr(reading, name, value)
        assert (reading.maximal, reading.denominator, reading.weight) == (False, 2, Fraction(1, 2))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(READ_CASES), st.data())
    def test_answers_do_not_depend_on_the_query_order_across_a_clear(self, case, data):
        family, n = case
        nodes = data.draw(st.lists(st.sampled_from(_read_nodes(family, n)), min_size=1, max_size=5))

        def answers(path):
            repeated = path + path[-1:]  # no Gamma member repeats a label
            return (family.member(path), family.member(repeated), family.is_maximal(path),
                    family.rank(path), family.weight(path), family.children(path, B(n)))

        before = [answers(path) for path in nodes]
        _forget_readings()
        assert [answers(path) for path in reversed(nodes)][::-1] == before
        assert not any(member for _, member, *_ in before)

    @pytest.mark.parametrize("case", READ_CASES, ids=[f"Gamma_{family.xi}" for family, _ in READ_CASES])
    def test_a_small_table_gives_the_same_walks(self, case, monkeypatch):
        family, n = case
        budget = B(n)
        expected = family.truncate(budget), family.node_weights(budget), list(family.weighted_branches(budget))
        _forget_readings()
        monkeypatch.setattr(families, "_MEMO_MAX", 8)
        sizes = []
        for _ in family._walk(budget):
            assert _memo_within_bound()
            sizes.append(families._memo_size)
        assert any(b < a for a, b in zip(sizes, sizes[1:]))  # cleared mid-walk
        branches = list(family.weighted_branches(budget))
        assert (family.truncate(budget), family.node_weights(budget), branches) == expected
        assert [(path, family.prefix_weights(path)) for path, _ in branches] == expected[2]
        assert _memo_within_bound()

    @pytest.mark.parametrize("case", READ_CASES, ids=[f"Gamma_{family.xi}" for family, _ in READ_CASES])
    def test_a_small_table_gives_the_same_ranks(self, case, monkeypatch):
        family, n = case
        nodes = _read_nodes(family, n)
        expected = [family.rank(path) for path in nodes]
        _forget_readings()
        monkeypatch.setattr(families, "_MEMO_MAX", 8)
        ranks, sizes = [], []
        for path in nodes:
            ranks.append(family.rank(path))
            assert _memo_within_bound()
            sizes.append(families._memo_size)
        assert any(b < a for a, b in zip(sizes, sizes[1:]))  # cleared between queries
        assert ranks == expected

    def test_a_reading_fixes_its_subtree_in_every_family(self):
        # these two nodes' readings have equal inners, but not equal ranks
        nodes = [(gamma_family(OMEGA + 1), "w^(w)"), (gamma_family(OMEGA * 2 + 1), "w^(w*2)")]
        for order in (nodes, nodes[::-1]):
            _forget_readings()
            first, second = (family._read(P(f"{rank}+2"))[-1] for family, rank in order)
            assert first is not second and first.inner == second.inner
            assert [family.rank(P(f"{rank}+2")) for family, rank in order] == [Ordinal(rank) for _, rank in order]
        # every reading reached below the roots at max_n 2, in its family and,
        # through its inner, in the family one index level down
        reached = {}
        for xi in (OMEGA + 1, OMEGA * 2 + 1, omega_pow(2) + 1):
            top = gamma_family(xi)
            todo = [(top, reading) for _, reading in top._below(None, B(2))]
            while todo:
                family, reading = todo.pop()
                if family in reached.setdefault(reading, set()):
                    continue
                reached[reading].add(family)
                todo += [(family, child) for _, child in family._below(reading, B(2))]
                if family.xi.is_successor:
                    todo.append((gamma_family(family.xi.pred()), reading.inner[1]))
                elif family.xi.is_limit:
                    todo.append(reading.inner)
        shared = {reading: fams for reading, fams in reached.items() if len(fams) > 1}
        assert len(shared) > 10
        for reading, fams in shared.items():
            assert len({tuple(label for label, _ in family._below(reading, B(2))) for family in fams}) == 1
            assert {_rank_by_levels(family, reading) for family in fams} == {reading.rank}

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(FOLD_CASES), st.sampled_from(["cold", "warm", "bound 8"]), st.data())
    def test_the_tables_answer_as_the_uncached_step(self, case, tables, data):
        family, n = case
        paths = _draw_paths(data, case)
        before, scratch = _tables_state(), {}
        with pytest.MonkeyPatch.context() as patch:
            # every table a fresh one, that nothing keeps: each label, at
            # every index level, is stepped by ``_step``; the readings and
            # families go to a scratch memo
            patch.setattr(families._Family, "_read", _uncached_read)
            patch.setattr(families, "_table", lambda key: {})
            patch.setattr(families, "_MEMO", scratch)
            patch.setattr(families, "_memo_size", 0)
            expected = [_point_answers(family, path) for path in paths]
        assert _tables_state() == before and expected[0] is not None
        assert not any(type(value) is dict for value in scratch.values())
        with pytest.MonkeyPatch.context() as patch:
            if tables == "warm":  # by another family's queries, then by these
                other = data.draw(st.sampled_from(FOLD_CASES))
                for warm_family, warm_paths in ((other[0], _draw_paths(data, other)), (family, paths)):
                    for path in warm_paths:
                        _point_answers(warm_family, path)
            else:
                _forget_readings()
            if tables == "bound 8":
                patch.setattr(families, "_MEMO_MAX", 8)
            for path, answer in zip(paths, expected):
                assert _point_answers(family, path) == answer, path
                assert _memo_within_bound()

    @pytest.mark.parametrize("order", [1, -1], ids=["forward", "backward"])
    def test_each_family_keeps_its_own_root_tables(self, order):
        # two roots one index level down, and two components, that are asked
        # the same label 2: it is maximal below the first of each pair only
        queries = [
            (gamma_family(OMEGA + 1), "2", (True, ZERO, Fraction(1))),
            (gamma_family(Ordinal(3)), "2", (False, ONE, Fraction(1, 2))),
            (gamma_family(OMEGA * 2), "w^(w)+2", (True, ZERO, Fraction(1))),
            (gamma_family(OMEGA * 2), "w^(2)+2", (False, ONE, Fraction(1, 2))),
        ]
        for family, text, answer in queries[::order]:
            assert _point_answers(family, P(text)) == answer, (family, text)

    def test_a_deep_index_answers_from_cold_tables(self):
        # a miss steps each index level below it in two frames, as the step
        # caches did, so Gamma_400 answers within the default recursion limit
        family = gamma_family(Ordinal(400))
        assert _point_answers(family, P("1")) == (True, ZERO, Fraction(1))
        assert _point_answers(family, P("w^(399)+1,2")) == (False, ONE, Fraction(1, 4))
        assert _point_answers(family, P("w^(399)+1,w^(399)")) is None

    def test_a_query_reads_on_across_a_clear(self, monkeypatch):
        # the 8-label member of Gamma_(w*2) that the big-family CI smoke
        # queries, under a bound that clears the tables within each query
        family = gamma_family(OMEGA * 2)
        path = P("w^(w+1)*2+w^(w)+w*2+2,w^(w+1)*2+w^(w)+w*2+1,w^(w+1)*2+w^(w)+w+2,w^(w+1)*2+w^(w)+w+1,"
                 "w^(w+1)*2+w*2+2,w^(w+1)*2+w*2+1,w^(w+1)*2+w+2,w^(w+1)*2+w+1")
        expected = _point_answers(family, path)
        assert expected == (False, Ordinal("w^(w+1)"), Fraction(1, 16))
        clears = []

        class Tables(dict):
            def clear(self):
                clears.append(len(self))
                super().clear()

        _forget_readings()
        monkeypatch.setattr(families, "_MEMO", Tables())
        monkeypatch.setattr(families, "_MEMO_MAX", 8)
        for _ in range(3):
            assert _point_answers(family, path) == expected and family.member(path + path[-1:]) is False
            assert _memo_within_bound()
        assert len(clears) > 3

    def test_named_families_stay_within_the_bound(self, monkeypatch):
        # more distinct T and Gamma indices than the bound, one family each;
        # t_family once kept every family it was asked for
        monkeypatch.setattr(families, "_MEMO_MAX", 64)
        sizes = []
        for k in range(300):
            assert t_family(Ordinal(k)).xi == k and gamma_family(OMEGA + k).xi == OMEGA + k
            assert _memo_within_bound()
            sizes.append(families._memo_size)
        assert sum(b < a for a, b in zip(sizes, sizes[1:])) >= 600 // 64
        assert t_family(Ordinal(5)) is t_family(Ordinal(5)) and make_family("Gamma", 5) is gamma_family(Ordinal(5))


class TestBelowMemo:
    """``_below`` keeps each answer in the memo, keyed by ``max_n`` and state
    (a root's by its family), so that a walk of a family and budget expands
    no state that an earlier walk expanded; an answer is a list of pairs
    that counts as one item per pair and one for the list, and one that
    would count for more than the bound is given but not kept."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        _forget_readings()
        yield
        _forget_readings()

    @pytest.mark.parametrize(
        "family, max_n, nodes, lists",
        [(t_family(omega_pow(3)), 3, 498, 16), (G2, 3, 108, 42), (GW, 2, 15, 22), (gamma_family(OMEGA + 1), 2, 150, 53)],
        ids=["T_w^3", "Gamma_2", "Gamma_w", "Gamma_w+1"],
    )
    def test_a_second_walk_keeps_and_reads_nothing_new(self, family, max_n, nodes, lists, monkeypatch):
        # the first walk keeps one list per state it expands, at every index
        # level (Gamma_2's include Gamma_1's and Gamma_0's); the next keep none
        budget = B(max_n)

        def walks():
            answers = [family.truncate(budget), list(family.maximal_branches(budget))]
            if family.kind == "Gamma":
                answers += [family.node_weights(budget), list(family.weighted_branches(budget))]
            return answers

        first, size = walks(), families._memo_size
        assert len(first[0]) == nodes
        assert sum(type(value) is list for value in families._MEMO.values()) == lists
        built, reading = [], families._Reading
        monkeypatch.setattr(families, "_Reading", lambda *args: built.append(args) or reading(*args))
        assert walks() == first
        assert families._memo_size == size and built == []
        assert _memo_within_bound()

    @pytest.mark.parametrize("family", [t_family(omega_pow(2)), G2, GW, gamma_family(OMEGA + 1)],
                             ids=["T_w^2", "Gamma_2", "Gamma_w", "Gamma_w+1"])
    def test_walks_at_other_max_n_answer_as_the_reference(self, family):
        # each reference from an empty memo; then 2, 3 and 2 again in one
        # memo, which must not answer a walk at one max_n from another's;
        # three labels deep, as Gamma_w at max_n 3 has 173,130 nodes
        expected = {}
        for n in (2, 3):
            _forget_readings()
            expected[n] = reference_walk(family, B(n, max_depth=3)), family.children((), B(n))
        _forget_readings()
        for n in (2, 3, 2):
            (nodes, branches), roots = expected[n]
            assert [path for path, _ in family._walk(B(n, max_depth=3))] == nodes
            assert list(family.maximal_branches(B(n, max_depth=3))) == branches
            assert family.children((), B(n)) == roots
        assert len(expected[3][0][0]) > len(expected[2][0][0])

    def test_a_root_of_more_pairs_than_the_bound_is_not_kept(self, monkeypatch):
        # T_w's root at max_n 20 has 20 children, Gamma_2's at max_n 4 has 16
        cases = [(t_family(OMEGA), B(20)), (G2, B(4))]
        expected = [family.children((), budget) for family, budget in cases]
        assert [len(labels) for labels in expected] == [20, 16]
        for (family, budget), labels in zip(cases, expected):
            _forget_readings()
            monkeypatch.setattr(families, "_MEMO_MAX", 8)
            assert family.children((), budget) == labels
            assert (budget.max_n, family) not in families._MEMO
            assert all(len(value) < 8 for value in families._MEMO.values() if type(value) is list)
            assert _memo_within_bound()
            if family.kind == "T":  # it reads no state, so the memo keeps nothing new
                assert not any(type(value) is list for value in families._MEMO.values())
            monkeypatch.undo()

    def test_walks_a_deep_finite_index_twice(self):
        # from an empty memo, the first walk expands all 700 index levels,
        # one frame each; the second answers from the memo
        family = gamma_family(Ordinal(700))
        for _ in range(2):
            assert family.truncate(B(1)) == FiniteBTree.closure([(ONE,)])
        assert (1, family) in families._MEMO


def _count_folds(patch):
    """Count each family's folds of a path, the reads its slot does not answer."""
    folds, fold = collections.Counter(), families._Family._fold

    def counted(family, path):
        folds[family] += 1
        return fold(family, path)

    patch.setattr(families._Family, "_fold", counted)
    return folds


def _pickled(value):
    return pickle.loads(pickle.dumps(value))


class TestReadSlot:
    """Each family keeps the last path object it read or yielded, with its
    prefixes' states: a query handed that same object folds no label.  Only a
    tuple of ``Ordinal`` labels is kept, as no other path is sure not to
    change between two queries."""

    @pytest.fixture(autouse=True)
    def folds(self, monkeypatch):
        _forget_readings()
        yield _count_folds(monkeypatch)
        _forget_readings()

    def test_one_fold_per_path_object(self, folds):
        path = P("w+3,w+2,w+1,2")
        assert (G2.member(path), G2.is_maximal(path), G2.rank(path), G2.weight(path)) == (True, False, ONE, Fraction(1, 4))
        assert G2.prefix_weights(path) == (Fraction(1, 6),) * 3 + (Fraction(1, 4),)
        assert G2.branch_weight_sum(path) == (Fraction(3, 4), False) and G2.children(path, B(2)) == [ONE]
        assert folds == {G2: 1}

    def test_an_equal_tuple_is_folded_again(self, folds):
        path = P("3,2")
        other = tuple(list(path))
        assert other == path and other is not path
        assert G1.rank(path) == G1.rank(other) == ONE and G1.rank(path) == ONE
        assert folds == {G1: 3}

    def test_a_mutated_list_path(self, folds):
        path = list(P("3,2"))
        assert G1.member(path) and G1.rank(path) == ONE
        path[1] = Ordinal(3)
        assert not G1.member(path)
        with pytest.raises(ValueError, match="is not a member"):
            G1.rank(path)
        path[1:] = [Ordinal(2), ONE]
        assert G1.is_maximal(path)
        assert folds == {G1: 5}

    def test_a_mutated_pair_list_label(self, folds):
        label = [(ZERO, 2)]  # 2, as (exponent, coefficient) pairs
        path = (Ordinal(3), label)
        assert G1.member(path) and not G1.is_maximal(path)
        label[0] = (ZERO, 3)
        assert not G1.member(path)
        label[0] = (ZERO, 2)
        assert G1.rank(path) == ONE
        assert folds == {G1: 4}

    @pytest.mark.parametrize("path", [(3, 2), ("3", "2"), (Ordinal(3), 2), ("3", Ordinal(2))])
    def test_int_and_text_labels_are_folded_each_time(self, folds, path):
        assert G1.member(path) and G1.rank(path) == ONE and not G1.is_maximal(path)
        assert folds == {G1: 3}

    def test_one_path_asked_of_two_families(self, folds):
        path = P("w+1")
        T_W1 = t_family(OMEGA + 1)
        for _ in range(2):
            assert G2.member(path) and G2.rank(path) == OMEGA
            assert not G1.member(path)
            assert T_W1.is_maximal(path) is False and T_W1.rank(path) == OMEGA
        assert folds == {G2: 1, G1: 1, T_W1: 1}

    def test_a_non_member_then_a_member(self, folds):
        outside, inside = P("2,2"), P("2,1")
        assert not G1.member(outside)
        with pytest.raises(ValueError, match="2,2 is not a member"):
            G1.weight(outside)
        assert G1.member(inside) and G1.weight(inside) == Fraction(1, 2)
        assert not G1.member(outside)
        assert folds == {G1: 3}

    @pytest.mark.parametrize("case", READ_CASES, ids=[f"Gamma_{family.xi}" for family, _ in READ_CASES])
    def test_queries_of_walked_branches(self, case, folds, monkeypatch):
        # each branch, as the walk yields it, is left in the slot with its
        # readings; under a bound of 8 the memo clears within the walk
        family, n = case
        budget = B(n, max_depth=4)
        expected = {path: answer[2] for path, answer in gamma_members(family.xi, n, 4).items() if answer[1]}
        monkeypatch.setattr(families, "_MEMO_MAX", 8)
        queried = [(branch, family.prefix_weights(branch)) for branch in family.maximal_branches(budget)]
        assert not folds
        assert queried == list(family.weighted_branches(budget))
        assert dict(queried) == expected and len(queried) == len(expected)
        assert _memo_within_bound()

    @pytest.mark.parametrize("kind, xi", [("Gamma", "2"), ("Gamma", "w"), ("T", "3"), ("T", "w*2")])
    @pytest.mark.parametrize("clone", [_pickled, copy.deepcopy, copy.copy], ids=["pickle", "deepcopy", "copy"])
    def test_pickle_and_copy_after_queries_and_a_walk(self, kind, xi, clone, folds):
        # a family pickles and copies by its kind and index, never its slot
        family = make_family(kind, Ordinal(xi))
        branch = next(family.maximal_branches(B(2)))
        answers = family.member(branch), family.rank(branch)
        assert clone(family) is family
        assert (family.member(branch), family.rank(branch)) == answers and folds[family] == 0
        # a family the memo has let go of comes back as a new object
        _forget_readings()
        other = clone(family)
        assert type(other) is type(family) and other.xi == family.xi and other is not family
        assert (other.member(branch), other.rank(branch)) == answers and folds[other] == 1


# T and Gamma at finite, successor, limit and successor-of-limit indices:
# (kind, xi, max_n, max_len), the oracle's caps and the walks' budget
MEMO_CASES = [
    ("T", "4", 3, 4), ("T", "w+2", 3, 4), ("T", "w^2", 3, 4), ("T", "w*2", 2, 4), ("T", "w^(w)+1", 2, 4),
    ("Gamma", "2", 3, 4), ("Gamma", "3", 2, 4), ("Gamma", "w", 2, 4), ("Gamma", "w+1", 2, 4), ("Gamma", "w*2", 2, 3),
]
T_EXTRA_LABELS = [Ordinal(text) for text in ("0", "1", "2", "5", "w", "w+1", "w^2+2", "w^(w)+2")]


@functools.lru_cache(maxsize=None)
def _memo_oracle(case):
    """The budget of ``case``, its oracle's members with their answers, and
    the labels its paths are drawn from: over these, a path of at most
    max_len labels is a member exactly when the oracle built it."""
    kind, xi, max_n, max_len = case
    xi, budget = Ordinal(xi), B(max_n, max_depth=max_len)
    if kind == "Gamma":
        built = gamma_members(xi, max_n, max_len)
        labels = {label for path in built for label in path} | {ZERO}
    else:
        # the walk's labels and a few others; t_members builds every member over them
        labels = {label for path in TFamily(xi).truncate(budget).nodes for label in path} | set(T_EXTRA_LABELS)
        built = t_members(xi, sorted(labels), max_len)
    return budget, built, sorted(labels)


class MemoMachine(RuleBasedStateMachine):
    """Point queries and walks on T and Gamma, on families held from the
    start or named afresh, mixed with clears of the memo and bounds as low as
    one: every answer is the cache-free oracle's, and the memo never holds
    more than its bound."""

    def __init__(self):
        super().__init__()
        self.patch = pytest.MonkeyPatch()
        self.held = {case: make_family(case[0], Ordinal(case[1])) for case in MEMO_CASES}

    def teardown(self):
        self.patch.undo()
        _forget_readings()

    def family(self, case, fresh):
        return make_family(case[0], Ordinal(case[1])) if fresh else self.held[case]

    def draw_path(self, case, data):
        """A prefix of an oracle member (the empty path, at times), then labels."""
        built, labels = _memo_oracle(case)[1:]
        if data.draw(st.booleans()):
            path = data.draw(st.sampled_from(sorted(built)))
            path = path[: data.draw(st.integers(0, len(path)))]
        else:
            path = ()
        tail = data.draw(st.lists(st.sampled_from(labels), max_size=case[3] - len(path)))
        return path + tuple(tail)

    def ask(self, family, case, path, kind):
        """Ask ``kind`` of ``path``, a tuple or a list, and check the answer against the oracle."""
        budget, built, _ = _memo_oracle(case)
        key = tuple(path)
        if kind == "member":
            assert family.member(path) is (key in built), path
        elif key not in built and (path or kind != "children"):
            with pytest.raises(ValueError, match="is not a member"):
                getattr(family, kind)(path) if kind != "children" else family.children(path, budget)
        elif kind == "children":
            below = family.children(path, budget)
            rank = built[key][0] if path else Ordinal(case[1])
            if case[0] == "Gamma":
                if len(path) < case[3]:
                    assert below == sorted(p[-1] for p in built if p[:-1] == key), path
            elif rank.is_limit:
                assert len(below) == budget.max_n and below == sorted(set(below))
                assert all(mu.is_successor and mu < rank for mu in below)
            else:
                assert below == ([rank] if rank.is_successor else [])
        else:
            rank, maximal, *weights = built[key]  # T has no weights
            expected = {"is_maximal": maximal, "rank": rank, "prefix_weights": weights and weights[0]}
            expected["weight"] = weights and weights[0][-1]
            assert getattr(family, kind)(path) == expected[kind], path

    @rule(case=st.sampled_from(MEMO_CASES), fresh=st.booleans(), data=st.data())
    def query(self, case, fresh, data):
        path = self.draw_path(case, data)
        kind = data.draw(st.sampled_from(["member", "is_maximal", "rank", "children"] + ["weight"] * (case[0] == "Gamma")))
        self.ask(self.family(case, fresh), case, path, kind)

    @rule(case=st.sampled_from(MEMO_CASES), fresh=st.booleans(), as_list=st.booleans(), data=st.data())
    def queries_of_one_path(self, case, fresh, as_list, data):
        # one path object asked again and again, in a drawn order: the
        # family's slot answers a tuple after the first query; a list is
        # changed in place at times between queries, and read each time
        family, path, labels = self.family(case, fresh), self.draw_path(case, data), _memo_oracle(case)[2]
        path = list(path) if as_list else path
        kinds = ["member", "is_maximal", "rank", "children"] + ["weight", "prefix_weights"] * (case[0] == "Gamma")
        for kind in data.draw(st.lists(st.sampled_from(kinds), min_size=2, max_size=6)):
            if as_list and path and data.draw(st.booleans()):
                path[-1] = data.draw(st.sampled_from(labels))
            self.ask(family, case, path, kind)

    @rule(cases=st.lists(st.sampled_from(MEMO_CASES), min_size=2, max_size=3), data=st.data())
    def one_path_of_several_families(self, cases, data):
        # one path object asked of several families answers in each as an
        # equal tuple that it reads afresh: each family has its own slot
        path = self.draw_path(cases[0], data)
        expected = [_point_answers(self.held[case], tuple(list(path))) for case in cases]
        assert [_point_answers(self.held[case], path) for case in cases] == expected, path

    @rule(case=st.sampled_from(MEMO_CASES), fresh=st.booleans())
    def walk(self, case, fresh):
        family, (budget, built, _) = self.family(case, fresh), _memo_oracle(case)
        nodes = family.truncate(budget).nodes
        if case[0] == "Gamma":
            assert nodes == set(built)
            branches = list(family.weighted_branches(budget))
            assert dict(branches) == {path: answer[2] for path, answer in built.items() if answer[1]}
            assert len(branches) == len(dict(branches))
        else:
            # T's walk takes the first max_n successors below a limit, which
            # the oracle has among others; each is a member over its labels
            assert nodes <= set(built)
            branches = list(family.maximal_branches(budget))
            assert sorted(branches) == sorted(path for path in nodes if built[path][1])

    @rule(case=st.sampled_from(MEMO_CASES), fresh=st.booleans(), data=st.data())
    def queries_of_walked_branches(self, case, fresh, data):
        # point queries of each branch as the walk yields it, which leaves
        # the branch in the family's slot
        family, budget = self.family(case, fresh), _memo_oracle(case)[0]
        kinds = ["member", "is_maximal", "rank"] + ["weight", "prefix_weights"] * (case[0] == "Gamma")
        for branch in itertools.islice(family.maximal_branches(budget), data.draw(st.integers(1, 40))):
            self.ask(family, case, branch, data.draw(st.sampled_from(kinds)))

    @rule(case=st.sampled_from(MEMO_CASES), fresh=st.booleans(), shift=st.sampled_from([-1, 1]), data=st.data())
    def walk_at_another_max_n(self, case, fresh, shift, data):
        # every other rule uses the case's own max_n: here a walk, or the
        # children of walked nodes, at a max_n next to it, against
        # reference_walk made in a scratch memo, at the shipped bound, which
        # holds one max_n only; two labels shorter than the case's paths, as
        # Gamma_(w*2) at max_n 3 has 94,173 nodes three labels deep
        family, budget = self.family(case, fresh), _memo_oracle(case)[0]
        other = B(budget.max_n + shift, max_depth=case[3] - 2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(families, "_MEMO", {})
            patch.setattr(families, "_memo_size", 0)
            patch.setattr(families, "_MEMO_MAX", 1 << 17)
            nodes, branches = reference_walk(family, other)
            paths = [()] + data.draw(st.lists(st.sampled_from(nodes), max_size=4)) if nodes else [()]
            below = [family.children(path, other) for path in paths]
        if data.draw(st.booleans()):
            assert [path for path, _ in family._walk(other)] == nodes
            assert list(family.maximal_branches(other)) == branches
        else:
            assert [family.children(path, other) for path in paths] == below

    @rule()
    def clear(self):
        _forget_readings()

    @rule(bound=st.sampled_from([1, 2, 3, 8, 64]))
    def bound(self, bound):
        _forget_readings()
        _bound_memo(self.patch, bound)

    @invariant()
    def within_the_bound(self):
        assert _memo_within_bound()


TestMemoMachine = MemoMachine.TestCase
TestMemoMachine.settings = settings(max_examples=100, stateful_step_count=30, deadline=None)


class TestEmbedding:
    def test_2_into_3(self):
        phi = monotone_embedding(Ordinal(2), Ordinal(3))
        assert phi(P("2")) == P("3")
        assert phi(P("2,1")) == P("3,2")

    def test_identity(self):
        phi = monotone_embedding(Ordinal(3), Ordinal(3))
        assert phi(P("3,2,1")) == P("3,2,1")

    def test_3_into_omega(self):
        phi = monotone_embedding(Ordinal(3), OMEGA)
        assert phi(P("3,2,1")) == P("3,2,1")

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            monotone_embedding(Ordinal(3), Ordinal(2))

    def test_rejects_non_member(self):
        phi = monotone_embedding(Ordinal(2), Ordinal(3))
        with pytest.raises(ValueError):
            phi(P("1"))

    @pytest.mark.parametrize(
        "xi,gamma,budget",
        [
            (Ordinal(2), Ordinal(3), B(2)),
            (Ordinal(3), OMEGA, B(4)),
            (OMEGA, OMEGA + 1, B(6)),
            (OMEGA + 1, OMEGA * 2, B(6)),
            (OMEGA, omega_pow(2), B(5)),
        ],
    )
    def test_monotone_length_preserving_into_target(self, xi, gamma, budget):
        phi = monotone_embedding(xi, gamma)
        source = t_family(xi).truncate(budget)
        target_family = t_family(gamma)
        images = {}
        for node in source.nodes:
            image = phi(node)
            assert len(image) == len(node)
            assert target_family.member(image)
            images[node] = image
        target = FiniteBTree.closure(images.values())
        assert verify_monotone_map(source, target, images)
