import copy
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import finite_btrees, ordinals
from ordgames.btree import FiniteBTree
from ordgames.derivation import (
    INFINITY,
    DerivationSystem,
    Infinity,
    cb_index,
    cb_stage,
    cb_step,
    derivation_index,
    dz_bound,
)
from ordgames.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalError,
    omega_mul,
    omega_pow,
)

W_TO_W = omega_pow(OMEGA)


def sample_ordinals(count=200, max_exponent=4, max_coeff=5, seed=20260810):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        exponents = sorted(
            rng.sample(range(max_exponent + 1), rng.randint(0, max_exponent + 1)),
            reverse=True,
        )
        out.append(Ordinal([(Ordinal(e), rng.randint(1, max_coeff)) for e in exponents]))
    return out


class TestDerivationSystem:
    def test_remove_all(self):
        system = DerivationSystem(frozenset({1, 2, 3}), lambda s: frozenset())
        assert derivation_index(system, {1, 2}) == 1

    def test_identity_never_empties(self):
        system = DerivationSystem(frozenset({1, 2}), lambda s: s)
        assert derivation_index(system, {1}) == INFINITY

    def test_empty_start(self):
        system = DerivationSystem(frozenset({1}), lambda s: s)
        assert derivation_index(system, frozenset()) == 0

    def test_wrapping_tree_derivative_gives_order(self):
        chain = FiniteBTree.closure([tuple(Ordinal(4 - i) for i in range(4))])
        system = DerivationSystem(chain.nodes, lambda s: FiniteBTree(s).derive().nodes)
        assert derivation_index(system, chain.nodes) == 4 == chain.order()

    @given(finite_btrees())
    def test_agrees_with_order_on_random_trees(self, tree):
        system = DerivationSystem(tree.nodes, lambda s: FiniteBTree(s).derive().nodes)
        assert derivation_index(system, tree.nodes) == tree.order()

    def test_non_contractive_step_rejected(self):
        system = DerivationSystem(frozenset({1}), lambda s: frozenset({1, 2}))
        with pytest.raises(ValueError):
            derivation_index(system, {1})

    def test_value_semantics(self):
        system = DerivationSystem(frozenset({1}), len)
        assert repr(system) == "DerivationSystem(ground=frozenset({1}), step=<built-in function len>)"
        assert system == DerivationSystem(frozenset({1}), len) != DerivationSystem(frozenset(), len)
        assert hash(system) == hash((frozenset({1}), len))
        with pytest.raises(AttributeError):
            system.step = abs
        system = DerivationSystem(frozenset({1, 2}), frozenset)
        for restore in (lambda s: pickle.loads(pickle.dumps(s)), copy.copy, copy.deepcopy):
            assert restore(system) == system and hash(restore(system)) == hash(system)

    def test_start_outside_ground_rejected(self):
        system = DerivationSystem(frozenset({1}), lambda s: s)
        with pytest.raises(ValueError):
            derivation_index(system, {2})


class TestInfinityMarker:
    def test_ordering(self):
        assert INFINITY > omega_pow(W_TO_W)
        assert INFINITY > 10**9
        assert not INFINITY < OMEGA
        assert INFINITY >= INFINITY and INFINITY == INFINITY
        assert INFINITY <= INFINITY and not INFINITY > INFINITY
        with pytest.raises(TypeError):  # ints compare, bools do not: as for ordinals
            INFINITY > True

    def test_one_instance(self):
        assert Infinity() is INFINITY
        copies = [copy.copy(INFINITY), copy.deepcopy(INFINITY)]
        copies += [pickle.loads(pickle.dumps(INFINITY, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        assert all(c is INFINITY for c in copies)
        assert INFINITY != OMEGA and not INFINITY == OMEGA
        assert {INFINITY: 1, OMEGA: 2}[INFINITY] == 1


class TestCantorBendixson:
    def test_stage_examples(self):
        assert cb_stage(Ordinal("w^2*3+w+4"), ONE) == Ordinal("w*3+1")
        a = Ordinal("w^(w)*2+w^3")
        assert cb_stage(a, ZERO) == a
        assert cb_stage(W_TO_W, OMEGA) == ONE

    def test_step_examples(self):
        assert cb_step(Ordinal(5)) == ZERO
        assert cb_step(OMEGA) == ONE
        assert cb_step(W_TO_W) == W_TO_W

    def test_index_examples(self):
        assert cb_index(ZERO) == ZERO
        assert cb_index(Ordinal("w^3*2+w")) == Ordinal(4)
        assert cb_index(W_TO_W) == OMEGA + 1

    def test_stage_coherence_on_sample(self):
        for alpha in sample_ordinals():
            for gamma in range(6):
                g = Ordinal(gamma)
                assert cb_stage(alpha, g + 1) == cb_step(cb_stage(alpha, g))

    def test_iteration_count_matches_index_below_w_to_w(self):
        for alpha in sample_ordinals(count=80):
            steps, current = 0, alpha
            while not current.is_zero:
                current = cb_step(current)
                steps += 1
            assert Ordinal(steps) == cb_index(alpha)

    @given(ordinals(height=2), ordinals(height=2), ordinals(height=1))
    def test_monotone(self, a, b, g):
        lo, hi = sorted([a, b])
        assert cb_stage(lo, g) <= cb_stage(hi, g)
        assert cb_index(lo) <= cb_index(hi)

    @given(ordinals(height=2), ordinals(height=1))
    def test_stage_via_repeated_steps(self, alpha, gamma):
        # closed form vs literal iteration, valid for finite stage counts
        if gamma.is_finite:
            current = alpha
            for _ in range(gamma.as_int()):
                current = cb_step(current)
            assert cb_stage(alpha, gamma) == current


class TestDzBound:
    def test_power_examples(self):
        assert dz_bound(omega_pow(2)) == omega_pow(3)
        assert dz_bound(ONE) == OMEGA
        assert dz_bound(W_TO_W) == W_TO_W

    def test_zero_rejected(self):
        with pytest.raises(OrdinalError):
            dz_bound(ZERO)

    def test_general_input_left_multiplies(self):
        assert dz_bound(Ordinal("w^2+w")) == Ordinal("w^3+w^2")
        assert dz_bound(Ordinal(5)) == Ordinal("w*5")

    @given(ordinals(height=2))
    def test_matches_omega_mul_cross_check(self, xi):
        assert dz_bound(omega_pow(xi)) == omega_mul(omega_pow(xi)) == omega_pow(ONE + xi)

    @given(ordinals(height=2))
    def test_fixes_large_powers(self, xi):
        value = dz_bound(omega_pow(xi))
        assert (value == omega_pow(xi)) == (xi >= OMEGA)
