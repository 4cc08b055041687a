import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ordinals
from oracles import mul_by_repeated_add
from ordgames.btree import path_from_text
from ordgames.families import _fundamental
from ordgames.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalError,
    compare,
    omega_mul,
    omega_pow,
    quot_rem_omega_pow,
    subtract_left,
)


class TestParse:
    def test_zero(self):
        assert Ordinal("0") == ZERO
        assert str(ZERO) == "0"

    def test_direct_cnf(self):
        a = Ordinal("w^2*3+w+4")
        assert a.terms == ((Ordinal(2), 3), (ONE, 1), (ZERO, 4))

    def test_omega_exponent(self):
        assert Ordinal("w^(w)").terms == ((OMEGA, 1),)
        assert Ordinal("w^w") == Ordinal("w^(w)")

    def test_nested(self):
        a = Ordinal("w^(w^(w+1)*2+3)*5+w*2+1")
        assert Ordinal(str(a)) == a

    def test_renormalizes_noncanonical(self):
        assert Ordinal("1+w") == OMEGA
        assert Ordinal("w+w") == OMEGA * 2
        assert Ordinal("w^0*5") == Ordinal(5)
        assert Ordinal("w*1") == OMEGA

    @pytest.mark.parametrize("bad", ["", "w^", "w++1", "x", "w^(w", "3w", "w*", "(w)"])
    def test_syntax_errors(self, bad):
        with pytest.raises(OrdinalError):
            Ordinal(bad)

    @pytest.mark.parametrize(
        "text, value", [(" 5", "5"), ("5 ", "5"), ("w+1 ", "w+1"), (" w + 1\n", "w+1"), ("w ^ ( w ) * 2 + 3\t", "w^(w)*2+3")]
    )
    def test_whitespace_around_every_token(self, text, value):
        assert Ordinal(text) == Ordinal(value)
        assert path_from_text(f"{text},{text}") == (Ordinal(value),) * 2

    @pytest.mark.parametrize("bad", ["\u0663", "w^\u0662", "w*\uff13", "1\u0663", "w+\u09e7"])
    def test_digits_are_ascii(self, bad):
        # each of these is a Unicode decimal digit that int() reads
        with pytest.raises(OrdinalError, match="bad CNF text"):
            Ordinal(bad)

    def test_negative_int(self):
        with pytest.raises(OrdinalError):
            Ordinal(-1)

    @given(ordinals(height=3))
    def test_round_trip(self, a):
        # a fresh object, equal to a but not a itself
        assert Ordinal(str(a)) == a and not Ordinal(str(a)) != a


class TestCheckedConstructor:
    def test_accepts_int_text_and_ordinal_exponents(self):
        a = Ordinal([("w", 3), (2, 1), (ZERO, 4)])
        assert a == Ordinal("w^w*3+w^2+4")

    @pytest.mark.parametrize(
        "bad",
        [
            [(ONE, 1), (ONE, 2)],
            [(ZERO, 1), (ONE, 1)],
            [(ONE, 0)],
            [(ONE, -2)],
            [(ONE, 2.5)],
            [(ONE, "3")],
            2.0,
            None,
            [(ONE,)],
            [([(ONE, 0)], 1)],
            [([(ONE, 2.5)], 1)],
            True,
            [(ZERO, True)],
        ],
        ids=[
            "equal-exponents",
            "increasing-exponents",
            "zero-coefficient",
            "negative-coefficient",
            "float-coefficient",
            "str-coefficient",
            "float-value",
            "none-value",
            "one-element-term",
            "nested-zero-coefficient",
            "nested-float-coefficient",
            "bool-value",
            "bool-coefficient",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(OrdinalError):
            Ordinal(bad)


class TestCompare:
    def test_examples(self):
        assert compare(OMEGA, OMEGA) == 0
        assert compare(OMEGA + 1, OMEGA * 2) == -1
        assert compare(omega_pow(OMEGA), Ordinal("w^3*9")) == 1

    def test_int_interop(self):
        assert Ordinal(3) < 5
        assert OMEGA > 10**9
        assert Ordinal(4) == 4
        assert 4 == Ordinal(4) != 5
        assert ZERO == 0 and not ZERO != 0

    def test_bool_is_not_an_int(self):
        assert ONE != True  # noqa: E712
        assert not ONE == True  # noqa: E712
        with pytest.raises(TypeError):
            ONE < True

    @given(ordinals(), ordinals())
    def test_total_order(self, a, b):
        assert (a < b) + (a == b) + (a > b) == 1
        assert (a != b) is not (a == b)


class TestAdd:
    def test_examples(self):
        assert ONE + OMEGA == OMEGA
        assert str(OMEGA + 1) == "w+1"
        assert ONE + omega_pow(2) == omega_pow(2)

    def test_absorption_at_exponent_level(self):
        xi = omega_pow(2)
        assert omega_pow(ONE + xi) == omega_pow(xi)

    @given(ordinals(), ordinals(), ordinals())
    def test_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(ordinals())
    def test_zero_identity(self, a):
        assert a + ZERO == a
        assert ZERO + a == a

    @given(ordinals(), ordinals())
    def test_weakly_increasing(self, a, b):
        assert a + b >= a
        assert a + b >= b
        assert (a + b == a) == b.is_zero

    @given(ordinals())
    def test_one_plus_xi_absorbs(self, xi):
        if xi >= OMEGA:
            assert ONE + xi == xi


class TestMulNat:
    def test_examples(self):
        assert OMEGA * 3 == Ordinal("w*3")
        assert (OMEGA + 1) * 2 == Ordinal("w*2+1")
        assert ZERO * 5 == ZERO
        assert OMEGA * 0 == ZERO

    def test_negative_rejected(self):
        with pytest.raises(OrdinalError):
            OMEGA * -1

    @given(ordinals(), st.integers(0, 6))
    def test_matches_repeated_addition(self, a, n):
        assert a * n == mul_by_repeated_add(a, n)


class TestOmegaPow:
    def test_examples(self):
        assert omega_pow(0) == ONE
        assert omega_pow(1) == OMEGA
        assert omega_pow(OMEGA) == Ordinal("w^(w)")

    @given(ordinals())
    def test_leading_exponent(self, x):
        assert omega_pow(x).leading_exponent == x

    @given(ordinals())
    def test_uses_an_ordinal_argument_as_it_is(self, x):
        assert omega_pow(x).leading_exponent is x


class TestOmegaMul:
    def test_shifts_every_term(self):
        assert omega_mul(Ordinal("w^2+w")) == Ordinal("w^3+w^2")
        assert omega_mul(Ordinal(3)) == Ordinal("w*3")
        assert omega_mul(ZERO) == ZERO

    @given(ordinals())
    def test_matches_power_rule(self, xi):
        assert omega_mul(omega_pow(xi)) == omega_pow(ONE + xi)


class TestSubtractLeft:
    def test_examples(self):
        assert subtract_left(OMEGA, OMEGA + 3) == Ordinal(3)
        assert subtract_left(OMEGA, omega_pow(2)) == omega_pow(2)
        with pytest.raises(OrdinalError):
            subtract_left(5, 3)

    @given(ordinals(), ordinals())
    def test_inverts_add(self, g, d):
        b = g + d
        assert subtract_left(g, b) == d
        assert g + subtract_left(g, b) == b

    @given(ordinals(), ordinals())
    def test_error_iff_greater(self, g, b):
        if g > b:
            with pytest.raises(OrdinalError):
                subtract_left(g, b)
        else:
            assert g + subtract_left(g, b) == b


class TestQuotRem:
    def test_examples(self):
        a = Ordinal("w^2*3+w+4")
        q, r = quot_rem_omega_pow(a, 2)
        assert (q, r) == (Ordinal(3), OMEGA + 4)
        assert omega_pow(2) * 3 + r == a
        assert quot_rem_omega_pow(omega_pow(2), 2) == (ONE, ZERO)
        assert quot_rem_omega_pow(omega_pow(2), 2, True) == (ZERO, omega_pow(2))
        assert quot_rem_omega_pow(5, 1) == (ZERO, Ordinal(5))

    def test_variant_errors(self):
        with pytest.raises(OrdinalError):
            quot_rem_omega_pow(ZERO, 1, True)
        # w^2 = w * w has no decomposition with remainder in (0, w]
        with pytest.raises(OrdinalError):
            quot_rem_omega_pow(omega_pow(2), 1, True)

    def _reassemble(self, q, r, g):
        # left multiplication omega^g * q, valid for CNF q via exponent shifts
        shifted = Ordinal(tuple((Ordinal(g) + e, c) for e, c in q.terms))
        return shifted + r

    @given(ordinals(height=3), ordinals())
    def test_reassembles(self, a, g):
        q, r = quot_rem_omega_pow(a, g)
        assert r < omega_pow(g)
        assert self._reassemble(q, r, g) == a

    @given(ordinals(height=3), ordinals())
    def test_variant_reassembles(self, a, g):
        try:
            q, r = quot_rem_omega_pow(a, g, remainder_in_half_open_above=True)
        except OrdinalError:
            return
        assert ZERO < r <= omega_pow(g)
        assert self._reassemble(q, r, g) == a


class TestLimitAndPred:
    def test_examples(self):
        assert (OMEGA * 2).is_limit
        assert (OMEGA + 1).pred() == OMEGA
        with pytest.raises(OrdinalError):
            OMEGA.pred()
        with pytest.raises(OrdinalError):
            ZERO.pred()

    @given(ordinals())
    def test_classification(self, a):
        assert a.is_zero + a.is_limit + a.is_successor == 1

    @given(ordinals())
    def test_pred_inverts_succ(self, a):
        assert (a + 1).pred() == a


class TestHashing:
    @given(ordinals(), ordinals())
    def test_hash_consistent(self, a, b):
        if a == b:
            assert hash(a) == hash(b)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            OMEGA.terms = ()


class TestOneZero:
    """Every 0 is the one object ``ZERO``: built, computed, unpickled or copied."""

    def test_built_and_computed(self):
        for zero in (Ordinal(), Ordinal(0), Ordinal("0"), Ordinal([]), ONE.pred(), OMEGA * 0,
                     subtract_left(OMEGA, OMEGA), quot_rem_omega_pow(OMEGA + 1, 2)[0]):
            assert zero is ZERO

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle(self, protocol):
        assert pickle.loads(pickle.dumps(ZERO, protocol)) is ZERO
        assert pickle.loads(pickle.dumps(ZERO)) is ZERO
        assert pickle.loads(pickle.dumps(OMEGA + 1, protocol))[1][0] is ZERO

    def test_pickle_is_checked(self):
        # a protocol-0 pickle of 1 with its coefficient edited to 0 is no ordinal
        text = pickle.dumps(ONE, 0)
        forged = text.replace(b"I1\n", b"I0\n")
        assert forged != text and pickle.loads(text) == ONE
        with pytest.raises(OrdinalError, match="coefficients must be >= 1"):
            pickle.loads(forged)

    def test_copy(self):
        assert copy.copy(ZERO) is ZERO and copy.deepcopy(ZERO) is ZERO
        assert copy.deepcopy(OMEGA + 1)[1][0] is ZERO


class TestArgumentKinds:
    """The helpers read an int or CNF text through the checked constructor
    and use an ``Ordinal`` as it is: all three give the same results, and a
    bool is no ordinal."""

    @staticmethod
    def _kinds(x):
        kinds = [x, str(x)]
        if x.is_finite:
            kinds.append(x.as_int())
        return kinds

    @given(ordinals(height=3), ordinals())
    def test_same_results(self, a, g):
        want_cmp, want_qr = compare(a, g), quot_rem_omega_pow(a, g)
        lo, hi = sorted([a, g])
        want_sub = subtract_left(lo, hi)
        try:
            want_above = quot_rem_omega_pow(a, g, True)
        except OrdinalError:
            want_above = None
        for a2 in self._kinds(a):
            for g2 in self._kinds(g):
                assert compare(a2, g2) == want_cmp
                assert quot_rem_omega_pow(a2, g2) == want_qr
                if want_above is None:
                    with pytest.raises(OrdinalError):
                        quot_rem_omega_pow(a2, g2, True)
                else:
                    assert quot_rem_omega_pow(a2, g2, True) == want_above
        for lo2 in self._kinds(lo):
            for hi2 in self._kinds(hi):
                assert subtract_left(lo2, hi2) == want_sub

    @pytest.mark.parametrize(
        "call",
        [
            lambda b: compare(b, 1),
            lambda b: compare(ONE, b),
            lambda b: subtract_left(b, 2),
            lambda b: subtract_left(ZERO, b),
            lambda b: quot_rem_omega_pow(b, 1),
            lambda b: quot_rem_omega_pow(OMEGA, b),
            omega_pow,
            omega_mul,
        ],
    )
    @pytest.mark.parametrize("b", [True, False])
    def test_rejects_bools(self, call, b):
        with pytest.raises(OrdinalError):
            call(b)


def _rebuilt(a):
    """``a`` rebuilt through the checked constructor, exponents first."""
    return Ordinal([(_rebuilt(e), c) for e, c in a.terms])


class TestTrustedConstruction:
    """Results built without the checks are canonical: the checked
    constructor accepts their terms and gives an equal, equally hashed value."""

    @staticmethod
    def _assert_canonical(a):
        b = _rebuilt(a)
        assert b == a
        assert hash(b) == hash(a)

    @given(ordinals(height=3), ordinals(height=3), st.integers(0, 4))
    def test_results_are_canonical(self, a, b, n):
        lo, hi = sorted([a, b])
        results = [a + b, b + a, a * n, omega_pow(a), omega_mul(a)]
        results += [subtract_left(lo, hi), subtract_left(a, a + b)]
        results += quot_rem_omega_pow(a, b)
        try:
            results += quot_rem_omega_pow(a, b, remainder_in_half_open_above=True)
        except OrdinalError:
            pass
        if a.is_successor:
            results.append(a.pred())
        for beta in (b + 1, omega_mul(b + 1)):
            results.append(_fundamental(a + omega_pow(beta) * (n + 1), n))
        for r in results:
            self._assert_canonical(r)

    @given(ordinals(height=3))
    def test_copy_shares_terms_and_hash(self, a):
        b = Ordinal(a)
        assert b == a
        assert hash(b) == hash(a)
        assert b.terms is a.terms
        with pytest.raises(AttributeError):
            b._terms = ()
        with pytest.raises(AttributeError):
            b._hash = 0
        assert b == a


def _plain(a):
    """The nested term tuple of ``a``, with no ``Ordinal`` left in it."""
    return tuple((_plain(e), c) for e, c in a)


class TestTupleRepresentation:
    """An ``Ordinal`` is its term tuple: it hashes like that tuple, the same
    in every process, and survives pickle and copy."""

    @given(ordinals(height=3))
    def test_is_its_term_tuple(self, a):
        assert hash(a) == hash(_plain(a))
        assert Ordinal(a) is a and a.terms is a

    def test_hash_independent_of_hash_seed(self):
        texts = ["0", "1", "w", "w^(w+1)*3+w*2+5", "w^(w^(w))*7+w^3+12"]
        script = (
            "import sys\nfrom ordgames.ordinal import Ordinal\n"
            "print([hash(Ordinal(t)) for t in sys.argv[1:]])"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", script, *texts], env=env, capture_output=True, text=True, check=True
            )
            outputs.add(done.stdout)
        assert outputs == {f"{[hash(Ordinal(t)) for t in texts]}\n"}

    @settings(max_examples=50)
    @given(ordinals(height=3), ordinals(height=2), st.integers(0, 5))
    def test_pickle_and_copy_round_trip(self, a, b, protocol):
        path = (a, b, a)
        for restore in (lambda x: pickle.loads(pickle.dumps(x, protocol)), copy.deepcopy, copy.copy):
            assert restore(a) == a and hash(restore(a)) == hash(a)
            assert type(restore(a)) is Ordinal
            assert restore(path) == path and hash(restore(path)) == hash(path)


class TestOperatorContract:
    """Ordinals order, add and multiply with ordinals and ints only: tuple's
    own order, concatenation and repetition never answer for them."""

    @pytest.mark.parametrize(
        "expr",
        [
            lambda: 3 * OMEGA,
            lambda: OMEGA * OMEGA,
            lambda: (1,) + OMEGA,
            lambda: OMEGA + (1,),
            lambda: OMEGA < (1,),
            lambda: () + OMEGA,
            lambda: OMEGA >= (),
            lambda: () < OMEGA,
            lambda: OMEGA * 2.0,
            lambda: OMEGA + True,
        ],
    )
    def test_type_errors(self, expr):
        with pytest.raises(TypeError):
            expr()

    def test_ints_coerce(self):
        assert not Ordinal(4) != 4 and Ordinal(4) == 4
        assert 4 != OMEGA and not OMEGA == 4
        assert 1 + OMEGA == OMEGA and OMEGA + 1 > OMEGA > 4
