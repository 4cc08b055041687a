"""Derivation indices: a generic contractive-iteration engine plus the
computable Cantor-Bendixson instantiation on compact ordinal intervals.

``DerivationSystem`` iterates a contractive step function on subsets of a
finite ground set and reports the least stage at which the iteration empties,
or ``INFINITY`` when a nonempty fixed point is reached.

The transfinite behaviour is exercised through closed forms on ordinal
intervals: for the interval [1, alpha] with the order topology, the gamma-th
Cantor-Bendixson derivative consists of the points divisible by omega^gamma
and has order type the left quotient of alpha by omega^gamma.  Iterating the
one-step derivative is valid exactly below omega^omega; at omega^omega the
one-step derivative has a nonempty fixed point (the 1 + xi = xi absorption),
which is why limit stages need the closed form.
"""

from __future__ import annotations

from functools import total_ordering
from typing import AbstractSet, Callable, FrozenSet, Hashable, Union

from .btree import _Frozen
from .ordinal import ONE, Ordinal, OrdinalError, _is_int, omega_mul, quot_rem_omega_pow

__all__ = [
    "INFINITY",
    "Infinity",
    "DerivationSystem",
    "derivation_index",
    "cb_stage",
    "cb_step",
    "cb_index",
    "dz_bound",
]


@total_ordering
class Infinity:
    """Marker ordered above every ordinal; ``Sz = infinity`` analogue."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def __str__(self):
        return "inf"

    # one instance, so identity is equality; by name every pickle and copy is it
    def __reduce__(self):
        return "INFINITY"

    def __gt__(self, other):
        if isinstance(other, Ordinal) or _is_int(other):
            return True
        if isinstance(other, Infinity):
            return False
        return NotImplemented


INFINITY = Infinity()


class DerivationSystem(_Frozen):
    """A contractive step function on subsets of a finite ground set.

    The step must satisfy step(S) subset-of S; this is checked at each
    application since the callable itself cannot be inspected.  Immutable.
    """

    _FIELDS = ("ground", "step")
    __slots__ = _FIELDS
    ground: FrozenSet[Hashable]
    step: Callable[[FrozenSet[Hashable]], AbstractSet[Hashable]]

    def __init__(self, ground, step):
        self._set(ground=ground, step=step)


def derivation_index(
    system: DerivationSystem, start: AbstractSet[Hashable]
) -> Union[int, Infinity]:
    """Least k with the k-th iterate of ``step`` on ``start`` empty.

    Returns INFINITY when a nonempty fixed point is reached; on a finite
    ground set exactly one of the two happens.
    """
    current = frozenset(start)
    if not current <= system.ground:
        raise ValueError("start set is not contained in the ground set")
    stage = 0
    while current:
        following = frozenset(system.step(current))
        if not following <= current:
            raise ValueError("step is not contractive")
        if following == current:
            return INFINITY
        current = following
        stage += 1
    return stage


def cb_stage(alpha: Ordinal, gamma: Ordinal) -> Ordinal:
    """Order type of the gamma-th Cantor-Bendixson derivative of [1, alpha]."""
    q, _ = quot_rem_omega_pow(Ordinal(alpha), Ordinal(gamma))
    return q


def cb_step(alpha: Ordinal) -> Ordinal:
    """One Cantor-Bendixson derivative: order type of the limit points."""
    return cb_stage(alpha, ONE)


def cb_index(alpha: Ordinal) -> Ordinal:
    """Least gamma at which the Cantor-Bendixson iteration empties [1, alpha]."""
    alpha = Ordinal(alpha)
    if alpha.is_zero:
        return alpha
    return alpha.leading_exponent + 1


def dz_bound(sz: Ordinal) -> Ordinal:
    """The dentability bound omega * sz; equals sz itself once sz >= omega^omega.

    For sz = omega^xi this is omega^(1 + xi) (omega_mul shifts each exponent e
    to 1 + e), which fixes sz exactly when xi >= omega.  Non-power input
    (outside the convex-set case) gets the same shift term by term.
    """
    sz = Ordinal(sz)
    if sz.is_zero:
        raise OrdinalError("no bound for index 0")
    return omega_mul(sz)
