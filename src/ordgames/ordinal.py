"""Exact arithmetic for ordinals below epsilon_0 in Cantor normal form.

An ``Ordinal`` is the tuple of its (exponent, coefficient) pairs, with
strictly decreasing exponents, each itself an ``Ordinal`` of smaller height;
the empty tuple is 0.  All operations are exact; coefficients are
arbitrary-precision ints.  An ``Ordinal`` equals and hashes like its term
tuple.  The hash is tuple's, in C and never stored: building an ``Ordinal``
computes none, and a label, path or history hashes with no Python call.

Text syntax (accepted by ``Ordinal(...)`` and emitted by ``str``):

    0
    w^2*3+w+4        ->  w^(2)*3+w+4
    w^(w+1)*5        ->  w^(w+1)*5

Non-canonical input such as ``1+w`` is re-normalized by the addition rules
rather than rejected.  ``str`` raises OrdinalError where no reader would take
the text: a coefficient of more than 4,300 digits, or nesting past 300 levels.

``Ordinal(...)`` is the one checked entry point, for outside input: an int,
CNF text, or an iterable of (exponent, coefficient) pairs, whose exponents
must strictly decrease and whose coefficients must be ints >= 1; anything
else, a bool among it, raises ``OrdinalError``; ``Ordinal(o) is o``.
Comparisons coerce ints but not bools.  Order, ``+`` and ``*`` take
ordinals and ints only: a plain tuple operand raises TypeError rather than
meeting tuple's own order, concatenation or repetition.
``compare``, ``omega_pow``, ``omega_mul``, ``subtract_left`` and
``quot_rem_omega_pow`` use an ``Ordinal`` argument as it is, with no copy,
and read an int or CNF text through the checked constructor.  Terms
this module computes are in Cantor normal form by construction, so
``pred``, ``+``, ``* n``, ``omega_pow``, ``omega_mul``, ``subtract_left``,
``quot_rem_omega_pow`` (and ``families``' labels and ranks) build their
results with the trusted ``_from_cnf``, which skips the checks.
"""

from __future__ import annotations

import re
from typing import Iterable, Tuple, Union

__all__ = [
    "Ordinal",
    "OrdinalError",
    "ZERO",
    "ONE",
    "OMEGA",
    "compare",
    "omega_pow",
    "omega_mul",
    "subtract_left",
    "quot_rem_omega_pow",
]


class OrdinalError(ValueError):
    """Raised for malformed CNF text or undefined ordinal operations."""


OrdinalLike = Union["Ordinal", int, str]

# The digit run of every number text: ASCII digits (\d takes any decimal digit), at most
# Python's default int-string limit of them, so that int() of a matched run never raises.
_MAX_DIGITS = 4300
_DIGITS = rf"[0-9]{{1,{_MAX_DIGITS}}}(?![0-9])"
_UNPRINTABLE = 10**_MAX_DIGITS  # the least coefficient that str refuses
_TOKEN = re.compile(rf"\s*({_DIGITS}|[w^*+()])\s*")  # a CNF text's token
_INT = re.compile(rf"-?{_DIGITS}")  # a CLI int argument or a move text's index
_RATIONAL = re.compile(rf"(-?{_DIGITS})(?:/({_DIGITS}))?")  # a model or game file's rational text, p or p/q


def _json_int(text: str) -> int:
    """A JSON document's integer, held to the digit run of every number text
    (``json``'s ``parse_int``), whatever the interpreter's own limit."""
    if not _INT.fullmatch(text):
        raise ValueError(f"a JSON integer of more than {_MAX_DIGITS} digits")
    return int(text)

# Deepest parenthesis nesting accepted in CNF text, and printed: str refuses a
# deeper ordinal.  Printing, comparing and parsing recurse once per level, so
# text nested much deeper would end in RecursionError instead of an OrdinalError.
_MAX_NESTING = 300


class Ordinal(tuple):
    """An ordinal < epsilon_0: the tuple of its CNF terms.  Immutable, and
    equal and hashed like that tuple."""

    __slots__ = ()

    def __new__(cls, value: Union[OrdinalLike, Iterable[Tuple["Ordinal", int]]] = ()):
        if isinstance(value, Ordinal):
            return value
        if _is_int(value):
            if value < 0:
                raise OrdinalError("ordinals are nonnegative")
            return _from_cnf(((ZERO, value),)) if value else ZERO
        if isinstance(value, str):
            return _parse(value)
        try:
            pairs = [(e, c) for e, c in value]
        except (TypeError, ValueError):
            raise OrdinalError(
                f"not an ordinal, an int, CNF text or (exponent, coefficient) pairs: {value!r}"
            ) from None
        if not all(_is_int(c) for _, c in pairs):
            raise OrdinalError("coefficients must be ints")
        terms = tuple((Ordinal(e), int(c)) for e, c in pairs)
        for (e1, _), (e2, _) in zip(terms, terms[1:]):
            if not e1 > e2:
                raise OrdinalError("exponents must strictly decrease")
        if any(c < 1 for _, c in terms):
            raise OrdinalError("coefficients must be >= 1")
        return _from_cnf(terms)

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> Tuple[Tuple["Ordinal", int], ...]:
        return self

    @property
    def is_zero(self) -> bool:
        return not self

    @property
    def is_finite(self) -> bool:
        return not self or not self[0][0]

    @property
    def is_limit(self) -> bool:
        """True iff nonzero with no trailing finite part."""
        return bool(self) and bool(self[-1][0])

    @property
    def is_successor(self) -> bool:
        return bool(self) and not self[-1][0]

    @property
    def leading_exponent(self) -> "Ordinal":
        if not self:
            raise OrdinalError("0 has no leading exponent")
        return self[0][0]

    def as_int(self) -> int:
        if not self.is_finite:
            raise OrdinalError(f"{self} is infinite")
        return self[0][1] if self else 0

    def pred(self) -> "Ordinal":
        """The predecessor; defined only for successor ordinals."""
        if not self.is_successor:
            raise OrdinalError(f"{self} is not a successor")
        e, c = self[-1]
        rest = self[:-1]
        return _from_cnf(rest + ((e, c - 1),) if c > 1 else rest)

    # -- comparison --------------------------------------------------------

    def _cmp(self, other: "Ordinal") -> int:
        if self is other:
            return 0
        for (e1, c1), (e2, c2) in zip(self, other):
            c = e1._cmp(e2)
            if c:
                return c
            if c1 != c2:
                return -1 if c1 < c2 else 1
        n1, n2 = len(self), len(other)
        return 0 if n1 == n2 else (-1 if n1 < n2 else 1)

    # __eq__ and __ne__ replace tuple's, so that an int is coerced:
    # Ordinal(4) == 4 and not Ordinal(4) != 4.  A plain tuple is left to
    # tuple's __eq__.
    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not Ordinal:
            if not _is_int(other):
                return NotImplemented
            other = Ordinal(other)
        return tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    def _order(results):  # the order method true when _cmp gives one of results
        def method(self, other) -> bool:
            other = _coerce(other)
            return NotImplemented if other is None else self._cmp(other) in results
        return method

    __lt__, __le__, __gt__, __ge__ = _order((-1,)), _order((-1, 0)), _order((1,)), _order((0, 1))
    del _order

    # tuple's hash, in C: the hash of the term tuple, not stored
    __hash__ = tuple.__hash__

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Ordinal":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            return self
        if not self:
            return other
        e = other[0][0]
        keep, order = 0, -1
        while keep < len(self):
            order = self[keep][0]._cmp(e)
            if order <= 0:
                break
            keep += 1
        head = self[:keep]
        if order == 0:
            return _from_cnf(head + ((e, self[keep][1] + other[0][1]),) + other[1:])
        return _from_cnf(head + other[0:])  # plain: head + other would call other.__radd__

    def __radd__(self, other) -> "Ordinal":
        other = _coerce(other)
        return NotImplemented if other is None else other + self

    def __mul__(self, n) -> "Ordinal":
        """Right multiplication by a natural number (self * n)."""
        if not isinstance(n, int):
            raise TypeError(f"an ordinal times {type(n).__name__!r}: only self * int is defined")
        if n < 0:
            raise OrdinalError("cannot multiply an ordinal by a negative int")
        if n == 0 or not self:
            return ZERO
        e, c = self[0]
        return _from_cnf(((e, c * n),) + self[1:])

    def __rmul__(self, n):
        # without it, n * self would fall through to tuple repetition
        raise TypeError(f"{type(n).__name__!r} times an ordinal: only self * int is defined")

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        return self._text(_MAX_NESTING)

    def _text(self, levels: int) -> str:
        """The CNF text, in at most ``levels`` nested parentheses; an
        OrdinalError where a reader would refuse the text."""
        if not self:
            return "0"
        parts = []
        for e, c in self:
            if c >= _UNPRINTABLE:
                raise OrdinalError(f"a coefficient of more than {_MAX_DIGITS} digits has no CNF text")
            if not e:
                parts.append(str(c))
            elif levels or e == ONE:
                base = "w" if e == ONE else f"w^({e._text(levels - 1)})"
                parts.append(base if c == 1 else f"{base}*{c}")
            else:
                raise OrdinalError(f"an ordinal nested deeper than {_MAX_NESTING} levels has no CNF text")
        return "+".join(parts)

    def __repr__(self) -> str:
        return f"Ordinal({str(self)!r})"

    def __reduce__(self):
        # at protocols 0 and 1 tuple.__new__ would rebuild, unchecked: a second zero
        return Ordinal, (tuple(self),)


def _from_cnf(terms: Tuple[Tuple[Ordinal, int], ...]) -> Ordinal:
    """Trusted builder: ``terms`` must already be a CNF term tuple (Ordinal
    exponents strictly decreasing, int coefficients >= 1), unchecked; () gives the one ``ZERO``."""
    return tuple.__new__(Ordinal, terms) if terms else ZERO


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _coerce(value) -> "Ordinal | None":
    """An ``Ordinal`` or an int as an ``Ordinal``, None for other operands.
    A plain tuple raises TypeError: else tuple's own order, concatenation
    and repetition would answer for it."""
    if isinstance(value, Ordinal):
        return value
    if _is_int(value):
        return Ordinal(value)
    if isinstance(value, tuple):
        raise TypeError(f"not an ordinal or an int: {value!r}")
    return None


ZERO = tuple.__new__(Ordinal, ())  # the one 0, which _from_cnf(()) returns
ONE = Ordinal(1)


def compare(a: OrdinalLike, b: OrdinalLike) -> int:
    """Three-way comparison: -1, 0 or 1 as a <, ==, > b."""
    return Ordinal(a)._cmp(Ordinal(b))


def omega_pow(x: OrdinalLike) -> Ordinal:
    """omega raised to the ordinal x; omega_pow(0) == 1."""
    return _from_cnf(((Ordinal(x), 1),))


def omega_mul(a: OrdinalLike) -> Ordinal:
    """Left multiplication omega * a, via the exponent shift e -> 1 + e."""
    return _from_cnf(tuple((ONE + e, c) for e, c in Ordinal(a)))


def subtract_left(g: OrdinalLike, b: OrdinalLike) -> Ordinal:
    """The unique d with g + d == b.  Requires g <= b."""
    g, b = Ordinal(g), Ordinal(b)
    for i, (tg, tb) in enumerate(zip(g, b)):
        if tg == tb:
            continue
        (eg, cg), (eb, cb) = tg, tb
        if eg == eb and cg < cb:
            return _from_cnf(((eb, cb - cg),) + b[i + 1:])
        if eg < eb:
            return _from_cnf(b[i:])
        raise OrdinalError(f"{g} > {b}: no left difference")
    if len(g) > len(b):
        raise OrdinalError(f"{g} > {b}: no left difference")
    return _from_cnf(b[len(g):])


def quot_rem_omega_pow(
    a: OrdinalLike, g: OrdinalLike, remainder_in_half_open_above: bool = False
) -> Tuple[Ordinal, Ordinal]:
    """Split a as omega^g * q + r.

    Default convention: 0 <= r < omega^g.  With ``remainder_in_half_open_above``
    the unique decomposition with 0 < r <= omega^g is returned instead; it
    exists only when a > 0 and the default quotient is a successor whenever the
    default remainder is 0, and an OrdinalError is raised otherwise.
    """
    a, g = Ordinal(a), Ordinal(g)
    high = []
    split = len(a)
    for i, (e, c) in enumerate(a):
        if e._cmp(g) >= 0:
            high.append((subtract_left(g, e), c))
        else:
            split = i
            break
    q, r = _from_cnf(tuple(high)), _from_cnf(a[split:])
    if not remainder_in_half_open_above:
        return q, r
    if a.is_zero:
        raise OrdinalError("no decomposition of 0 with positive remainder")
    if not r.is_zero:
        return q, r
    if not q.is_successor:
        raise OrdinalError(f"{a} has no remainder in (0, w^({g})]")
    return q.pred(), omega_pow(g)


def _parse(text: str) -> Ordinal:
    tokens = []
    pos = depth = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise OrdinalError(f"bad CNF text at {text[pos:]!r}")
        token = m.group(1)
        tokens.append(token)
        pos = m.end()
        depth += (token == "(") - (token == ")")
        if depth > _MAX_NESTING:
            raise OrdinalError(f"CNF text nested deeper than {_MAX_NESTING} levels")
    tokens.reverse()  # pop() from the front

    def peek():
        return tokens[-1] if tokens else None

    def expect(tok):
        if not tokens or tokens.pop() != tok:
            raise OrdinalError(f"expected {tok!r} in {text!r}")

    def parse_expr() -> Ordinal:
        total = parse_term()
        while peek() == "+":
            tokens.pop()
            total = total + parse_term()
        return total

    def parse_term() -> Ordinal:
        tok = peek()
        if tok is None:
            raise OrdinalError(f"unexpected end of input in {text!r}")
        if tok.isdigit():
            tokens.pop()
            return Ordinal(int(tok))
        if tok != "w":
            raise OrdinalError(f"unexpected {tok!r} in {text!r}")
        tokens.pop()
        exp = ONE
        if peek() == "^":
            tokens.pop()
            if peek() == "(":
                tokens.pop()
                exp = parse_expr()
                expect(")")
            elif peek() == "w":
                tokens.pop()
                exp = OMEGA
            elif peek() is not None and peek().isdigit():
                exp = Ordinal(int(tokens.pop()))
            else:
                raise OrdinalError(f"bad exponent in {text!r}")
        coeff = 1
        if peek() == "*":
            tokens.pop()
            if peek() is None or not peek().isdigit():
                raise OrdinalError(f"bad coefficient in {text!r}")
            coeff = int(tokens.pop())
        return omega_pow(exp) * coeff

    value = parse_expr()
    if tokens:
        raise OrdinalError(f"trailing input {tokens[-1]!r} in {text!r}")
    return value


OMEGA = omega_pow(ONE)
