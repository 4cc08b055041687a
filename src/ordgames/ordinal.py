"""Exact arithmetic for ordinals below epsilon_0 in Cantor normal form.

An ordinal is stored as a tuple of (exponent, coefficient) pairs with
strictly decreasing exponents, each exponent itself an ordinal of smaller
height.  The empty tuple is 0.  All operations are exact; coefficients are
arbitrary-precision ints.

Text syntax (accepted by ``Ordinal(...)`` and emitted by ``str``):

    0
    w^2*3+w+4        ->  w^(2)*3+w+4
    w^(w+1)*5        ->  w^(w+1)*5

Non-canonical input such as ``1+w`` is re-normalized by the addition rules
rather than rejected.

``Ordinal(...)`` is the one checked entry point, for outside input: an int,
CNF text, or an iterable of (exponent, coefficient) pairs, whose exponents
must strictly decrease and whose coefficients must be ints >= 1; anything
else, a bool among it, raises ``OrdinalError``.  Comparisons coerce ints
but not bools.  Copying an ``Ordinal`` reuses its terms and hash.
``compare``, ``omega_pow``, ``omega_mul``, ``subtract_left`` and
``quot_rem_omega_pow`` use an ``Ordinal`` argument as it is, with no copy,
and read an int or CNF text through the checked constructor.  Terms
this module computes are in Cantor normal form by construction, so
``pred``, ``+``, ``* n``, ``omega_pow``, ``omega_mul``, ``subtract_left``,
``quot_rem_omega_pow`` (and ``families._fundamental``) build their results
with the trusted ``_from_cnf``, which skips the checks.
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

_TOKEN = re.compile(r"\s*(\d+|[w^*+()])")

# Deepest parenthesis nesting accepted in CNF text.  Printing, comparing and
# parsing recurse once per level, so text nested much deeper would end in
# RecursionError instead of an OrdinalError.
_MAX_NESTING = 300


class Ordinal:
    """An ordinal < epsilon_0 in Cantor normal form.  Immutable and hashable."""

    __slots__ = ("_terms", "_hash")

    _terms: Tuple[Tuple["Ordinal", int], ...]
    _hash: int

    def __init__(self, value: Union[OrdinalLike, Iterable[Tuple["Ordinal", int]]] = ()):
        if isinstance(value, Ordinal):
            _set_terms(self, value._terms)
            _set_hash(self, value._hash)
            return
        if _is_int(value):
            if value < 0:
                raise OrdinalError("ordinals are nonnegative")
            terms = ((ZERO, value),) if value else ()
        elif isinstance(value, str):
            terms = _parse(value)._terms
        else:
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
        _set_terms(self, terms)
        _set_hash(self, hash(terms))

    def __setattr__(self, name, value):
        raise AttributeError("Ordinal is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> Tuple[Tuple["Ordinal", int], ...]:
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_finite(self) -> bool:
        return not self._terms or self._terms[0][0].is_zero

    @property
    def is_limit(self) -> bool:
        """True iff nonzero with no trailing finite part."""
        return bool(self._terms) and not self._terms[-1][0].is_zero

    @property
    def is_successor(self) -> bool:
        return bool(self._terms) and self._terms[-1][0].is_zero

    @property
    def leading_exponent(self) -> "Ordinal":
        if not self._terms:
            raise OrdinalError("0 has no leading exponent")
        return self._terms[0][0]

    def as_int(self) -> int:
        if not self.is_finite:
            raise OrdinalError(f"{self} is infinite")
        return self._terms[0][1] if self._terms else 0

    def pred(self) -> "Ordinal":
        """The predecessor; defined only for successor ordinals."""
        if not self.is_successor:
            raise OrdinalError(f"{self} is not a successor")
        e, c = self._terms[-1]
        rest = self._terms[:-1]
        return _from_cnf(rest + ((e, c - 1),) if c > 1 else rest)

    # -- comparison --------------------------------------------------------

    def _cmp(self, other: "Ordinal") -> int:
        if self is other:
            return 0
        for (e1, c1), (e2, c2) in zip(self._terms, other._terms):
            c = e1._cmp(e2)
            if c:
                return c
            if c1 != c2:
                return -1 if c1 < c2 else 1
        n1, n2 = len(self._terms), len(other._terms)
        return 0 if n1 == n2 else (-1 if n1 < n2 else 1)

    # Python's default __ne__ negates this
    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not Ordinal:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self._hash == other._hash and self._terms == other._terms

    def __lt__(self, other) -> bool:
        other = _coerce(other)
        return NotImplemented if other is None else self._cmp(other) < 0

    def __le__(self, other) -> bool:
        other = _coerce(other)
        return NotImplemented if other is None else self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        other = _coerce(other)
        return NotImplemented if other is None else self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        other = _coerce(other)
        return NotImplemented if other is None else self._cmp(other) >= 0

    def __hash__(self) -> int:
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Ordinal":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        e = other._terms[0][0]
        keep, order = 0, -1
        while keep < len(self._terms):
            order = self._terms[keep][0]._cmp(e)
            if order <= 0:
                break
            keep += 1
        head = self._terms[:keep]
        if order == 0:
            merged = (e, self._terms[keep][1] + other._terms[0][1])
            return _from_cnf(head + (merged,) + other._terms[1:])
        return _from_cnf(head + other._terms)

    def __radd__(self, other) -> "Ordinal":
        other = _coerce(other)
        return NotImplemented if other is None else other + self

    def __mul__(self, n) -> "Ordinal":
        """Right multiplication by a natural number (self * n)."""
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise OrdinalError("cannot multiply an ordinal by a negative int")
        if n == 0 or not self._terms:
            return ZERO
        e, c = self._terms[0]
        return _from_cnf(((e, c * n),) + self._terms[1:])

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, c in self._terms:
            if e.is_zero:
                parts.append(str(c))
                continue
            base = "w" if e == ONE else f"w^({e})"
            parts.append(base if c == 1 else f"{base}*{c}")
        return "+".join(parts)

    def __repr__(self) -> str:
        return f"Ordinal({str(self)!r})"


# The slot descriptors write past the immutable __setattr__, a little faster
# than object.__setattr__.
_set_terms = Ordinal._terms.__set__
_set_hash = Ordinal._hash.__set__


def _from_cnf(terms: Tuple[Tuple[Ordinal, int], ...]) -> Ordinal:
    """Trusted builder: ``terms`` must already be a CNF term tuple (Ordinal
    exponents strictly decreasing, int coefficients >= 1).  Nothing is checked."""
    value = object.__new__(Ordinal)
    _set_terms(value, terms)
    _set_hash(value, hash(terms))
    return value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _coerce(value) -> "Ordinal | None":
    if isinstance(value, Ordinal):
        return value
    if _is_int(value):
        return Ordinal(value)
    return None


def _ordinal(value: OrdinalLike) -> Ordinal:
    """An ``Ordinal`` argument as it is; anything else through the checked
    constructor."""
    return value if isinstance(value, Ordinal) else Ordinal(value)


ZERO = Ordinal()
ONE = Ordinal(1)


def compare(a: OrdinalLike, b: OrdinalLike) -> int:
    """Three-way comparison: -1, 0 or 1 as a <, ==, > b."""
    return _ordinal(a)._cmp(_ordinal(b))


def omega_pow(x: OrdinalLike) -> Ordinal:
    """omega raised to the ordinal x; omega_pow(0) == 1."""
    return _from_cnf(((_ordinal(x), 1),))


def omega_mul(a: OrdinalLike) -> Ordinal:
    """Left multiplication omega * a, via the exponent shift e -> 1 + e."""
    return _from_cnf(tuple((ONE + e, c) for e, c in _ordinal(a).terms))


def subtract_left(g: OrdinalLike, b: OrdinalLike) -> Ordinal:
    """The unique d with g + d == b.  Requires g <= b."""
    g, b = _ordinal(g), _ordinal(b)
    gt, bt = g.terms, b.terms
    for i, (tg, tb) in enumerate(zip(gt, bt)):
        if tg == tb:
            continue
        (eg, cg), (eb, cb) = tg, tb
        if eg == eb and cg < cb:
            return _from_cnf(((eb, cb - cg),) + bt[i + 1:])
        if eg < eb:
            return _from_cnf(bt[i:])
        raise OrdinalError(f"{g} > {b}: no left difference")
    if len(gt) > len(bt):
        raise OrdinalError(f"{g} > {b}: no left difference")
    return _from_cnf(bt[len(gt):])


def quot_rem_omega_pow(
    a: OrdinalLike, g: OrdinalLike, remainder_in_half_open_above: bool = False
) -> Tuple[Ordinal, Ordinal]:
    """Split a as omega^g * q + r.

    Default convention: 0 <= r < omega^g.  With ``remainder_in_half_open_above``
    the unique decomposition with 0 < r <= omega^g is returned instead; it
    exists only when a > 0 and the default quotient is a successor whenever the
    default remainder is 0, and an OrdinalError is raised otherwise.
    """
    a, g = _ordinal(a), _ordinal(g)
    high = []
    split = len(a.terms)
    for i, (e, c) in enumerate(a.terms):
        if e._cmp(g) >= 0:
            high.append((subtract_left(g, e), c))
        else:
            split = i
            break
    q, r = _from_cnf(tuple(high)), _from_cnf(a.terms[split:])
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
