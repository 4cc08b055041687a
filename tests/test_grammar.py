"""Each text reader against an independent statement of its language.

The regexes below are written from README's CLI paragraph, not imported from
``src/``.  Hypothesis draws strings over a hostile alphabet (ASCII,
Arabic-Indic and fullwidth digits, ``_+-.e/``, space, tab, newline, the CNF
symbols and the separators ``:;|``) and runs of 4,299 to 4,302 ASCII digits,
around the bound of every digit run.  Each reader must accept a text exactly
when its regex does, and print each accepted value back as canonical text
that reads back to an equal value.  CNF text is drawn without parentheses
for its regex, and with them for a recursive recognizer of README's grammar,
which bounds their nesting; the path and history texts are drawn without.
JSON numbers, as a model's epsilon and a game's weight, are checked against
README's rational rule.
"""

import contextlib
import io
import json
import re
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordgames import cli
from ordgames.btree import _frac_text, path_from_text, path_to_text
from ordgames.games import (
    _rational, game_from_json, game_to_json, history_from_text, history_to_text, model_from_json
)
from ordgames.ordinal import ONE, Ordinal, OrdinalError

# README: a digit run is ASCII 0-9, at most 4,300 digits; CNF text may have
# whitespace around any token; a term is a number or w, w^e with e a number
# or w, either times a number; terms are joined by +
DIGITS = r"[0-9]{1,4300}"
NUMBER = rf"\s*{DIGITS}\s*"
W = r"\s*w\s*"
TERM = rf"(?:{NUMBER}|{W}(?:\^(?:{NUMBER}|{W}))?(?:\*{NUMBER})?)"
CNF = re.compile(rf"{TERM}(?:\+{TERM})*")
PATH = re.compile(rf"(?:{CNF.pattern}(?:,{CNF.pattern})*)?")  # the empty text is the root
INT = re.compile(rf"-?{DIGITS}")
RATIONAL = re.compile(rf"-?{DIGITS}(?:/(?=[0-9]*[1-9]){DIGITS})?")  # q not zero
MOVE = rf"{CNF.pattern}:-?{DIGITS}:-?{DIGITS}"
HISTORY = re.compile(rf"(?:{MOVE}(?:;{MOVE})*)?")

HOSTILE = "0123456789٠١٢٣٤٥٦٧٨٩０１２３４５６７８９_+-.e/ \t\nw^*(),:;|"
# fragments of valid texts, so that a draw is often accepted
FRAGMENTS = ["w", "w^2", "w^w", "*3", "+", "+1", "12", "0", "-1", "1/2", "1:0:0", ";w+1:1:0", ":0:", ":1", ";", ","]


@st.composite
def texts(draw, max_size: int = 8) -> str:
    parts = draw(st.lists(st.sampled_from(list(HOSTILE) + FRAGMENTS), max_size=max_size))
    if draw(st.booleans()):
        run = draw(st.sampled_from("0123456789")) * draw(st.integers(4299, 4302))
        parts.insert(draw(st.integers(0, len(parts))), run)
    return "".join(parts)


# history texts: hostile texts, or moves of hostile parts, so that some are accepted
LABELS = st.one_of(st.sampled_from(["1", "w", " w^2*3+1", "0"]), texts(3))
INDICES = st.one_of(st.sampled_from(["0", "1", "-1", "007"]), texts(1))
MOVES = st.tuples(LABELS, INDICES, INDICES).map(":".join)
HISTORIES = st.one_of(texts(), st.lists(MOVES, min_size=1, max_size=3).map(";".join))


def cnf_by_readme(text: str) -> bool:
    """README's CNF grammar, parentheses included, by recursive descent: terms
    joined by +, each a number, or w or w^e (e a number, w or parenthesized
    CNF) optionally times a number; whitespace around any token; numbers of at
    most 4,300 ASCII digits; parentheses nested at most 300 deep."""
    tokens = re.findall(r"[0-9]+|\S", text)  # a digit run, or any other character but whitespace

    def number(i: int) -> Optional[int]:
        found = i < len(tokens) and tokens[i][0] in "0123456789" and len(tokens[i]) <= 4300
        return i + 1 if found else None

    def symbol(i: int, token: str) -> Optional[int]:
        return i + 1 if i < len(tokens) and tokens[i] == token else None

    def expression(i: int, depth: int) -> Optional[int]:
        i = term(i, depth)
        while i is not None and symbol(i, "+") is not None:
            i = term(i + 1, depth)
        return i

    def term(i: int, depth: int) -> Optional[int]:
        if number(i) is not None:
            return number(i)
        i = symbol(i, "w")
        if i is not None and symbol(i, "^") is not None:
            i += 1
            if number(i) is not None or symbol(i, "w") is not None:
                i += 1
            elif symbol(i, "(") is not None and depth < 300:
                i = expression(i + 1, depth + 1)
                i = None if i is None else symbol(i, ")")
            else:
                i = None
        if i is not None and symbol(i, "*") is not None:
            i = number(i + 1)
        return i

    return expression(0, 0) == len(tokens)


@st.composite
def nests(draw) -> str:
    """A hostile text inside an opening ``w^(`` repeated about 300 times, or a
    few, closed as often as opened or once more or less."""
    depth = draw(st.sampled_from([1, 2, 3, 299, 300, 301, 302]))
    opening = draw(st.sampled_from(["w^(", "w ^ ( ", "(", "w^(w+"]))
    inner = draw(st.one_of(st.sampled_from(["1", "0", "w", "w^2", "w^w*2+3", "9" * 4300 + "+1"]), texts(4)))
    closed = depth + draw(st.sampled_from([0, 0, -1, 1]))
    return opening * depth + inner + ")" * closed + draw(st.sampled_from(["", "+1", "*2", "+w^(1)"]))


def rational_by_readme(value) -> Optional[Fraction]:
    """README's rational rule for a value read from JSON: a JSON integer (not
    true or false), or text p or p/q with q not zero; None for anything else."""
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str) and RATIONAL.fullmatch(value):
        p, _, q = value.partition("/")
        return Fraction(int(p), int(q or 1))
    return None


# JSON values for a rational: ints, true and false, floats (NaN and infinities
# among them), null, lists, and texts, hostile or of the rational form
JSON_VALUES = st.one_of(
    st.integers(), st.booleans(), st.floats(), st.none(), st.lists(st.integers(), max_size=1),
    st.sampled_from(["1/2", "-1/2", "3/4", "1", "0", "2/1", "1/0", "0.1", "NaN", "Infinity", "1e-1"]), texts(),
)


def one_node_game(epsilon, weight) -> dict:
    """A game document on the one-node tree, read back from its JSON text."""
    model = {"dim": 1, "subspaces": [[]], "compacts": [[["1"]]], "functionals": [["1"]], "epsilon": epsilon}
    game = {"model": model, "tree": {"nodes": [["1"]]}, "weights": {"1": weight}, "payoff": "szlenk"}
    return json.loads(json.dumps(game))


def without_parentheses(text: str) -> str:
    return text.replace("(", "").replace(")", "")


def has_text(value: Ordinal) -> bool:
    """Whether ``value`` has canonical text: every coefficient, an exponent's
    included, within the digit bound.  A sum of runs may exceed it, and then
    there is no text to print back."""
    return all(c < 10**4300 and has_text(e) for e, c in value)


def read(reader, text):
    """``reader(text)``, or None when it refuses the text with its own
    ValueError (an OrdinalError among them), not the interpreter's."""
    try:
        return reader(text)
    except ValueError as exc:
        assert "set_int_max_str_digits" not in str(exc), (text, exc)
        return None


def run_cli(*argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


SETTINGS = settings(max_examples=300, deadline=None)


class TestDifferentialGrammar:
    @SETTINGS
    @given(texts())
    @example("1" * 4300)
    @example("1" * 4301)
    def test_cli_integers(self, text):
        code, out, err = run_cli("ord", "mul", "1", text)
        assert (code != 2) is bool(INT.fullmatch(text)), (text, code, err)
        if code == 2:
            assert "_int" not in err and "set_int_max_str_digits" not in err, err
        elif code == 0:  # 1 * n is n; a negative n is a domain error, exit 1
            assert INT.fullmatch(out[:-1]) and run_cli("ord", "mul", "1", out[:-1]) == (0, out, "")

    @SETTINGS
    @given(texts())
    @example("-" + "9" * 4300 + "/" + "7" * 4300)
    @example("1/" + "0" * 4300)
    @example("1/" + "7" * 4301)
    def test_rationals(self, text):
        value = read(_rational, text)
        assert (value is not None) is bool(RATIONAL.fullmatch(text)), text
        if value is not None:
            printed = _frac_text(value)
            assert RATIONAL.fullmatch(printed) and _rational(printed) == value

    @SETTINGS
    @given(texts())
    @example("w^" + "9" * 4300 + "*" + "9" * 4300 + "+" + "9" * 4300)
    @example("9" * 4300 + "+1")  # 10^4300: no canonical text
    def test_cnf(self, text):
        text = without_parentheses(text)
        value = read(Ordinal, text)
        assert (value is not None) is bool(CNF.fullmatch(text)), text
        if value is None:
            return
        if has_text(value):
            assert Ordinal(str(value)) == value and str(Ordinal(str(value))) == str(value)
        else:  # the writer refuses it, under any int-string limit of the interpreter
            with pytest.raises(OrdinalError, match="^a coefficient of more than 4300 digits has no CNF text$"):
                str(value)

    @SETTINGS
    @given(st.one_of(texts(), nests()))
    @example("w^(" * 300 + "1" + ")" * 300)
    @example("w^(" * 301 + "1" + ")" * 301)
    @example("w^(" * 300 + "w^2" + ")" * 300)  # its text would nest 301 deep
    @example("w^(" * 300 + "w" + ")" * 300)
    @example("w^(" * 299 + "9" * 4300 + "+1" + ")" * 299)
    def test_cnf_with_parentheses(self, text):
        value = read(Ordinal, text)
        assert (value is not None) is cnf_by_readme(text), text
        if value is None:
            return
        try:
            printed = str(value)
        except OrdinalError as exc:  # no text any reader takes
            assert not has_text(value) or "nested deeper than 300 levels" in str(exc), exc
            return
        assert cnf_by_readme(printed) and Ordinal(printed) == value and str(Ordinal(printed)) == printed

    @SETTINGS
    @given(JSON_VALUES)
    @example(0.1)
    @example(float("nan"))
    @example(True)
    @example(False)
    @example(1)
    @example("0.1")
    @example("NaN")
    @example("1" * 4300 + "/" + "3" * 4300)
    def test_json_epsilon(self, value):
        document = one_node_game(value, "1")
        value = document["model"]["epsilon"]  # as JSON reads it
        expected = rational_by_readme(value)
        if expected is None or expected <= 0:
            message = f"not a rational: {value!r}" if expected is None else "epsilon must be positive"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                model_from_json(document["model"])
            return
        epsilon = model_from_json(document["model"]).epsilon
        assert type(epsilon) is Fraction and epsilon == expected
        game = game_from_json(document)
        assert game_to_json(game)["model"]["epsilon"] == _frac_text(expected)
        assert game_from_json(game_to_json(game)) == game

    @SETTINGS
    @given(JSON_VALUES)
    @example(0.1)
    @example(float("nan"))
    @example(True)
    @example(False)
    @example(1)
    @example("0.1")
    @example("NaN")
    @example("1/" + "1" * 4300)
    def test_json_weight(self, value):
        document = one_node_game("1/2", value)
        value = document["weights"]["1"]  # as JSON reads it
        expected = rational_by_readme(value)
        if expected is None or not 0 <= expected <= 1:
            message = f"not a rational: {value!r}" if expected is None else f"weight {expected} outside [0, 1]"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                game_from_json(document)
            return
        game = game_from_json(document)
        assert type(game.weights[(ONE,)]) is Fraction and game.weights[(ONE,)] == expected
        assert game_to_json(game)["weights"] == {"1": _frac_text(expected)}
        assert game_from_json(game_to_json(game)) == game

    @SETTINGS
    @given(texts())
    def test_paths(self, text):
        text = without_parentheses(text)
        path = read(path_from_text, text)
        assert (path is not None) is bool(PATH.fullmatch(text)), text
        if path is not None and all(map(has_text, path)):
            printed = path_to_text(path)
            assert path_from_text(printed) == path and path_to_text(path_from_text(printed)) == printed

    @SETTINGS
    @given(HISTORIES)
    @example("1:" + "1" * 4300 + ":0")
    @example("1:" + "1" * 4301 + ":0")
    def test_histories(self, text):
        text = without_parentheses(text)
        history = read(history_from_text, text)
        assert (history is not None) is bool(HISTORY.fullmatch(text)), text
        if history is not None and all(has_text(label) for label, _, _ in history):
            printed = history_to_text(history)
            assert history_from_text(printed) == history and history_to_text(history_from_text(printed)) == printed


def test_recognizer_bounds_nesting_and_runs():
    # the independent recognizer itself: 300 levels, not 301; 4,300 digits, not 4,301
    for text in ("w^({})", "w^(" * 299 + "{}" + ")" * 299, "w^(w^2*{}+1)"):
        assert cnf_by_readme(text.format("7" * 4300)) and not cnf_by_readme(text.format("7" * 4301))
    assert cnf_by_readme("w^(" * 300 + "w" + ")" * 300) and not cnf_by_readme("w^(" * 301 + "w" + ")" * 301)
    assert not cnf_by_readme("w^(1") and not cnf_by_readme("w^1)") and not cnf_by_readme("(1)")


def test_regexes_bound_each_run():
    # the independent statement itself: 4,300 digits in a run, not 4,301
    for pattern, text in ((INT, "{}"), (RATIONAL, "1/{}"), (CNF, "w*{}"), (PATH, "1,{}"), (HISTORY, "1:0:{}")):
        assert pattern.fullmatch(text.format("7" * 4300)) and not pattern.fullmatch(text.format("7" * 4301))
