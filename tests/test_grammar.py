"""Each text reader against an independent statement of its language.

The regexes below are written from README's CLI paragraph, not imported from
``src/``.  Hypothesis draws strings over a hostile alphabet (ASCII,
Arabic-Indic and fullwidth digits, ``_+-.e/``, space, tab, newline, the CNF
symbols and the separators ``:;|``) and runs of 4,299 to 4,302 ASCII digits,
around the bound of every digit run.  Each reader must accept a text exactly
when its regex does, and print each accepted value back as canonical text
that reads back to an equal value.  CNF text is drawn without parentheses,
whose nesting no regex states; so are the path and history texts built on it.
"""

import contextlib
import io
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordgames import cli
from ordgames.btree import _frac_text, path_from_text, path_to_text
from ordgames.games import _rational, history_from_text, history_to_text
from ordgames.ordinal import Ordinal

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
        if value is not None and has_text(value):
            assert Ordinal(str(value)) == value and str(Ordinal(str(value))) == str(value)

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


def test_regexes_bound_each_run():
    # the independent statement itself: 4,300 digits in a run, not 4,301
    for pattern, text in ((INT, "{}"), (RATIONAL, "1/{}"), (CNF, "w*{}"), (PATH, "1,{}"), (HISTORY, "1:0:{}")):
        assert pattern.fullmatch(text.format("7" * 4300)) and not pattern.fullmatch(text.format("7" * 4301))
