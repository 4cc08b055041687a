"""Byte identity of the CLI over a committed corpus of cases.

``tests/corpus/cases`` lists the cases (its header says how they run), and
``tests/corpus/expected.json`` holds per case the sha256 of its stdout, its
stderr text and its exit code.  ``python tests/corpus/update.py`` rewrites
the manifest from the code under ``src/``; a change to it is a change of
output, to be named case by case.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
from pathlib import Path

import pytest

from ordgames import cli

CORPUS = Path(__file__).resolve().parent / "corpus"
MANIFEST = CORPUS / "expected.json"


def read_cases() -> list:
    """(name, argv) per case, in file order."""
    cases = [line.split() for line in (CORPUS / "cases").read_text(encoding="utf-8").splitlines()]
    return [(case[0], case[1:]) for case in cases if case and not case[0].startswith("#")]


def run_case(argv: list) -> tuple:
    """(exit code, stdout, stderr) of ``cli.run(argv)``, in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_corpus(work: Path) -> dict:
    """The manifest entry of each case, run in order in ``work``, an empty
    directory, where the fixtures and each case's stdout are files."""
    for fixture in CORPUS.glob("*.json"):
        if fixture != MANIFEST:
            shutil.copy(fixture, work)
    outcomes = {}
    here = os.getcwd()
    os.chdir(work)
    try:
        for name, argv in read_cases():
            code, out, err = run_case(argv)
            (work / name).write_text(out)
            outcomes[name] = {
                "exit": code,
                "stderr": err,
                "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
            }
    finally:
        os.chdir(here)
    return outcomes


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    return run_corpus(tmp_path_factory.mktemp("corpus"))


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text())


def test_manifest_names_every_case(manifest):
    names = [name for name, _ in read_cases()]
    assert len(set(names)) == len(names)
    assert sorted(names) == sorted(manifest)


@pytest.mark.parametrize("name", [name for name, _ in read_cases()])
def test_case_matches_manifest(outcomes, manifest, name):
    assert outcomes[name] == manifest[name]


EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()


@pytest.mark.parametrize("name", [name for name, _ in read_cases()])
def test_case_keeps_cli_contract(manifest, name):
    # exit 0 with a silent stderr, exit 1 with no output and one error line,
    # or exit 2 (a usage error) with no output, the usage text and one error line
    entry = manifest[name]
    error = entry["stderr"]
    if entry["exit"] == 0:
        assert error == ""
    elif entry["exit"] == 1:
        assert entry["stdout_sha256"] == EMPTY_SHA256
        assert error.startswith("error: ") and error.endswith("\n") and error.count("\n") == 1
    else:
        assert entry["exit"] == 2 and entry["stdout_sha256"] == EMPTY_SHA256
        lines = error.splitlines()
        assert lines[0].startswith("usage: ordgames ") and "Traceback" not in error
        assert lines[-1].startswith("ordgames ") and sum(": error: " in line for line in lines) == 1
