"""Rewrite tests/corpus/expected.json from the outputs of the code under src/.

    python tests/corpus/update.py

Runs every case of tests/corpus/cases as tests/test_corpus.py does, in a
temporary directory, and prints the names of the cases whose entry changed.
"""

import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

from test_corpus import MANIFEST, run_corpus  # noqa: E402


def main() -> None:
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    with tempfile.TemporaryDirectory() as work:
        new = run_corpus(Path(work))
    MANIFEST.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    for name in sorted(set(old) | set(new)):
        if old.get(name) != new.get(name):
            print(name)


if __name__ == "__main__":
    main()
