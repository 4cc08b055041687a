"""Run one ``ordgames`` CLI command with the benchmark's layer wrappers.

    python3 perfbench/cli_entry.py TRACE_FILE ARG...

Does what ``python -m ordgames.cli ARG...`` does, then writes the spans and
call counts of the process to TRACE_FILE.  Used by the traced ``cli`` run.
"""

import os
import sys

sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import layertrace  # noqa: E402
from ordgames import btree, cli, families, games, ordinal  # noqa: E402

if __name__ == "__main__":
    tracer = layertrace.Tracer()
    layertrace.install(tracer, {"ordinal": ordinal, "btree": btree, "families": families, "games": games, "cli": cli})
    tracer.job, tracer.on = 0, True
    code = cli.run(sys.argv[2:])
    tracer.on = False
    sys.stdout.flush()
    tracer.dump(sys.argv[1])
    sys.exit(code)
