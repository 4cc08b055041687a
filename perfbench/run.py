"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload solve|enumerate|cli --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Jobs run one at a time on one thread, in blocks that start from a fresh
import, and in whole rounds of blocks: the run ends at the first round end
after S seconds from its start.  A failed job is counted in ``failed`` and
its time in no metric.  Every output is checked, untimed, against ``oracle``.
Times are CPU times scaled to a reference speed of the host, which the run
reads as it goes (see ``REFERENCE_S``).
"""

from time import perf_counter, process_time

STARTED = perf_counter(), process_time()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import layertrace  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

LAYER_MODULES = ("ordinal", "btree", "families", "games", "cli")

# The shared host runs the same code at speeds up to 45% apart, in spells of
# seconds to minutes, and other tenants' processes take turns on its cores.
# So a job's time is the CPU time it used, of this process and of the
# children it waited for, which leaves out the turns of other processes; and
# it is scaled to the host's speed, read from a fixed computation of the
# oracle's that runs no code of the program (W-szlenk on Gamma_2 at max_n 2 by
# backward induction), timed before every job and after a block's last job.
# Every time metric is given at the speed at which that computation takes
# REFERENCE_S of CPU time: each block's times are multiplied by REFERENCE_S
# over the median of the block's reference times.
REFERENCE_S = 0.0025


def clock():
    """Wall and CPU seconds; the CPU seconds of this process and of the
    children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return perf_counter(), process_time() + children.ru_utime + children.ru_stime


def since(start):
    now = clock()
    return now[0] - start[0], now[1] - start[1]


def reference(view):
    """Wall and CPU time of the reference computation, with the collector off
    so that the program's heap does not slow it."""
    gc.disable()
    start = clock()
    oracle.winner(view)
    elapsed = since(start)
    gc.enable()
    return elapsed


def drop_ordgames():
    for name in [n for n in sys.modules if n == "ordgames" or n.startswith("ordgames.")]:
        del sys.modules[name]


def fresh_import():
    """Import ``ordgames`` from this checkout's ``src/`` with every module
    cache cold: earlier copies are dropped from ``sys.modules`` first."""
    drop_ordgames()
    importlib.import_module("ordgames")
    return SimpleNamespace(**{m: importlib.import_module(f"ordgames.{m}") for m in LAYER_MODULES})


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(workloads.SRC, "ordgames", "__init__.py")):
        sys.exit(f"run.py: no ordgames sources under {workloads.SRC}")
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    sys.path.insert(0, workloads.SRC)
    os.makedirs(workloads.OUT, exist_ok=True)

    tracer = layertrace.Tracer() if args.trace else None
    # per block, each time as (wall, CPU): {job name: time} of the jobs that
    # completed; its set-up time; its reference times
    blocks, setups, refs = [], [], []
    attempted, failed, correct, timed, n = 0, 0, True, 0.0, 0
    child_rss, processes = 0.0, []
    # the first set-up is timed from the start of the process
    started, untimed = STARTED, clock()
    ref_view = workloads.GammaTree("2", 2).view(workloads.W_SZLENK)
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.seed, traced=bool(args.trace)) if args.workload == "cli" else cls(args.seed)
    while True:
        # set-up.  The oracle's side of the inputs is no work of the program's:
        # it is left out of the set-up time.  Every block starts from a fresh
        # import, so every block meets cold caches.
        plan = workload.plan(n)
        started = tuple(a + b for a, b in zip(started, since(untimed)))
        og = fresh_import()
        jobs = workload.block(og, plan)
        setups.append(since(started))
        if len({job.name for job in jobs}) != len(jobs):
            raise RuntimeError("job names must be unique within a block: they name the slots")
        if tracer:
            layertrace.install(tracer, {m: getattr(og, m) for m in LAYER_MODULES})
        # the inputs live as long as the block: keep them out of the collector's scans
        gc.freeze()
        times, block_refs = {}, [reference(ref_view)]
        for job in jobs:
            if tracer:
                tracer.job, tracer.on = attempted, True
            start = clock()
            try:
                out, error = job.run(), None
            except Exception as exc:  # a failing operation is counted, not fatal
                out, error = None, exc
            elapsed = since(start)
            if tracer:
                tracer.on = False
                tracer.data.update(job.work)
            attempted += 1
            if error is not None:
                failed += 1
                if not job.expect_failure:
                    print(f"FAILED {job.name}: {type(error).__name__}: {error}", file=sys.stderr)
            else:
                times[job.name] = elapsed
                try:
                    job.check(out)
                except oracle.CheckError as exc:
                    correct = False
                    print(f"WRONG {job.name}: {exc}", file=sys.stderr)
            del out
            if args.workload == "cli":
                for wall, rss, stdout_bytes, trace in workload.processes:
                    child_rss = max(child_rss, rss)
                    processes.append((wall, rss, stdout_bytes))
                    if trace is not None:
                        tracer.merge(trace, attempted - 1)
                workload.processes.clear()
            block_refs.append(reference(ref_view))
        blocks.append(times)
        refs.append(block_refs)
        timed += sum(t[0] for t in times.values())
        n += 1
        if n % workload.BLOCKS == 0 and perf_counter() - STARTED[0] >= args.seconds:
            break
        # free this block's inputs, outputs and modules before the next set-up
        plan = jobs = job = error = og = workload.og = None  # a kept traceback would hold the old modules
        drop_ordgames()
        gc.unfreeze()
        gc.collect()
        started = untimed = clock()

    if args.workload == "cli":
        shutil.rmtree(workload.work)
    # each block's CPU times of jobs and set-up at the reference speed
    scale = [REFERENCE_S / statistics.median(r[1] for r in block_refs) for block_refs in refs]
    slots = {}
    for times, k in zip(blocks, scale):
        for name, elapsed in times.items():
            slots.setdefault(name, []).append(elapsed[1] * k)
    # a slot recurs in every block with an input of the same cost or kind:
    # the job mix is one job per slot, each at its median time
    mix = [statistics.median(ts) for ts in slots.values()]
    if tracer:
        values = per_layer(tracer, attempted, processes)
        print(f"traced job_p50_ms {1000 * statistics.median(mix):.3f} over {len(mix)} slots")
        for layer, (calls, total, own) in tracer.layer_table().items():
            print(f"layer {layer:9s} calls {calls:12d}  total_ms {total:12.1f}  self_ms {own:12.1f}")
        tracer.dump(os.path.join(workloads.OUT, f"trace-{args.workload}-{args.seed}.json"))
        wanted = spec["per_layer"]
    else:
        rss = child_rss if args.workload == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {
            "jobs_per_s": len(mix) / sum(mix),
            "job_p50_ms": 1000 * statistics.median(mix),
            "setup_s": statistics.median(setup[1] * k for setup, k in zip(setups, scale)),
            "peak_rss_mb": rss,
        }
        wanted = spec["end_to_end"]
    run_wall = perf_counter() - STARTED[0]
    print(f"{attempted} jobs in {n} blocks, {timed:.2f} s timed of {run_wall:.2f} s, {failed} failed", file=sys.stderr)
    with open(os.path.join(workloads.OUT, f"blocks-{args.workload}-{args.seed}-{args.trace}.json"), "w") as handle:
        json.dump({"job_seconds": blocks, "setup_seconds": setups, "reference_seconds": refs}, handle)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def per_layer(tracer, jobs, processes):
    """The per-layer metrics of BENCHMARK.json, per job unless named per process."""
    c, d, ms = tracer.counts, tracer.data, tracer.span_ms
    truncate_ms, solve_ms = ms("families", {"truncate"}), ms("games", {"solve"})
    n_proc = len(processes) or 1
    process_ms = 1000 * sum(p[0] for p in processes) / n_proc
    run_ms = ms("cli", {"run"}) / n_proc
    return {
        "ordinal.constructed": c["ordinal.__init__"] / jobs,
        "ordinal.quot_rem_calls": c["ordinal.quot_rem_omega_pow"] / jobs,
        "ordinal.compares": sum(c[f"ordinal.{n}"] for n in layertrace.COMPARES) / jobs,
        "ordinal.parsed": d["ordinal.parsed"] / jobs,
        "btree.is_max_calls": c["btree.is_max"] / jobs,
        "btree.children_calls": c["btree.children_labels"] / jobs,
        "btree.nodes_built": d["btree.nodes_built"] / jobs,
        "btree.json_ms": ms("btree", {"to_json", "from_json"}) / jobs,
        "families.truncate_ms": truncate_ms / jobs,
        "families.nodes_per_s": 1000 * d["families.truncate_nodes"] / truncate_ms if truncate_ms else 0.0,
        "families.children_calls": c["families.children"] / jobs,
        "families.member_calls": c["families.member"] / jobs,
        "families.branches_ms": ms("families", {"maximal_branches"}) / jobs,
        "families.query_ms": ms("families", layertrace.QUERIES) / jobs,
        "games.solve_ms": solve_ms / jobs,
        "games.verify_ms": ms("games", {"verify_strategy"}) / jobs,
        "games.extract_ms": ms("games", {"extract_collections"}) / jobs,
        "games.build_ms": ms("games", {"build_szlenk_game"}) / jobs,
        "games.payoff_evals": c["games.eval_payoff"] / jobs,
        "games.payoff_evals_per_leaf": c["games.eval_payoff"] / d["games.leaves"] if d["games.leaves"] else 0.0,
        "games.positions_per_s": 1000 * d["games.positions"] / solve_ms if solve_ms else 0.0,
        "games.json_ms": ms("games", layertrace.GAMES_JSON) / jobs,
        "cli.startup_ms": process_ms - run_ms if processes else 0.0,
        "cli.run_ms": run_ms,
        "cli.process_ms": process_ms,
        "cli.stdout_bytes": sum(p[2] for p in processes) / n_proc,
        "cli.child_rss_mb": sum(p[1] for p in processes) / n_proc,
    }


if __name__ == "__main__":
    main()
