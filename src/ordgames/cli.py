"""Batch command-line front end.

One verb per library operation, exact text/JSON in and out.  Exit codes:
0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .ordinal import Ordinal, compare, omega_pow, quot_rem_omega_pow

# Each verb group imports the layers it uses when it runs, so that a process
# loads no more of the package than its verb needs.


def _read_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as handle:
        return json.load(handle)


def _emit_json(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _budget(args):
    from .families import TruncationBudget, budget_from_json
    if args.budget is not None:
        return budget_from_json(args.budget)
    return TruncationBudget(max_n=args.max_n, max_depth=args.max_depth)


def _add_budget_flags(parser) -> None:
    parser.add_argument("--max-n", type=int, default=4, help="breadth cap at infinite branching")
    parser.add_argument("--max-depth", type=int, default=512, help="safety cap on path length")
    parser.add_argument(
        "--budget", default=None, help='JSON {"max_n": N, "max_depth": D}, overrides the flags'
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ordgames", description=__doc__)
    top = parser.add_subparsers(dest="group", required=True)

    ord_cmd = top.add_parser("ord", help="ordinal arithmetic in Cantor normal form")
    ord_sub = ord_cmd.add_subparsers(dest="verb", required=True)
    p = ord_sub.add_parser("add")
    p.add_argument("a")
    p.add_argument("b")
    p = ord_sub.add_parser("cmp")
    p.add_argument("a")
    p.add_argument("b")
    p = ord_sub.add_parser("mul")
    p.add_argument("a")
    p.add_argument("n", type=int)
    p = ord_sub.add_parser("pow")
    p.add_argument("a")
    p = ord_sub.add_parser("quotrem")
    p.add_argument("a")
    p.add_argument("g")
    p.add_argument("--above", action="store_true", help="remainder in (0, w^g] instead of [0, w^g)")

    tree_cmd = top.add_parser("tree", help="finite B-tree queries")
    tree_sub = tree_cmd.add_subparsers(dest="verb", required=True)
    for verb in ("validate", "order", "derive"):
        p = tree_sub.add_parser(verb)
        p.add_argument("file", help="tree JSON file, or - for stdin")
    p = tree_sub.add_parser("rank")
    p.add_argument("file")
    p.add_argument("path", help="comma-separated CNF labels")

    fam_cmd = top.add_parser("family", help="the T and Gamma tree families")
    fam_sub = fam_cmd.add_subparsers(dest="verb", required=True)
    for verb in ("member", "maximal", "weight", "rank"):
        p = fam_sub.add_parser(verb)
        p.add_argument("kind", choices=["T", "Gamma"])
        p.add_argument("xi")
        p.add_argument("path")
    p = fam_sub.add_parser("children")
    p.add_argument("kind", choices=["T", "Gamma"])
    p.add_argument("xi")
    p.add_argument("path", nargs="?", default="", help="empty for the virtual root")
    _add_budget_flags(p)
    p = fam_sub.add_parser("branches")
    p.add_argument("kind", choices=["T", "Gamma"])
    p.add_argument("xi")
    _add_budget_flags(p)
    p.add_argument("--sum", action="store_true", help="append the branch weight sum column")
    p.add_argument("--limit", type=int, default=None, help="stop after this many branches")
    p = fam_sub.add_parser("truncate")
    p.add_argument("kind", choices=["T", "Gamma"])
    p.add_argument("xi")
    _add_budget_flags(p)
    p = fam_sub.add_parser("embed")
    p.add_argument("xi")
    p.add_argument("gamma")
    p.add_argument("path")

    cb_cmd = top.add_parser("cb", help="Cantor-Bendixson derivatives of [1, a]")
    cb_sub = cb_cmd.add_subparsers(dest="verb", required=True)
    p = cb_sub.add_parser("step")
    p.add_argument("a")
    p = cb_sub.add_parser("stage")
    p.add_argument("a")
    p.add_argument("g")
    p = cb_sub.add_parser("index")
    p.add_argument("a")

    bound_cmd = top.add_parser("bound", help="index arithmetic bounds")
    bound_sub = bound_cmd.add_subparsers(dest="verb", required=True)
    p = bound_sub.add_parser("dz")
    p.add_argument("sz")

    game_cmd = top.add_parser("game", help="games on finite B-trees")
    game_sub = game_cmd.add_subparsers(dest="verb", required=True)
    p = game_sub.add_parser("solve")
    p.add_argument("file", help="game JSON file, or - for stdin")
    p = game_sub.add_parser("verify")
    p.add_argument("file")
    p.add_argument("strategy", help="solver output JSON file")
    p = game_sub.add_parser("extract")
    p.add_argument("file")
    p.add_argument("strategy")
    p = game_sub.add_parser("build")
    p.add_argument("xi")
    p.add_argument("model", help="model JSON file, or - for stdin")
    _add_budget_flags(p)

    return parser


def _run_ord(args) -> None:
    if args.verb == "add":
        print(Ordinal(args.a) + Ordinal(args.b))
    elif args.verb == "cmp":
        print(("less", "equal", "greater")[compare(args.a, args.b) + 1])
    elif args.verb == "mul":
        print(Ordinal(args.a) * args.n)
    elif args.verb == "pow":
        print(omega_pow(args.a))
    else:
        q, r = quot_rem_omega_pow(args.a, args.g, remainder_in_half_open_above=args.above)
        print(q, r)


def _run_tree(args) -> None:
    from .btree import FiniteBTree, path_from_text
    tree = FiniteBTree.from_json(_read_json(args.file))
    if args.verb == "validate":
        print("true" if tree.validate() else "false")
        return
    if not tree.validate():
        raise ValueError("not a valid B-tree")
    if args.verb == "order":
        print(tree.order())
    elif args.verb == "rank":
        print(tree.rank(path_from_text(args.path)))
    else:
        _emit_json(tree.derive().to_json())


def _run_family(args) -> None:
    from .btree import _frac_text, path_from_text, path_to_text
    from .families import make_family, monotone_embedding
    if args.verb == "embed":
        phi = monotone_embedding(Ordinal(args.xi), Ordinal(args.gamma))
        print(path_to_text(phi(path_from_text(args.path))))
        return
    family = make_family(args.kind, Ordinal(args.xi))
    if args.verb == "member":
        print("true" if family.member(path_from_text(args.path)) else "false")
    elif args.verb == "maximal":
        print("true" if family.is_maximal(path_from_text(args.path)) else "false")
    elif args.verb == "weight":
        if args.kind != "Gamma":
            raise ValueError("weights are defined on the Gamma family only")
        print(_frac_text(family.weight(path_from_text(args.path))))
    elif args.verb == "rank":
        print(family.rank(path_from_text(args.path)))
    elif args.verb == "children":
        labels = family.children(path_from_text(args.path), _budget(args))
        print(",".join(str(label) for label in labels))
    elif args.verb == "truncate":
        _emit_json(family.truncate(_budget(args)).to_json())
    elif args.limit is not None and not 0 <= args.limit <= sys.maxsize:
        raise ValueError(f"--limit must be from 0 to {sys.maxsize}")
    elif args.kind == "Gamma":  # branches, with their prefix weights
        for branch, weights in itertools.islice(family.weighted_branches(_budget(args)), args.limit):
            columns = [path_to_text(branch), ",".join(_frac_text(w) for w in weights)]
            if args.sum:
                columns.append(_frac_text(sum(weights)))
            print("\t".join(columns))
    else:  # branches
        for branch in itertools.islice(family.maximal_branches(_budget(args)), args.limit):
            print(path_to_text(branch))


def _run_cb(args) -> None:
    from .derivation import cb_index, cb_stage, cb_step
    if args.verb == "step":
        print(cb_step(Ordinal(args.a)))
    elif args.verb == "stage":
        print(cb_stage(Ordinal(args.a), Ordinal(args.g)))
    else:
        print(cb_index(Ordinal(args.a)))


def _run_game(args) -> None:
    from . import games
    if args.verb == "build":
        model = games.model_from_json(_read_json(args.model))
        game = games.build_szlenk_game(Ordinal(args.xi), _budget(args), model)
        _emit_json(games.game_to_json(game))
        return
    game = games.game_from_json(_read_json(args.file))
    if args.verb == "solve":
        winner, strategy = games.solve(game)
        _emit_json({"winner": winner, "strategy": games.strategy_to_json(strategy)})
        return
    # a strategy file, or the output of "game solve" that wraps one
    data = _read_json(args.strategy)
    if isinstance(data, dict) and "strategy" in data:
        data = data["strategy"]
    strategy = games.strategy_from_json(data)
    if args.verb == "verify":
        print("true" if games.verify_strategy(game, strategy) else "false")
    else:  # extract
        collections = games.extract_collections(game, strategy)
        _emit_json(games.collections_to_json(collections))


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.group == "ord":
            _run_ord(args)
        elif args.group == "tree":
            _run_tree(args)
        elif args.group == "family":
            _run_family(args)
        elif args.group == "cb":
            _run_cb(args)
        elif args.group == "bound":
            from .derivation import dz_bound
            print(dz_bound(Ordinal(args.sz)))
        else:
            _run_game(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        # the Gamma step and walk recurse once per index level, so a Gamma
        # index (or a path's component) a few hundred levels deep ends here
        print("error: input nested too deeply to evaluate", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
