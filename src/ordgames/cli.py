"""Batch command-line front end.

One verb per library operation, exact text/JSON in and out.  Exit codes:
0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .ordinal import _INT, Ordinal, _json_int, compare, omega_pow, quot_rem_omega_pow

# Each verb group imports the layers it uses when it runs, so that a process
# loads no more of the package than its verb needs.


def _read_json(path: str):
    if path == "-":
        return json.load(sys.stdin, parse_int=_json_int)
    with open(path) as handle:
        return json.load(handle, parse_int=_json_int)


def _emit_json(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _print(answer) -> None:  # a one-line answer, a bool as true or false
    print(("true" if answer else "false") if isinstance(answer, bool) else answer)


def _budget(args):
    from .families import budget_from_json
    flags = {"max_n": args.max_n, "max_depth": args.max_depth}
    return budget_from_json(flags if args.budget is None else args.budget)


def _int(text: str) -> int:
    """An int argument: ASCII digits after an optional minus, as in CNF text."""
    if not _INT.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


# Per group, its help text and per verb the verb's arguments in order, each a
# name or a (name, add_argument keywords) pair.  A process expands only the
# verbs of the group it runs, for a short start-up, and finds the group's
# _run_<group> by name when it runs it, so that a test can patch a runner.
_BUDGET = (
    ("--max-n", {"type": _int, "default": 4, "help": "breadth cap at infinite branching"}),
    ("--max-depth", {"type": _int, "default": 512, "help": "safety cap on path length"}),
    ("--budget", {"help": 'JSON {"max_n": N, "max_depth": D}, overrides the flags'}),
)
_KIND = (("kind", {"choices": ("T", "Gamma")}), "xi")
_TREE_FILE = (("file", {"help": "tree JSON file, or - for stdin"}),)

_GROUPS = {
    "ord": ("ordinal arithmetic in Cantor normal form", {
        "add": ("a", "b"),
        "cmp": ("a", "b"),
        "mul": ("a", ("n", {"type": _int})),
        "pow": ("a",),
        "quotrem": ("a", "g", ("--above", {
            "action": "store_true", "help": "remainder in (0, w^g] instead of [0, w^g)"})),
    }),
    "tree": ("finite B-tree queries", {
        "validate": _TREE_FILE, "order": _TREE_FILE, "derive": _TREE_FILE,
        "rank": ("file", ("path", {"help": "comma-separated CNF labels"})),
    }),
    "family": ("the T and Gamma tree families", {
        "member": _KIND + ("path",),
        "maximal": _KIND + ("path",),
        "weight": _KIND + ("path",),
        "rank": _KIND + ("path",),
        "children": _KIND + (("path", {
            "nargs": "?", "default": "", "help": "empty for the virtual root"}),) + _BUDGET,
        "branches": _KIND + _BUDGET + (
            ("--sum", {"action": "store_true", "help": "append the branch weight sum column"}),
            ("--limit", {"type": _int, "help": "stop after this many branches"})),
        "truncate": _KIND + _BUDGET,
        "embed": ("xi", "gamma", "path"),
    }),
    "cb": ("Cantor-Bendixson derivatives of [1, a]",
           {"step": ("a",), "stage": ("a", "g"), "index": ("a",)}),
    "bound": ("index arithmetic bounds", {"dz": ("sz",)}),
    "game": ("games on finite B-trees", {
        "solve": (("file", {"help": "game JSON file, or - for stdin"}),),
        "verify": ("file", ("strategy", {"help": "solver output JSON file"})),
        "extract": ("file", "strategy"),
        "build": ("xi", ("model", {"help": "model JSON file, or - for stdin"})) + _BUDGET,
    }),
}


def _build_parser(group=None) -> argparse.ArgumentParser:
    """Every group, with the verbs of ``group`` alone (of all groups if None)."""
    parser = argparse.ArgumentParser(prog="ordgames", description=__doc__)
    top = parser.add_subparsers(dest="group", required=True)
    for group_name, (help_text, verbs) in _GROUPS.items():
        group_parser = top.add_parser(group_name, help=help_text)
        if group not in (None, group_name):
            continue
        verb_parsers = group_parser.add_subparsers(dest="verb", required=True)
        for verb, arguments in verbs.items():
            verb_parser = verb_parsers.add_parser(verb)
            for argument in arguments:
                name, keywords = (argument, {}) if isinstance(argument, str) else argument
                verb_parser.add_argument(name, **keywords)
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
        _print(tree.validate())
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
    if args.verb in ("member", "maximal", "weight", "rank"):  # the point queries
        if args.verb == "weight" and args.kind != "Gamma":
            raise ValueError("weights are defined on the Gamma family only")
        query = family.is_maximal if args.verb == "maximal" else getattr(family, args.verb)
        answer = query(path_from_text(args.path))
        _print(_frac_text(answer) if args.verb == "weight" else answer)
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


def _run_bound(args) -> None:
    from .derivation import dz_bound
    print(dz_bound(Ordinal(args.sz)))


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
        _print(games.verify_strategy(game, strategy))
    else:  # extract
        collections = games.extract_collections(game, strategy)
        _emit_json(games.collections_to_json(collections))


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a group-named first word is always that group to argparse; any other
    # first word ("-h", "--", a typo) gets the full parser's answer
    args = _build_parser(argv[0] if argv and argv[0] in _GROUPS else None).parse_args(argv)
    try:
        globals()[f"_run_{args.group}"](args)
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
