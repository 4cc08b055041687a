import contextlib
import copy
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordgames import cli

GAMMA1_MODEL = {
    "dim": 1,
    "subspaces": [[]],
    "compacts": [[["1"]]],
    "functionals": [["1"]],
    "epsilon": "1/2",
    "norm": "max",
}

W_SZLENK_MODEL = {
    "dim": 2,
    "subspaces": [[], [["1", "-1"]], [["1", "1"]]],
    "compacts": [[["1/2", "1/2"]], [["1", "0"], ["0", "1"]], [["-1/2", "1"], ["1", "-1"]]],
    "functionals": [["1", "1"], ["1", "-1"], ["0", "1"]],
    "epsilon": "1/2",
    "norm": "max",
}

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# This checkout's sources, so child processes run the code under test
# whether or not the package is installed.
SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_domain_error(result):
    code, out, err = result
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


class TestOrd:
    def test_add(self, capsys):
        assert run_cli(capsys, "ord", "add", "w", "1") == (0, "w+1\n", "")

    def test_cmp(self, capsys):
        assert run_cli(capsys, "ord", "cmp", "w+1", "w*2")[1] == "less\n"
        assert run_cli(capsys, "ord", "cmp", "w", "w")[1] == "equal\n"
        assert run_cli(capsys, "ord", "cmp", "w^(w)", "w^3*9")[1] == "greater\n"

    def test_mul_pow_quotrem(self, capsys):
        assert run_cli(capsys, "ord", "mul", "w+1", "2")[1] == "w*2+1\n"
        assert run_cli(capsys, "ord", "pow", "w")[1] == "w^(w)\n"
        assert run_cli(capsys, "ord", "quotrem", "w^2*3+w+4", "2")[1] == "3 w+4\n"
        assert run_cli(capsys, "ord", "quotrem", "w^2", "2", "--above")[1] == "0 w^(2)\n"

    def test_domain_error_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "ord", "add", "x", "1")
        assert code == 1 and out == "" and "error" in err

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.run(["ord", "frobnicate"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("verb", ["add", "cmp"])
    def test_deep_nesting(self, verb):
        # in a fresh process, so the interpreter's own recursion limit applies:
        # nesting up to the cap works, and deeper text is a domain error
        from ordgames.ordinal import _MAX_NESTING

        assert _MAX_NESTING >= 300
        for depth in (_MAX_NESTING, _MAX_NESTING + 1, 3000):
            text = "w^(" * depth + "1" + ")" * depth
            result = subprocess.run(
                [sys.executable, "-m", "ordgames.cli", "ord", verb, text, text],
                capture_output=True,
                text=True,
                env=dict(os.environ, PYTHONPATH=SRC_DIR),
            )
            if depth == _MAX_NESTING:
                assert result.returncode == 0, result.stderr
                assert result.stdout.startswith("equal" if verb == "cmp" else "w^(w^(")
            else:
                assert "Traceback" not in result.stderr
                assert_domain_error((result.returncode, result.stdout, result.stderr))


class TestTree:
    def test_validate_order_rank_derive(self, capsys, tmp_path):
        tree_file = tmp_path / "tree.json"
        tree_file.write_text(json.dumps({"nodes": [["3"], ["3", "2"], ["3", "2", "1"]]}))
        assert run_cli(capsys, "tree", "validate", str(tree_file))[1] == "true\n"
        assert run_cli(capsys, "tree", "order", str(tree_file))[1] == "3\n"
        assert run_cli(capsys, "tree", "rank", str(tree_file), "3,2")[1] == "1\n"
        code, out, _ = run_cli(capsys, "tree", "derive", str(tree_file))
        assert code == 0
        assert json.loads(out) == {"nodes": [["3"], ["3", "2"]]}

    @pytest.mark.parametrize("path", ["", "2,2"])
    def test_rank_names_the_missing_path(self, capsys, tmp_path, path):
        tree_file = tmp_path / "tree.json"
        tree_file.write_text(json.dumps({"nodes": [["3"], ["3", "2"]]}))
        name = path or "the empty path"
        assert run_cli(capsys, "tree", "rank", str(tree_file), path) == (1, "", f"error: {name} is not a member\n")

    def test_invalid_tree(self, capsys, tmp_path):
        tree_file = tmp_path / "bad.json"
        tree_file.write_text(json.dumps({"nodes": [["3", "2"]]}))
        assert run_cli(capsys, "tree", "validate", str(tree_file))[1] == "false\n"
        assert run_cli(capsys, "tree", "order", str(tree_file))[0] == 1
        for data in ({"nodes": 5}, 5, {"nodes": [[None]]}):
            tree_file.write_text(json.dumps(data))
            assert_domain_error(run_cli(capsys, "tree", "validate", str(tree_file)))


class TestFamily:
    def test_member_and_maximal(self, capsys):
        assert run_cli(capsys, "family", "member", "Gamma", "1", "3,2")[1] == "true\n"
        assert run_cli(capsys, "family", "member", "Gamma", "1", "2,2")[1] == "false\n"
        assert run_cli(capsys, "family", "maximal", "Gamma", "1", "3,2,1")[1] == "true\n"

    def test_branches_with_sums(self, capsys):
        code, out, _ = run_cli(
            capsys, "family", "branches", "Gamma", "1", "--max-n", "3", "--sum"
        )
        lines = out.splitlines()
        assert code == 0 and len(lines) == 3
        assert all(line.endswith("1/1") for line in lines)
        assert lines[2] == "3,2,1\t1/3,1/3,1/3\t1/1"

    def test_branches_t_family(self, capsys):
        code, out, _ = run_cli(capsys, "family", "branches", "T", "3", "--max-n", "2")
        assert out == "3,2,1\n"

    def test_branches_limit(self, capsys):
        code, out, _ = run_cli(
            capsys, "family", "branches", "Gamma", "w", "--max-n", "2", "--limit", "4", "--sum"
        )
        lines = out.splitlines()
        assert len(lines) == 4 and all(line.endswith("1/1") for line in lines)

    @pytest.mark.parametrize("kind", ["Gamma", "T"])
    @pytest.mark.parametrize("limit", ["-1", str(sys.maxsize + 1)])
    def test_branches_limit_out_of_range(self, capsys, kind, limit):
        result = run_cli(capsys, "family", "branches", kind, "2", "--limit", limit)
        assert result == (1, "", f"error: --limit must be from 0 to {sys.maxsize}\n")

    def test_budget_json_flag(self, capsys):
        flag_form = run_cli(
            capsys, "family", "branches", "Gamma", "1", "--max-n", "3", "--sum"
        )
        json_form = run_cli(
            capsys, "family", "branches", "Gamma", "1", "--budget", '{"max_n": 3}', "--sum"
        )
        assert flag_form == json_form

    def test_children_weight_rank(self, capsys):
        assert run_cli(capsys, "family", "children", "Gamma", "1", "--max-n", "3")[1] == "1,2,3\n"
        assert run_cli(capsys, "family", "children", "Gamma", "1", "3,2")[1] == "1\n"
        assert run_cli(capsys, "family", "weight", "Gamma", "1", "3,2")[1] == "1/3\n"
        assert run_cli(capsys, "family", "rank", "Gamma", "2", "w+2,w+1")[1] == "w\n"
        assert run_cli(capsys, "family", "weight", "T", "3", "3,2")[0] == 1

    @pytest.mark.parametrize(
        "verb, kind, xi, family",
        [("maximal", "T", "3", "TFamily(3)"), ("rank", "Gamma", "2", "GammaFamily(2)"),
         ("weight", "Gamma", "2", "GammaFamily(2)"), ("rank", "T", "0", "TFamily(0)")],
    )
    @pytest.mark.parametrize("path", ["", "2,2"])
    def test_point_query_names_the_missing_path(self, capsys, verb, kind, xi, family, path):
        error = f"error: {path or 'the empty path'} is not a member of {family}\n"
        assert run_cli(capsys, "family", verb, kind, xi, path) == (1, "", error)

    def test_truncate(self, capsys):
        code, out, _ = run_cli(capsys, "family", "truncate", "T", "3", "--max-n", "1")
        assert json.loads(out) == {"nodes": [["3"], ["3", "2"], ["3", "2", "1"]]}

    def test_embed(self, capsys):
        assert run_cli(capsys, "family", "embed", "2", "3", "2,1")[1] == "3,2\n"
        assert run_cli(capsys, "family", "embed", "3", "2", "2,1")[0] == 1

    def test_deterministic_output(self, capsys):
        args = ("family", "branches", "Gamma", "2", "--max-n", "3", "--sum")
        first = run_cli(capsys, *args)
        second = run_cli(capsys, *args)
        assert first == second

    @pytest.mark.parametrize(
        "budget",
        [
            '{"max_n": null}',
            "[1]",
            "5",
            '{"max_n": 2, "max_depth": [1]}',
            '{"max_n": "3"}',
            '{"max_n": 2.5}',
        ],
        ids=["null-max-n", "array", "int", "array-max-depth", "string-max-n", "float-max-n"],
    )
    def test_wrong_shape_budget_is_a_domain_error(self, capsys, budget):
        assert_domain_error(run_cli(capsys, "family", "truncate", "Gamma", "1", "--budget", budget))

    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "T", "3000", ",".join(str(k) for k in range(3000, 0, -1))],
            ["truncate", "T", "900", "--max-n", "2", "--max-depth", "1000"],
        ],
        ids=["rank-T3000", "truncate-T900"],
    )
    def test_deep_t_paths(self, argv):
        # far deeper than the interpreter's recursion limit, in a fresh process
        result = subprocess.run(
            [sys.executable, "-m", "ordgames.cli", "family", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC_DIR),
        )
        assert result.returncode == 0 and "Traceback" not in result.stderr, result.stderr
        if argv[0] == "rank":
            assert result.stdout == "0\n"
        else:
            assert len(json.loads(result.stdout)["nodes"]) == 900

    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch):
        # a truncation too big for the address space ends in MemoryError
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(cli, "_run_family", exhausted)
        result = run_cli(capsys, "family", "truncate", "T", "w^(w)", "--max-n", "4")
        assert result == (1, "", "error: out of memory\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["truncate", "Gamma", "3000", "--max-n", "1"],
            ["member", "Gamma", "3000", "3000"],
            ["member", "Gamma", "w", "w^(3000)+1"],
        ],
        ids=["truncate-Gamma3000", "member-Gamma3000", "member-Gamma_w-deep-component"],
    )
    def test_deep_gamma_index_is_a_domain_error(self, argv):
        # the Gamma reader and walk recurse once per index level; thousands
        # of levels are past the recursion limit of every supported Python
        # (a few hundred may not be), and must end in one error line
        result = subprocess.run(
            [sys.executable, "-m", "ordgames.cli", "family", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC_DIR),
        )
        assert result.returncode == 1
        assert result.stderr.count("\n") == 1 and result.stderr.startswith("error: "), result.stderr
        assert "Traceback" not in result.stderr


class TestIntArguments:
    """Integer arguments take ASCII digits after an optional minus, as CNF
    text does; any other form is a usage error that names the argument."""

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["ord", "mul", "w", "٣"], "n"),  # an Arabic-Indic digit
            (["ord", "mul", "w", "1_0"], "n"),
            (["ord", "mul", "w", " 2"], "n"),
            (["ord", "mul", "w", "2 "], "n"),
            (["ord", "mul", "w", "+2"], "n"),
            (["ord", "mul", "w", ""], "n"),
            (["family", "children", "T", "3", "--max-n", "٢"], "--max-n"),
            (["family", "children", "T", "3", "--max-n", "２"], "--max-n"),  # a fullwidth digit
            (["family", "truncate", "T", "3", "--max-depth", "1_0"], "--max-depth"),
            (["family", "branches", "T", "2", "--limit", "٣"], "--limit"),
            (["game", "build", "1", "m.json", "--max-n", "+3"], "--max-n"),
        ],
    )
    def test_other_forms_are_usage_errors(self, capsys, argv, name):
        with pytest.raises(SystemExit) as excinfo:
            cli.run(argv)
        captured = capsys.readouterr()
        assert excinfo.value.code == 2 and captured.out == ""
        assert captured.err.splitlines()[-1].endswith(f"error: argument {name}: invalid int value: {argv[-1]!r}")

    def test_ascii_digits_and_a_minus(self, capsys):
        assert run_cli(capsys, "ord", "mul", "w", "3") == (0, "w*3\n", "")
        assert run_cli(capsys, "ord", "mul", "w", "03") == (0, "w*3\n", "")
        assert run_cli(capsys, "family", "children", "T", "3", "--max-n", "2", "--max-depth", "9")[:2] == (0, "3\n")
        assert_domain_error(run_cli(capsys, "ord", "mul", "w", "-1"))
        assert_domain_error(run_cli(capsys, "family", "children", "T", "3", "--max-n", "-0"))


class TestCbAndBound:
    def test_cb(self, capsys):
        assert run_cli(capsys, "cb", "step", "w^(w)")[1] == "w^(w)\n"
        assert run_cli(capsys, "cb", "stage", "w^2*3+w+4", "1")[1] == "w*3+1\n"
        assert run_cli(capsys, "cb", "index", "w^3*2+w")[1] == "4\n"

    def test_bound(self, capsys):
        assert run_cli(capsys, "bound", "dz", "w^2")[1] == "w^(3)\n"
        assert run_cli(capsys, "bound", "dz", "w^(w)")[1] == "w^(w)\n"
        assert run_cli(capsys, "bound", "dz", "0")[0] == 1


class TestGame:
    def build_game_file(self, capsys, tmp_path, xi="1", max_n="3"):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(GAMMA1_MODEL))
        code, out, _ = run_cli(
            capsys, "game", "build", xi, str(model_file), "--max-n", max_n
        )
        assert code == 0
        game_file = tmp_path / "game.json"
        game_file.write_text(out)
        return game_file

    def test_build_solve_verify_extract(self, capsys, tmp_path):
        game_file = self.build_game_file(capsys, tmp_path)
        code, out, _ = run_cli(capsys, "game", "solve", str(game_file))
        assert code == 0
        solution = json.loads(out)
        assert solution["winner"] == "II"
        solution_file = tmp_path / "solution.json"
        solution_file.write_text(out)
        assert run_cli(capsys, "game", "verify", str(game_file), str(solution_file))[1] == "true\n"
        code, out, _ = run_cli(capsys, "game", "extract", str(game_file), str(solution_file))
        assert code == 0
        collections = json.loads(out)
        assert set(collections) == {"compacts", "functionals", "selections"}
        assert collections["functionals"]["1:0"] == ["1/1"]

    @pytest.mark.parametrize(
        "model, xi, max_n, golden",
        [
            (GAMMA1_MODEL, "1", "3", "gamma1_model_gamma1_max_n3.txt"),
            (W_SZLENK_MODEL, "1", "2", "w_szlenk_gamma1_max_n2.txt"),
            (dict(W_SZLENK_MODEL, epsilon="1"), "1", "3", "w_szlenk_eps1_gamma1_max_n3.txt"),
        ],
    )
    def test_pipeline_golden_output(self, capsys, tmp_path, model, xi, max_n, golden):
        # pins the exact bytes, so that a change in the strategy the solver
        # picks or in the extracted witnesses cannot pass silently.  The third
        # game is won by I, whose strategy must prescribe a move at every
        # history it reaches, also below a reply with an empty selection set;
        # there is nothing to extract, so extract is a domain error
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(model))
        game_file = tmp_path / "game.json"
        solution_file = tmp_path / "solution.json"
        stdout = []
        for argv, out_file in [
            (["build", xi, str(model_file), "--max-n", max_n], game_file),
            (["solve", str(game_file)], solution_file),
            (["verify", str(game_file), str(solution_file)], None),
            (["extract", str(game_file), str(solution_file)], None),
        ]:
            code, out, err = run_cli(capsys, "game", *argv)
            if argv[0] == "extract" and json.loads(solution_file.read_text())["winner"] == "I":
                assert_domain_error((code, out, err))
            else:
                assert code == 0, err
            if out_file is not None:
                out_file.write_text(out)
            stdout.append(out)
        assert "".join(stdout).encode() == (GOLDEN_DIR / golden).read_bytes()

    def test_zero_denominator_is_a_domain_error(self, capsys, tmp_path):
        game_file = self.build_game_file(capsys, tmp_path)
        game = json.loads(game_file.read_text())
        game["weights"]["1"] = "1/0"
        game_file.write_text(json.dumps(game))
        assert_domain_error(run_cli(capsys, "game", "solve", str(game_file)))
        for key, value in [("epsilon", "1/0"), ("compacts", [[["1/0"]]])]:
            model_file = tmp_path / f"{key}.json"
            model_file.write_text(json.dumps(dict(GAMMA1_MODEL, **{key: value})))
            assert_domain_error(run_cli(capsys, "game", "build", "1", str(model_file)))

    @pytest.mark.parametrize(
        "model",
        [dict(GAMMA1_MODEL, subspaces=5), [GAMMA1_MODEL], dict(GAMMA1_MODEL, dim=None)],
        ids=["int-subspaces", "array", "null-dim"],
    )
    def test_wrong_shape_model_is_a_domain_error(self, capsys, tmp_path, model):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(model))
        assert_domain_error(run_cli(capsys, "game", "build", "1", str(model_file)))

    @pytest.mark.parametrize(
        "change",
        [
            lambda game: [1],
            lambda game: dict(game, weights=[1]),
            lambda game: dict(game, payoff=5),
            lambda game: dict(game, payoff={"table": 5}),
        ],
        ids=["array", "list-weights", "int-payoff", "int-table"],
    )
    def test_wrong_shape_game_is_a_domain_error(self, capsys, tmp_path, change):
        game_file = self.build_game_file(capsys, tmp_path)
        game_file.write_text(json.dumps(change(json.loads(game_file.read_text()))))
        assert_domain_error(run_cli(capsys, "game", "solve", str(game_file)))

    @pytest.mark.parametrize(
        "strategy",
        [[1], {"player": "I", "moves": [1]}, {"player": "I", "moves": {"": 5}}, {"strategy": 5}],
        ids=["array", "list-moves", "int-move", "int-strategy"],
    )
    def test_wrong_shape_strategy_is_a_domain_error(self, capsys, tmp_path, strategy):
        game_file = self.build_game_file(capsys, tmp_path)
        strategy_file = tmp_path / "strategy.json"
        strategy_file.write_text(json.dumps(strategy))
        for verb in ("verify", "extract"):
            assert_domain_error(run_cli(capsys, "game", verb, str(game_file), str(strategy_file)))

    @pytest.mark.parametrize(
        "key, message",
        [
            ("x:0:0|1:0", "bad CNF text at 'x'"),
            ("1:0|1:0", "'1:0' is not of the form label:subspace:compact"),
            ("1:a:0|1:0", "'1:a:0' is not of the form label:subspace:compact"),
            ("1:0", "'1:0' is not of the form history|label:subspace"),
            ("|1:0|1:0", "'|1:0|1:0' is not of the form history|label:subspace"),
            ("|1:0:0", "'1:0:0' is not of the form label:subspace"),
            ("|1:a", "'1:a' is not of the form label:subspace"),
            # the first bad part from the left names the error
            ("1:0:0;y:0:0;x:0:0|1:0", "bad CNF text at 'y'"),
        ],
        ids=[
            "bad-label", "two-field-part", "non-int-index", "no-offer", "two-bars",
            "three-field-offer", "non-int-offer-index", "two-bad-parts",
        ],
    )
    def test_malformed_strategy_key_message(self, capsys, tmp_path, key, message):
        game_file = self.build_game_file(capsys, tmp_path)
        strategy_file = tmp_path / "strategy.json"
        strategy_file.write_text(json.dumps({"player": "II", "moves": {"|1:0": 0, key: 0}}))
        for verb in ("verify", "extract"):
            result = run_cli(capsys, "game", verb, str(game_file), str(strategy_file))
            assert result == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "key, text",
        [("functionals", '[[Infinity]]'), ("epsilon", "1e400"), ("dim", "-Infinity"), ("compacts", "[[[1e400]]]")],
    )
    def test_infinite_number_is_a_domain_error(self, capsys, tmp_path, key, text):
        # JSON reads these numbers as float infinities, which no Fraction or int takes
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(dict(GAMMA1_MODEL, **{key: "@"})).replace('"@"', text))
        assert_domain_error(run_cli(capsys, "game", "build", "1", str(model_file)))
        game_file = self.build_game_file(capsys, tmp_path)
        game = json.loads(game_file.read_text())
        game["weights"]["1"] = "@"
        game_file.write_text(json.dumps(game).replace('"@"', text))
        assert_domain_error(run_cli(capsys, "game", "solve", str(game_file)))

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(dim=2.7), "not an integer dim: 2.7"),
            (dict(dim="2"), "not an integer dim: '2'"),
            (dict(dim=True), "not an integer dim: True"),
            (dict(epsilon=True), "not a rational: True"),
            (dict(compacts=[[[True, "0"]]]), "not a rational: True"),
            (dict(functionals=[["1", False]]), "not a rational: False"),
        ],
        ids=["float-dim", "text-dim", "bool-dim", "bool-epsilon", "bool-entry", "bool-functional"],
    )
    def test_model_numbers_must_be_numbers(self, capsys, tmp_path, change, message):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(dict(W_SZLENK_MODEL, **change)))
        result = run_cli(capsys, "game", "build", "1", str(model_file))
        assert result == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("limit", [None, 0], ids=["default-limit", "limit-off"])
    def test_json_integers_keep_the_digit_bound(self, capsys, tmp_path, limit):
        # a JSON integer is a number text too: 4,300 digits are read, 4,301
        # are refused with one message, whatever the interpreter's int limit
        old = sys.get_int_max_str_digits()
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        try:
            model_file, tree_file = tmp_path / "model.json", tmp_path / "tree.json"
            for digits, code in ((4300, 0), (4301, 1)):
                model_file.write_text(json.dumps(W_SZLENK_MODEL).replace('"epsilon": "1/2"', '"epsilon": ' + "1" * digits))
                tree_file.write_text('{"nodes": [[' + "1" * digits + "]]}")
                budget = '{"max_n": ' + "1" * digits + "}"
                results = [
                    run_cli(capsys, "game", "build", "1", str(model_file), "--max-n", "1"),
                    run_cli(capsys, "tree", "validate", str(tree_file)),
                    run_cli(capsys, "family", "children", "T", "3", "--budget", budget),
                ]
                if code:
                    assert results == [(1, "", "error: a JSON integer of more than 4300 digits\n")] * 3
                else:
                    assert [result[0] for result in results] == [0, 0, 0] and results[2][1] == "3\n"
        finally:
            sys.set_int_max_str_digits(old)

    def test_bool_weight_is_a_domain_error(self, capsys, tmp_path):
        game_file = self.build_game_file(capsys, tmp_path)
        game = json.loads(game_file.read_text())
        game["weights"]["1"] = True
        game_file.write_text(json.dumps(game))
        assert run_cli(capsys, "game", "solve", str(game_file)) == (1, "", "error: not a rational: True\n")

    def test_solve_deterministic(self, capsys, tmp_path):
        game_file = self.build_game_file(capsys, tmp_path, xi="2", max_n="2")
        first = run_cli(capsys, "game", "solve", str(game_file))
        second = run_cli(capsys, "game", "solve", str(game_file))
        assert first == second

    def test_stdin_input(self, capsys, tmp_path, monkeypatch):
        import io

        model_json = json.dumps(GAMMA1_MODEL)
        monkeypatch.setattr(sys, "stdin", io.StringIO(model_json))
        code, out, _ = run_cli(capsys, "game", "build", "0", "-", "--max-n", "1")
        assert code == 0
        assert json.loads(out)["weights"] == {"1": "1/1"}


class TestMissingKeys:
    """A document without a key its reader needs is a domain error naming
    the document and the key, never the bare KeyError text."""

    GAME = {"model": W_SZLENK_MODEL, "tree": {"nodes": [["1"]]}, "weights": {"1": "1"}, "payoff": "szlenk"}

    @pytest.mark.parametrize("argv, documents, message", [
        (["game", "verify", "game.json", "doc.json"], {"doc.json": W_SZLENK_MODEL}, 'strategy has no "player" key'),
        (["game", "verify", "game.json", "doc.json"], {"doc.json": {"player": "I"}}, 'strategy has no "moves" key'),
        (["game", "build", "1", "doc.json"], {"doc.json": {"nodes": [["1"]]}}, 'model has no "subspaces" key'),
        (["game", "build", "1", "doc.json"], {"doc.json": {k: v for k, v in W_SZLENK_MODEL.items() if k != "dim"}},
         'model has no "dim" key'),
        (["game", "build", "1", "doc.json"],
         {"doc.json": {k: v for k, v in W_SZLENK_MODEL.items() if k != "epsilon"}}, 'model has no "epsilon" key'),
        (["game", "solve", "doc.json"], {"doc.json": W_SZLENK_MODEL}, 'game has no "model" key'),
        (["game", "solve", "doc.json"], {"doc.json": {k: v for k, v in GAME.items() if k != "payoff"}},
         'game has no "payoff" key'),
        (["game", "solve", "doc.json"], {"doc.json": {**GAME, "tree": {}}}, 'tree has no "nodes" key'),
        (["tree", "order", "doc.json"], {"doc.json": W_SZLENK_MODEL}, 'tree has no "nodes" key'),
        (["family", "truncate", "T", "1", "--budget", '{"max_depth": 3}'], {}, 'budget has no "max_n" key'),
    ])
    def test_reader_names_missing_key(self, capsys, tmp_path, monkeypatch, argv, documents, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "game.json").write_text(json.dumps(self.GAME))
        for name, document in documents.items():
            (tmp_path / name).write_text(json.dumps(document))
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("document, message", [
        ({"xi": "2"}, 'family has no "kind" key'), ({"kind": "T"}, 'family has no "xi" key'),
    ])
    def test_family_reader_names_missing_key(self, document, message):
        # no verb reads a family document, so the library call stands in
        from ordgames.families import family_from_json

        with pytest.raises(ValueError, match=f"^{message}$"):
            family_from_json(document)


# CNF-like argument text: random strings over the CNF alphabet, and
# near-CNF strings with random exponents, coefficients and tails
CNF_TEXT = st.one_of(
    st.text(alphabet="w^*+()0123456789 ,", max_size=14),
    st.from_regex(r"\Aw(\^\(?[w0-9+]{1,4}\)?)?(\*[0-9]{1,2})?(\+[0-9w]{1,3}){0,2}\Z"),
)

FUZZ_ARGV = st.one_of(
    st.tuples(st.just("ord"), st.sampled_from(["add", "cmp", "mul", "quotrem"]), CNF_TEXT, CNF_TEXT),
    st.tuples(st.just("ord"), st.just("pow"), CNF_TEXT),
    st.tuples(
        st.just("family"), st.sampled_from(["member", "rank"]), st.sampled_from(["T", "Gamma"]), CNF_TEXT, CNF_TEXT
    ),
    # the number of root labels grows as max_n to the power of the index's
    # finite part, and no budget caps it yet: --max-n 1 keeps each call small
    st.tuples(
        st.just("family"), st.just("children"), st.sampled_from(["T", "Gamma"]), CNF_TEXT, CNF_TEXT,
        st.just("--max-n"), st.just("1"),
    ),
)


class TestFuzz:
    """``cli.run`` on random argument text: exit 0, 1 or 2, never a
    traceback, and a domain error is one line."""

    @settings(max_examples=100, deadline=None)
    @given(FUZZ_ARGV)
    def test_exit_code_contract(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(list(argv))
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        err = err.getvalue()
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        if code == 0:
            assert err == "", (argv, err)
        elif code == 1:
            assert (out.getvalue(), err.startswith("error: "), err.count("\n")) == ("", True, 1), (argv, err)
        else:  # the usage text, then one error line
            lines = err.splitlines()
            assert lines[-1].startswith("ordgames ") and ": error: " in lines[-1], (argv, err)
            assert sum(": error: " in line for line in lines) == 1, (argv, err)


# one valid argv per verb, by group; the parser is all that reads them here
VALID_ARGS = {
    "ord": {"add": ["w", "1"], "cmp": ["w", "1"], "mul": ["w", "2"], "pow": ["w"], "quotrem": ["w^2", "1", "--above"]},
    "tree": {"validate": ["t.json"], "order": ["t.json"], "derive": ["-"], "rank": ["t.json", "1"]},
    "family": {
        "member": ["T", "3", "3"], "maximal": ["Gamma", "w", "2"], "weight": ["Gamma", "1", "1"],
        "rank": ["T", "3", "3,2"], "children": ["T", "3", "--max-n", "2"],
        "branches": ["Gamma", "2", "--sum", "--limit", "3", "--budget", '{"max_n": 2}'],
        "truncate": ["T", "3", "--max-depth", "9"], "embed": ["2", "3", "2,1"],
    },
    "cb": {"step": ["w"], "stage": ["w", "1"], "index": ["w"]},
    "bound": {"dz": ["w"]},
    "game": {"solve": ["g.json"], "verify": ["g.json", "s.json"], "extract": ["g.json", "s.json"], "build": ["1", "m.json"]},
}


def parser_argvs():
    argvs = [["-h"], ["--"], ["nope"], ["nope", "add"], [], ["--", "ord", "add", "w", "1"]]
    for group, verbs in VALID_ARGS.items():
        argvs += [[group, "-h"], [group], [group, "nope"]]
        for verb, args in verbs.items():
            argvs += [[group, verb, "-h"], [group, verb], [group, verb, *args, "--nope"], [group, verb, *args]]
    return argvs


def parsed(call, argv):
    """(``call(argv)`` or its exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestOneGroupParser:
    """``run`` expands only the verbs of the group its first word names, and
    must answer every argv as the parser of all groups does."""

    def test_argvs_name_every_verb(self):
        assert {group: list(verbs) for group, (_, verbs) in cli._GROUPS.items()} == {
            group: list(verbs) for group, verbs in VALID_ARGS.items()
        }

    @pytest.mark.parametrize("argv", parser_argvs(), ids=" ".join)
    def test_same_answer_as_full_parser(self, monkeypatch, argv):
        namespaces = []
        for group in cli._GROUPS:
            monkeypatch.setattr(cli, f"_run_{group}", namespaces.append)
        result, out, err = parsed(cli.run, argv)
        one_group = (namespaces[0] if namespaces else result, out, err)
        assert one_group == parsed(cli._build_parser(None).parse_args, argv)

    def test_game_verb_expands_game_group_only(self, monkeypatch, capsys):
        build, groups = cli._build_parser, []
        monkeypatch.setattr(cli, "_build_parser", lambda group: groups.append(group) or build(group))
        monkeypatch.setattr(cli, "_run_game", lambda args: None)
        assert cli.run(["game", "solve", "g.json"]) == 0
        assert groups == ["game"]
        with pytest.raises(SystemExit):  # the ord group has no verbs there
            build("game").parse_args(["ord", "add", "w", "1"])
        assert "unrecognized arguments: add w 1" in capsys.readouterr().err


# A value put in place of one in a pipeline document: JSON numbers that
# Python reads as non-finite floats (BIG is written as 1e400), other types,
# bad CNF and a zero denominator; DROP deletes the key or element instead
BIG, DROP = "@1e400@", "@drop@"
BAD_VALUES = [float("inf"), float("-inf"), float("nan"), BIG, True, False, None, [], {}, "w^", "x+1", "", "1/0", DROP]

# the verbs that read each document, which is kept in "<name>.json"
READERS = {
    "model": [["game", "build", "1", "model.json", "--max-n", "2"]],
    "game": [["game", "solve", "game.json"]] + [["game", verb, "game.json", "solution.json"] for verb in ("verify", "extract")],
    "solution": [["game", verb, "game.json", "solution.json"] for verb in ("verify", "extract")],
    "tree": [["tree", verb, "tree.json"] for verb in ("validate", "order", "derive")],
}


@functools.cache
def pipeline_documents():
    """The W-szlenk Gamma_1@2 model, its game, the solver's output and the game's tree."""
    from ordgames import games
    from ordgames.families import TruncationBudget
    from ordgames.ordinal import ONE

    game = games.build_szlenk_game(ONE, TruncationBudget(2), games.model_from_json(W_SZLENK_MODEL))
    winner, strategy = games.solve(game)
    docs = {
        "model": W_SZLENK_MODEL,
        "game": games.game_to_json(game),
        "solution": {"winner": winner, "strategy": games.strategy_to_json(strategy)},
    }
    docs["tree"] = docs["game"]["tree"]
    return json.loads(json.dumps(docs))


def json_locations(data, at=()):
    """Every place in a JSON document, as the keys that lead to it."""
    yield at
    if isinstance(data, (dict, list)):
        for key, value in data.items() if isinstance(data, dict) else enumerate(data):
            yield from json_locations(value, at + (key,))


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(sorted(READERS)))
    at = draw(st.sampled_from(list(json_locations(pipeline_documents()[name]))))
    return name, at, draw(st.sampled_from(BAD_VALUES))


def mutated_text(doc, at, value):
    """``doc`` as JSON text, with ``value`` put in at ``at`` (or the value there dropped)."""
    holder = [copy.deepcopy(doc)]  # so that the whole document can be replaced or dropped too
    parent, key = holder, 0
    for step in at:
        parent, key = parent[key], step
    if value == DROP:
        del parent[key]
    else:
        parent[key] = value
    return json.dumps(holder[0]).replace(json.dumps(BIG), "1e400") if holder else ""


class TestJsonShapeFuzz:
    """``cli.run`` on the documents of a W-szlenk pipeline with one value
    changed or dropped: exit 0 or 1, never an exception, and a domain
    error is one line."""

    @settings(max_examples=150, deadline=None)
    @given(mutations())
    @example(("model", ("functionals", 0, 0), float("inf")))
    @example(("model", ("epsilon",), BIG))
    @example(("game", ("weights", "2"), float("-inf")))
    def test_exit_code_contract(self, mutation):
        name, at, value = mutation
        docs = pipeline_documents()
        with tempfile.TemporaryDirectory() as folder:
            for doc in docs:
                with open(os.path.join(folder, f"{doc}.json"), "w") as handle:
                    handle.write(mutated_text(docs[doc], at, value) if doc == name else json.dumps(docs[doc]))
            for verb in READERS[name]:
                argv = [os.path.join(folder, word) if word.endswith(".json") else word for word in verb]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run(argv)
                err = err.getvalue()
                assert code in (0, 1) and "Traceback" not in err, (mutation, verb, code, err)
                if code == 1:
                    assert (out.getvalue(), err.startswith("error: "), err.count("\n")) == ("", True, 1), (mutation, verb, err)


class TestConsoleScript:
    def test_entry_point(self):
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC_DIR, inherited])))
        result = subprocess.run(
            [sys.executable, "-m", "ordgames.cli", "ord", "add", "w", "1"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "w+1\n"

    def test_bytes_identical_across_hash_seeds(self, tmp_path):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(GAMMA1_MODEL))
        outputs = []
        for seed in ("1", "2"):
            env = {"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin", "PYTHONPATH": SRC_DIR}
            if "PYTHONDONTWRITEBYTECODE" in os.environ:  # leave no bytecode in src/
                env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
            build = subprocess.run(
                [sys.executable, "-m", "ordgames.cli", "game", "build", "2",
                 str(model_file), "--max-n", "2"],
                capture_output=True,
                env=env,
                cwd=tmp_path,
            )
            assert build.returncode == 0, build.stderr.decode()
            game_file = tmp_path / f"game{seed}.json"
            game_file.write_bytes(build.stdout)
            solved = subprocess.run(
                [sys.executable, "-m", "ordgames.cli", "game", "solve", str(game_file)],
                capture_output=True,
                env=env,
                cwd=tmp_path,
            )
            assert solved.returncode == 0, solved.stderr.decode()
            outputs.append(build.stdout + solved.stdout)
        assert outputs[0] == outputs[1]


# the public names of ``ordgames`` before its re-exports became lazy
PACKAGE_NAMES = [
    "DerivationSystem", "FiniteBTree", "GameSpec", "GammaFamily", "INFINITY", "ModelSpace",
    "NodePath", "OMEGA", "ONE", "Ordinal", "OrdinalError", "PAYOFF_SZLENK", "Strategy",
    "TFamily", "TruncationBudget", "ZERO", "brute_force_winner", "btree", "budget_from_json",
    "build_szlenk_game", "cb_index", "cb_stage", "cb_step", "compare", "complete_substrategy",
    "derivation", "derivation_index", "dz_bound", "eval_payoff", "extract_collections",
    "families", "family_from_json", "family_to_json", "games", "gamma_family", "make_family",
    "monotone_embedding", "omega_mul", "omega_pow", "ordinal", "path_from_text", "path_to_text",
    "quot_rem_omega_pow", "solve", "subtract_left", "t_family", "verify_monotone_map",
    "verify_strategy",
]


def run_isolated(code, *args):
    """Run ``code`` under ``python -S`` on this checkout; its last stdout line as JSON."""
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC_DIR),
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


class TestImports:
    LOADED = """
import json, sys
from ordgames import cli
code = cli.run(sys.argv[1:])
watched = ("ordgames.games", "ordgames.derivation", "dataclasses")
print(json.dumps([code, [m for m in watched if m in sys.modules]]))
"""

    def test_family_verb_loads_no_games_or_derivation(self):
        code, loaded = run_isolated(self.LOADED, "family", "truncate", "T", "3")
        assert (code, loaded) == (0, [])

    def test_game_build_loads_no_derivation(self, tmp_path):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(GAMMA1_MODEL))
        code, loaded = run_isolated(self.LOADED, "game", "build", "1", str(model_file))
        assert (code, loaded) == (0, ["ordgames.games"])

    def test_cb_verb_loads_no_games_or_families(self):
        # derivation imports btree, for the immutable-value base, and no more
        code, loaded = run_isolated(
            """
import json, sys
from ordgames import cli
code = cli.run(sys.argv[1:])
watched = ("ordgames.derivation", "ordgames.btree", "ordgames.games", "ordgames.families")
print(json.dumps([code, [m for m in watched if m in sys.modules]]))
""",
            "cb", "index", "w",
        )
        assert (code, loaded) == (0, ["ordgames.derivation", "ordgames.btree"])

    def test_public_names(self):
        names = run_isolated(
            """
import json, sys, ordgames
bare = sorted(m for m in sys.modules if m.startswith("ordgames."))
listed = [n for n in dir(ordgames) if not n.startswith("_")]
star = {}
exec("from ordgames import *", star)
print(json.dumps([bare, listed, sorted(ordgames.__all__), sorted(n for n in star if n[0] != "_")]))
"""
        )
        assert names == [[], PACKAGE_NAMES, PACKAGE_NAMES, PACKAGE_NAMES]

    def test_submodules_resolve_after_a_bare_import(self):
        found = run_isolated(
            """
import json, ordgames
print(json.dumps([ordgames.games.solve.__module__, ordgames.Ordinal.__module__]))
"""
        )
        assert found == ["ordgames.games", "ordgames.ordinal"]
