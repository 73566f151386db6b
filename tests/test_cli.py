import ast
import decimal
import hashlib
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

import besearch.cli
import besearch.oracles
from besearch import (
    MAX_SHOTS, AndOrTree, GATE_AND, GATE_OR, InvariantError, dump_tree, evaluate_quantum_cost,
    level_costs,
)
from besearch.cli import COMMANDS, HELP, build_parser, resolve_config, run_cli
from besearch.oracles import MAX_SCENARIOS, UnitarityError, run_fact_checks


def run(capsys, *argv):
    code = run_cli(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSearch:
    def test_smoke(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "81", "--t", "1", "--seed", "7")
        assert code == 0
        assert "outcome: found" in out
        assert "cost: " in out
        assert "seed=7" in out

    def test_no_solutions(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "81", "--t", "0", "--seed", "1")
        assert code == 0
        assert "outcome: no_solutions" in out

    def test_promise_violation_is_usage_error(self, capsys):
        code, _, err = run(capsys, "search", "--n", "81", "--t", "1", "--p-good", "0.5")
        assert code == 2
        assert "p_good" in err

    def test_relaxed_mode(self, capsys):
        code, out, _ = run(
            capsys, "search", "--n", "81", "--t", "1", "--p-good", "0.5", "--relaxed"
        )
        assert code == 0
        assert "strict=False" in out

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(capsys, "search", "--bogus")[0] == 2

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run(capsys)[0] == 2


class TestCurve:
    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        code, out, _ = run(
            capsys, "curve", "--n", "729", "--t", "1", "--csv", str(path)
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# besearch-csv schema=1 cmd=curve")
        assert lines[1] == "m,alpha,beta,theta,p_solution,cost,strict,config_hash,seed"
        assert len(lines) == 2 + 4  # m = 0..3 plus comment and header

    def test_m_max_flag(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        code, _, _ = run(
            capsys, "curve", "--n", "81", "--m-max", "6", "--csv", str(path)
        )
        assert code == 0
        assert len(path.read_text().splitlines()) == 2 + 7


class TestSweep:
    def test_rows_and_reproducibility(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--n", "9,81,729", "--t", "1", "--seed", "3"]
        assert run(capsys, *args, "--csv", str(a))[0] == 0
        assert run(capsys, *args, "--csv", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[1].split(",")[:3] == ["n", "t", "blocks"]
        first = dict(zip(lines[1].split(","), lines[2].split(",")))
        assert first["n"] == "9"
        assert first["full_sweep_cost"] == "20000"
        assert first["seed"] == "3"
        assert len(first["config_hash"]) == 12

    def test_different_seed_changes_hash_and_rows(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "sweep", "--n", "81", "--t", "1", "--seed", "3", "--csv", str(a))
        run(capsys, "sweep", "--n", "81", "--t", "1", "--seed", "4", "--csv", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_json_mirror(self, capsys, tmp_path):
        path = tmp_path / "rows.json"
        code, _, _ = run(
            capsys, "sweep", "--n", "9,81", "--t", "0", "--seed", "2",
            "--json", str(path),
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["cmd"] == "sweep"
        assert [row["n"] for row in doc["rows"]] == [9, 81]
        assert all(row["outcome"] == "no_solutions" for row in doc["rows"])

    def test_bad_grid_is_usage_error(self, capsys):
        assert run(capsys, "sweep", "--n", "9,banana")[0] == 2


class TestConfigMerge:
    def test_key_value_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# demo\nn = 729\nt = 1\nseed = 11\n")
        code, out, _ = run(capsys, "search", "--config", str(cfg))
        assert code == 0
        assert "n=729" in out and "seed=11" in out

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = 729\nseed = 11\n")
        code, out, _ = run(capsys, "search", "--config", str(cfg), "--seed", "12")
        assert code == 0
        assert "seed=12" in out

    def test_json_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n": 81, "t": 0}')
        code, out, _ = run(capsys, "search", "--config", str(cfg))
        assert code == 0
        assert "outcome: no_solutions" in out

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("frobnicate = 1\n")
        code, _, err = run(capsys, "search", "--config", str(cfg))
        assert code == 2
        assert "frobnicate" in err

    def test_malformed_line_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("just some words\n")
        assert run(capsys, "search", "--config", str(cfg))[0] == 2

    @pytest.mark.parametrize("text", ["n = 81\nseed = 3\nn = 729\n",
                                      '{"n": 81, "seed": 3, "n": 729}'], ids=["lines", "json"])
    def test_key_given_twice_rejected(self, capsys, tmp_path, text):
        cfg = tmp_path / "cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, "search", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == "error: config: duplicate key 'n'\n"


class TestConfigHash:
    # The hash goes into every seeded CSV and JSON; these are the
    # default-config hashes, and a change of them moves every output.
    def test_default_hashes_pinned(self, capsys, tmp_path):
        code, out, _ = run(capsys, "search")
        assert code == 0 and "config=1d998c6f70bf" in out
        for cmd, digest in (("curve", "8c2d46a8b4fa"), ("sweep", "2e6d84a616c2"),
                            ("baselines", "a292c05f8e19")):
            path = tmp_path / f"{cmd}.csv"
            assert run(capsys, cmd, "--csv", str(path))[0] == 0
            assert path.read_text().splitlines()[0].split()[4] == f"config_hash={digest}"


class TestOutDirEnv:
    def test_relative_paths_land_in_outdir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BESEARCH_OUTDIR", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, "baselines", "--n", "100", "--csv", "base.csv")
        assert code == 0
        assert (tmp_path / "base.csv").exists()


class TestAndor:
    def test_tree_evaluation(self, capsys, tmp_path):
        tree_file = tmp_path / "tree.txt"
        bits = [0] * 9
        bits[3:6] = [1, 1, 1]
        tree_file.write_text(dump_tree(AndOrTree(2, (3, 3), GATE_OR), bits))
        code, out, _ = run(capsys, "andor", "--tree", str(tree_file), "--seed", "5")
        assert code == 0
        assert "classical: 1" in out
        assert "quantum_sim:" in out
        assert "cost: level=2" in out

    @pytest.mark.parametrize("depth, shots, ratio", [
        (70, "1000", "5.902958103587057e+296"),  # past numpy's 64 array dimensions
        (60, "1000000", "inf"),  # leaf_queries past the float range
    ])
    def test_deep_tree(self, capsys, tmp_path, depth, shots, ratio):
        tree_file = tmp_path / "deep.txt"
        tree_file.write_text(dump_tree(AndOrTree(depth, (1,) * depth, GATE_OR), [1]))
        code, out, _ = run(capsys, "andor", "--tree", str(tree_file), "--shots", shots)
        assert code == 0 and "classical: 1" in out
        assert out.splitlines()[-1].startswith(f"cost: level={depth} fanout=1 leaves=1 ")
        assert out.splitlines()[-1].endswith(f" q_over_sqrt_leaves={ratio}")

    def test_cost_rows_equal_each_subtree_cost(self, capsys, tmp_path):
        tree = AndOrTree(4, (3, 1, 2, 4), GATE_OR)
        tree_file = tmp_path / "mixed.txt"
        tree_file.write_text(dump_tree(tree, [1] * tree.n_leaves))
        code, out, _ = run(capsys, "andor", "--tree", str(tree_file), "--shots", "7")
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("cost: ")]
        node, subtrees = tree, []  # each level's subtree, bottom level first
        while node.depth:
            subtrees.insert(0, node)
            node = node.child()
        want = [f"cost: level={sub.depth} fanout={sub.fanouts[0]} leaves={sub.n_leaves} "
                f"leaf_queries={evaluate_quantum_cost(sub, 7)} " for sub in subtrees]
        assert len(rows) == len(want)
        assert all(row.startswith(prefix) for row, prefix in zip(rows, want))
        # The library's table has the same rows, and the gates alternate up to the root's.
        assert level_costs(tree, 7) == [
            (sub.depth, sub.fanouts[0], sub.n_leaves, sub.root_gate, evaluate_quantum_cost(sub, 7))
            for sub in subtrees
        ]
        assert [row[3] for row in level_costs(tree, 7)] == [GATE_AND, GATE_OR] * 2
        leaf = AndOrTree(0, (), GATE_OR)
        assert level_costs(leaf, 7) == [] and evaluate_quantum_cost(leaf, 7) == 1
        for call in (level_costs, evaluate_quantum_cost):
            with pytest.raises(ValueError, match="^shots must lie in"):
                call(leaf, 0)

    def test_costs_past_the_int_string_limit_print_exactly(self, capsys, tmp_path):
        # Python converts ints of at most 4300 digits to strings; these
        # costs reach 5157 digits and are printed, written and read back whole.
        depth = 1200
        tree = AndOrTree(depth, (1,) * depth, GATE_OR)
        tree_file = tmp_path / "deep.txt"
        tree_file.write_text(dump_tree(tree, [1]))
        csv_path, json_path = tmp_path / "deep.csv", tmp_path / "deep.json"
        start = time.perf_counter()
        code, out, _ = run(capsys, "andor", "--tree", str(tree_file),
                           "--csv", str(csv_path), "--json", str(json_path))
        assert time.perf_counter() - start < 5.0
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("cost: ")]
        assert len(rows) == depth
        digits = re.search(r"leaf_queries=(\d+) ", rows[-1])[1]
        assert len(digits) > 4300
        assert decimal.Decimal(digits) == evaluate_quantum_cost(tree)
        assert csv_path.read_text().splitlines()[-1].split(",")[4] == digits
        records = json.loads(json_path.read_text())["rows"]
        assert len(records) == depth and records[-1]["leaf_queries"] == digits
        assert type(records[0]["leaf_queries"]) is int

    def test_ratio_past_the_float_range(self):
        over_root = besearch.cli._over_root
        assert over_root(27, 9) == repr(27 / 3.0)
        assert float(over_root(10**309, 10**4)) == pytest.approx(1e307)
        assert over_root(10**400, 10**4) == "inf"

    def test_missing_tree_flag(self, capsys):
        assert run(capsys, "andor")[0] == 2

    def test_unreadable_tree(self, capsys, tmp_path):
        assert run(capsys, "andor", "--tree", str(tmp_path / "nope.txt"))[0] == 2

    def test_malformed_tree_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("depth 1\nroot OR\nfanouts 2\nleaves 101\n")
        assert run(capsys, "andor", "--tree", str(bad))[0] == 2


class TestCheckFacts:
    def test_passes_and_prints_residuals(self, capsys):
        code, out, _ = run(capsys, "check-facts", "--scenarios", "24")
        assert code == 0
        assert "rotation-oracle: max residual" in out
        assert "majority-oracle: max gap" in out
        assert "round-schedule: r1,r2,r3 = (5, 7, 7)" in out
        assert "round-crosscheck: max deviation" in out
        assert "FAIL" not in out

    def test_prints_the_engine_records(self, capsys):
        code, out, _ = run(capsys, "check-facts", "--scenarios", "8", "--dims", "2,5",
                           "--seed", "3", "--max-r", "9")
        assert code == 0
        checks = run_fact_checks(8, [2, 5], 3, 9)
        assert out.splitlines() == [str(check) for check in checks]

    def test_failed_unitarity_check_exits_one(self, capsys, monkeypatch):
        # A broken construction inside the dense oracle is an invariant
        # violation: one line on stderr and exit 1, not a traceback.
        shear = np.array([[1.0, 0.5], [0.0, 1.0]])
        monkeypatch.setattr(besearch.oracles, "_rotation", lambda p: shear)
        with pytest.raises(InvariantError) as caught:
            run_fact_checks(1, (4,), 0, 1)
        assert type(caught.value) is UnitarityError
        code, out, err = run(capsys, "check-facts", "--scenarios", "1", "--max-r", "1")
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("invariant violation: E1 vote block deviates from unitarity by ")

    def test_failed_check_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(besearch.oracles, "structured_vs_dense_round", lambda inst: 1.0)
        code, out, _ = run(capsys, "check-facts", "--scenarios", "8", "--max-r", "9")
        assert code == 1
        *passed, crosscheck = out.splitlines()
        assert crosscheck.startswith("round-crosscheck:") and crosscheck.endswith("FAIL")
        assert len(passed) == 3 and all(line.endswith(": ok") for line in passed)


class TestParserCache:
    """One parser serves every call in a process, and no call's flags or
    defaults carry over to the next."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_calls_in_sequence_equal_each_call_alone(self, capsys, tmp_path):
        config = tmp_path / "search.cfg"
        config.write_text("n = 729\nt = 2\nseed = 11\n")
        calls = (
            ("search", "--seed", "3"),
            ("search",),  # back to the default seed
            ("search", "--config", str(config)),  # a carried-over flag would override the file
            ("check-facts", "--scenarios", "3"),
        )
        in_sequence = [run(capsys, *argv) for argv in calls]
        alone = []
        for argv in calls:
            build_parser.cache_clear()  # a fresh parser, as in a new process
            alone.append(run(capsys, *argv))
        assert in_sequence == alone
        assert [code for code, _, _ in alone] == [0, 0, 0, 0]
        assert "seed=3 " in alone[0][1] and "seed=0 " in alone[1][1]
        assert "n=729 t=2 strict=True seed=11 " in alone[2][1]
        assert "over 3 scenarios" in alone[3][1]


class TestBaselines:
    def test_table(self, capsys, tmp_path):
        path = tmp_path / "base.csv"
        code, out, _ = run(capsys, "baselines", "--n", "100,10000", "--csv", str(path))
        assert code == 0
        assert "n=100 simple_cost=104" in out
        lines = path.read_text().splitlines()
        assert len(lines) == 2 + 2


# A non-default value for every non-path key of the parameter table; n is
# an int in search and curve and a comma list in sweep and baselines.
CHANGED = {
    "n": 83, ("sweep", "n"): "9,81", ("baselines", "n"): "100,1000",
    "t": 2, "p_good": 0.95, "p_bad": 0.05, "relaxed": True, "seed": 4, "shots": 500,
    "m_max": 2, "scenarios": 3, "dims": "2,5", "max_r": 9,
}
TABLE_KEYS = [
    (cmd, key)
    for cmd, spec in COMMANDS.items()
    for key, default in spec.params.items()
    if default is not None
]


def flag_of(key):
    return "--" + key.replace("_", "-")


class TestParameterTable:
    @pytest.mark.parametrize("cmd,key", TABLE_KEYS, ids=[f"{c}-{k}" for c, k in TABLE_KEYS])
    def test_flag_and_config_files_agree(self, capsys, tmp_path, cmd, key):
        value = CHANGED.get((cmd, key), CHANGED[key])
        assert value != COMMANDS[cmd].params[key]
        tree = tmp_path / "tree.txt"
        tree.write_text(dump_tree(AndOrTree(2, (3, 3), GATE_OR), [0, 1, 0] * 3))
        kv = tmp_path / "cfg.txt"
        kv.write_text(f"{key} = {'true' if value is True else value}\n")
        doc = tmp_path / "cfg.json"
        doc.write_text(json.dumps({key: value}))
        routes = (
            [flag_of(key)] if value is True else [flag_of(key), str(value)],
            ["--config", str(kv)],
            ["--config", str(doc)],
        )
        seen = []
        for route in routes:
            argv = [cmd, *route] + (["--tree", str(tree)] if cmd == "andor" else [])
            cfg = resolve_config(cmd, build_parser().parse_args(argv))
            assert cfg[key] == value
            code, out, _ = run(capsys, *argv)
            assert code == 0
            seen.append((out, cfg["config_hash"]))
        assert seen[0] == seen[1] == seen[2]

    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_help_lists_every_key_with_its_default(self, capsys, cmd):
        code, out, _ = run(capsys, cmd, "--help")
        assert code == 0
        text = " ".join(out.split())
        params = COMMANDS[cmd].params
        usage = text.split("options:")[0]
        assert re.findall(r"\[(--[\w-]+)", usage) == ["--config"] + [flag_of(k) for k in params]
        for key, default in params.items():
            metavar = "" if isinstance(default, bool) else " " + key.upper()
            assert f"{flag_of(key)}{metavar} {HELP[key]} (default: {default})" in text


BAD_INPUTS = {
    "sweep-shots-0": ["sweep", "--shots", "0"],
    "baselines-n-1": ["baselines", "--n", "1"],
    # Past float max / 100 the baseline's error 1/(100 n) overflows a float.
    "baselines-n-1e307": ["baselines", "--n", str(10**307)],
    "check-facts-dims-0": ["check-facts", "--dims", "0"],
    "check-facts-dims-100": ["check-facts", "--dims", "100"],
    "check-facts-scenarios-0": ["check-facts", "--scenarios", "0"],
    "check-facts-scenarios-past-cap": ["check-facts", "--scenarios", str(MAX_SCENARIOS + 1)],
    "check-facts-max-r-0": ["check-facts", "--max-r", "0"],
    "check-facts-max-r-23": ["check-facts", "--max-r", "23"],
    # An empty grid is an error in every command, not an empty table.
    "baselines-n-empty": ["baselines", "--n", ","],
    "sweep-n-empty": ["sweep", "--n", ","],
    "check-facts-dims-empty": ["check-facts", "--dims", ","],
    # -1 is the sentinel for ceil(log9 n); nothing below it means anything.
    "curve-m-max-below-sentinel": ["curve", "--m-max", "-5"],
    "curve-n-beyond-float": ["curve", "--n", "1" + "0" * 400, "--t", "1"],
    "config-n-abc": ["search", "--config", "{config}"],
    "config-missing": ["search", "--config", "{config}.missing"],
    "csv-unwritable": ["baselines", "--csv", "{config}/out.csv"],
    # A JSON config can give a grid as a list or a number, not a comma list.
    "json-dims-list": ["check-facts", "--config", "{dims_json}"],
    "json-sweep-n-int": ["sweep", "--config", "{n_json}"],
    "json-baselines-n-int": ["baselines", "--config", "{n_json}"],
    # A depth-1 tree runs no search, so only an up-front check sees its shots.
    "andor-depth-1-shots-0": ["andor", "--tree", "{tree1}", "--shots", "0"],
    "andor-depth-1-shots-1e20": ["andor", "--tree", "{tree1}", "--shots", str(10**20)],
    # A negative seed is named up front, before the 2^21 enumeration runs.
    "check-facts-seed-negative": ["check-facts", "--seed", "-1", "--max-r", "21",
                                  "--scenarios", "1"],
    "sweep-seed-negative": ["sweep", "--seed", "-2"],
    "andor-depth-1-seed-negative": ["andor", "--tree", "{tree1}", "--seed", "-3"],
    # Shot counts past MAX_SHOTS are rejected before any sample is drawn;
    # unchecked, 10**20 overflows numpy and MAX_SHOTS + 1 draws 8 MB arrays.
    **{
        f"{cmd}-shots-{label}": [cmd, "--shots", str(shots), *extra]
        for cmd, extra in (("search", []), ("sweep", []), ("andor", ["--tree", "{tree}"]))
        for label, shots in (("1e20", 10**20), ("past-cap", MAX_SHOTS + 1))
    },
}


# JSON config values whose type does not match the key's default.
BAD_JSON_VALUES = {
    "check-facts-scenarios-list": ("check-facts", {"scenarios": [1]}),
    "check-facts-seed-float": ("check-facts", {"seed": 1.5}),
    "check-facts-max-r-bool": ("check-facts", {"max_r": True}),
    "search-p-good-bool": ("search", {"p_good": False}),
    "search-p-bad-null": ("search", {"p_bad": None}),
    "search-relaxed-int": ("search", {"relaxed": 1}),
    "curve-csv-null": ("curve", {"csv": None}),
    "andor-tree-list": ("andor", {"tree": ["tree.txt"]}),
}


class TestExitContract:
    @pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
    def test_bad_input_is_usage_error(self, capsys, tmp_path, argv):
        config = tmp_path / "cfg.txt"
        config.write_text("n = abc\n")
        tree = tmp_path / "tree.txt"
        tree.write_text(dump_tree(AndOrTree(2, (3, 3), GATE_OR), [0] * 9))
        tree1 = tmp_path / "tree1.txt"
        tree1.write_text(dump_tree(AndOrTree(1, (4,), GATE_OR), [0] * 4))
        dims_json = tmp_path / "dims.json"
        dims_json.write_text(json.dumps({"dims": [2, 4]}))
        n_json = tmp_path / "n.json"
        n_json.write_text(json.dumps({"n": 81}))
        paths = dict(config=config, tree=tree, tree1=tree1, dims_json=dims_json, n_json=n_json)
        code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        if "--seed" in argv:
            assert "seed" in err

    def test_a_long_bound_is_written_by_its_bit_length(self, capsys):
        # MAX_BASELINE_N has 309 digits.
        code, _, err = run(capsys, "baselines", "--n", "1")
        assert code == 2 and len(err) < 120, err

    def test_json_grid_error_names_the_value(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"dims": [2, 4]}))
        code, _, err = run(capsys, "check-facts", "--config", str(config))
        assert code == 2
        assert "[2, 4]" in err

    @pytest.mark.parametrize("cmd,doc", BAD_JSON_VALUES.values(), ids=BAD_JSON_VALUES.keys())
    def test_wrongly_typed_json_value_is_usage_error(self, capsys, tmp_path, cmd, doc):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        code, _, err = run(capsys, cmd, "--config", str(config))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(next(iter(doc))) in err

    def test_right_typed_json_values_pass_unchanged(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n": 81, "p_good": 0.9, "seed": 7, "relaxed": False}))
        code, out, _ = run(capsys, "search", "--config", str(config))
        assert code == 0
        flags = run(capsys, "search", "--n", "81", "--p-good", "0.9", "--seed", "7")
        assert out == flags[1]  # same values, so the same config hash
        config.write_text(json.dumps({"p_good": 1, "p_bad": 0}))  # ints for float keys
        assert run(capsys, "search", "--config", str(config))[0] == 0

    @pytest.mark.parametrize("line", ["relaxed = ture", "relaxed =", "seed = abc", "p_good = x"])
    def test_unparsed_config_string_names_its_key(self, capsys, tmp_path, line):
        config = tmp_path / "cfg.txt"
        config.write_text(line + "\n")
        code, _, err = run(capsys, "search", "--config", str(config))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(line.split()[0]) in err

    def test_config_strings_resolve_as_before(self, capsys, tmp_path):
        config = tmp_path / "cfg.txt"
        for word, relaxed in (("1", True), ("TRUE", True), ("Yes", True), ("on", True),
                              ("0", False), ("False", False), ("NO", False), ("off", False)):
            config.write_text(f"relaxed = {word}\nseed = 7\np_good = 0.95\n")
            code, out, _ = run(capsys, "search", "--config", str(config))
            assert code == 0
            flags = ["--seed", "7", "--p-good", "0.95"] + ["--relaxed"] * relaxed
            assert out == run(capsys, "search", *flags)[1]  # same config hash

    def test_round_cap_rejected_before_any_round(self, capsys):
        start = time.perf_counter()
        code, _, err = run(capsys, "curve", "--m-max", "100000")
        assert code == 2
        assert "m_max" in err
        for m_max in ("479", "-2"):  # the library's check names the flag's parameter
            code, _, err = run(capsys, "curve", "--m-max", m_max)
            assert code == 2
            assert err == f"error: m_max must lie in [0, 478], got {m_max}\n"
        assert time.perf_counter() - start < 1.0

    def test_invariant_violation_exits_one(self, capsys, monkeypatch):
        def broken(*args):
            raise InvariantError("state is not normalized")

        monkeypatch.setattr(besearch.cli, "run_search", broken)
        code, _, err = run(capsys, "search")
        assert code == 1
        assert "not normalized" in err


#: The README's example tree file.
README_TREE = "depth 2\nroot OR\nfanouts 3 3\nleaves 010000110\n"

#: sha256 of seeded CLI outputs: the CSV or JSON file a command writes, or
#: the stdout of a command run without either (``search`` and the ``-stdout`` entries),
#: without lines naming an output path. Recorded before the
#: state lost its round index and the stats, factor, schedule and scenario
#: records became plain values; these bytes must not move. Paths are
#: relative to the working directory, since the tree path enters the
#: config hash.
GOLDEN_OUTPUTS = {
    "curve": (
        ["curve", "--n", "6561", "--t", "1", "--csv", "out.csv"],
        "27d7bfc51a4daf335b4adf11331a6ff67efbb708156732bce1497d7239b34151",
    ),
    "curve-relaxed": (
        ["curve", "--n", "81", "--t", "3", "--p-good", "0.7", "--p-bad", "0.4", "--relaxed",
         "--m-max", "-1", "--csv", "out.csv"],
        "cdae9a69319d25b8a274a91422e0ec49885dcadafee187ae20faf13bcec4fb5a",
    ),
    "sweep": (
        ["sweep", "--seed", "3", "--csv", "out.csv"],
        "1946ebced98ec2ae5fbc37e29d020746071b829a5ebd098c3da856f25f0e665a",
    ),
    "andor": (
        ["andor", "--tree", "tree.txt", "--seed", "5", "--csv", "out.csv"],
        "41a9f22ca12406ab67dec3a3e6a0b2ddeba80ebfbaf6e0aea2e47a3818c84d7d",
    ),
    "search": (
        ["search", "--n", "6561", "--seed", "7"],
        "fc3d1bed35c980c46b500f6c9a0ed0e23ada66d7195a20ef432484b3b50efd53",
    ),
    # The printed rows, recorded before one emitter printed every table.
    "curve-stdout": (
        ["curve", "--n", "6561", "--t", "1"],
        "dbf4ea2538f27de4ab4875e5704e304f8812187f0b25894c757aa32eddd47bb0",
    ),
    "sweep-stdout": (
        ["sweep", "--seed", "3"],
        "6518db77f92cd1e87cad12a3627652fd486483d4d4b7a1af4f0249da9df5f522",
    ),
    "andor-stdout": (
        ["andor", "--tree", "tree.txt", "--seed", "5"],
        "18c2bfc066860e37649eb38ceaef2e40854c65fff5667dc85856fba1084e7017",
    ),
    "baselines-stdout": (
        ["baselines"],
        "e04c12727cd1be765e135c1ed286eca14bfca5d8b8159cbaa3c7ed45b705ea87",
    ),
    # The JSON documents, recorded before each table named its columns once.
    "curve-json": (
        ["curve", "--n", "6561", "--t", "1", "--json", "out.json"],
        "cb2251f82cfe362eb6828eafc0f667a6af46ddb3bb0cbbaf7040efa721901b8c",
    ),
    "sweep-json": (
        ["sweep", "--seed", "3", "--json", "out.json"],
        "ff666598b524b9e062c18b3e0b44210431e403a8aab70dea0c7138269fcddf14",
    ),
    "andor-json": (
        ["andor", "--tree", "tree.txt", "--seed", "5", "--json", "out.json"],
        "a940ef671260b57b04eece18e2b7cf7726f4ddb0a20e2a92165a3f83f334d1fe",
    ),
    "baselines-json": (
        ["baselines", "--json", "out.json"],
        "c13695aa9b5c654028c5f81ef218cb014f97db40cdfb69cdabc060daeba81520",
    ),
    # A depth-0 tree has no levels: a CSV header with no rows, "rows": [].
    "andor-depth-0": (
        ["andor", "--tree", "tree0.txt", "--seed", "5", "--csv", "out.csv"],
        "56d885859370a6d6eca8982fde5f95cd3bf4468f0d2a1d37ca36cd26a901988d",
    ),
    "andor-depth-0-json": (
        ["andor", "--tree", "tree0.txt", "--seed", "5", "--json", "out.json"],
        "84953c43954276f72ffe4bc3f10b2aad01c6fe4b0f996b1a7516628746c50a89",
    ),
}


@pytest.mark.parametrize("name", GOLDEN_OUTPUTS)
def test_seeded_outputs_are_byte_identical(capsys, tmp_path, monkeypatch, name):
    argv, digest = GOLDEN_OUTPUTS[name]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(besearch.cli.OUTDIR_ENV, raising=False)
    (tmp_path / "tree.txt").write_text(README_TREE)
    (tmp_path / "tree0.txt").write_text("depth 0\nroot OR\nleaves 1\n")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    if "--csv" in argv:
        data = (tmp_path / "out.csv").read_bytes()
    elif "--json" in argv:
        data = (tmp_path / "out.json").read_bytes()
    else:
        data = "".join(line for line in out.splitlines(keepends=True)
                       if not line.startswith("wrote ")).encode()
    assert hashlib.sha256(data).hexdigest() == digest


def test_cli_imports_no_private_library_name():
    """cli.py takes only public names from the library: what it would need
    of a module's internals belongs in that module."""
    source = ast.parse(Path(besearch.cli.__file__).read_text(encoding="utf-8"))
    private = [
        (node.module, alias.name)
        for node in ast.walk(source)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("besearch"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")  # __version__ is public
    ]
    assert not private
