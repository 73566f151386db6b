"""Batch experiment front-end.

Subcommands: ``search`` (one search execution), ``curve`` (exact
per-round statistics), ``sweep`` (cost scaling over an n grid),
``andor`` (tree evaluation plus per-level cost table), ``check-facts``
(dense and binomial oracle suites), ``baselines`` (intro cost models).

Each subcommand's parameters are declared once, in ``COMMANDS``: a key's
default gives its type, and its flag, its help and the parsing of its
config-file values all follow from the table.

Every CSV starts with a versioned schema comment line, and every row
carries the config hash and the seed, so identical config + seed
reproduces byte-identical files. A config file (JSON document or
``key = value`` lines, each key at most once) is merged underneath
explicit flags. The environment variable ``BESEARCH_OUTDIR`` supplies
a default directory for relative output paths.

Exit codes: 0 success, 1 invariant violation, 2 usage error. An
``InvariantError`` -- a round operator's broken precondition, or a matrix
an oracle builds failing its unitarity check -- is an invariant violation;
any other ``ValueError``, and an unreadable or unwritable file, is a
usage error.
"""
from __future__ import annotations

import argparse
import csv
import decimal
import functools
import hashlib
import json
import math
import os
import sys
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import __version__
from .andor import evaluate_classical, evaluate_quantum_sim, level_costs, load_tree
from .driver import (
    DEFAULT_SHOTS,
    ceil_log9,
    check_seed,
    exact_success_curve,
    full_sweep_cost,
    run_search,
    search_blocks,
    verification_repetitions,
)
from .model import PROMISE_BAD, PROMISE_GOOD, InvariantError, make_instance
from .oracles import block_recursion_cost, run_fact_checks, simple_search_cost

CSV_SCHEMA = 1

OUTDIR_ENV = "BESEARCH_OUTDIR"


def resolve_config(cmd: str, args: argparse.Namespace) -> dict:
    """Resolve each parameter of ``cmd`` in ``COMMANDS``: explicit flag >
    config file > the table's default (the defaults carry the algorithm's
    constants: 1000 shots, 9/10 promise).

    Returns a plain dict of the parameters plus ``cmd`` and
    ``config_hash``, which identifies the experiment; output paths are
    excluded from the hash.
    """
    defaults = COMMANDS[cmd].params
    config = _load_config(args.config)
    unknown = set(config) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    params = {}
    for key, default in defaults.items():
        if getattr(args, key) is not None:
            params[key] = getattr(args, key)
        elif key in config:
            params[key] = _coerce(key, config[key], default)
        else:
            params[key] = default
    return dict(params, cmd=cmd, config_hash=_config_hash(cmd, params))


def _resolve_out(path: str) -> str:
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _config_hash(cmd: str, params: dict) -> str:
    """Short stable hash of the resolved configuration.

    Output paths are excluded so renaming a file does not change the
    identity of the experiment.
    """
    payload = {k: v for k, v in sorted(params.items()) if k not in ("csv", "json")}
    payload["cmd"] = cmd
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _emit(
    cfg: dict, fieldnames: list[str], rows: list[tuple], shown: list[str], prefix: str = ""
) -> None:
    """Print each row's ``shown`` columns as ``key=value`` after ``prefix``,
    then write all ``fieldnames`` columns to the CSV and JSON files asked for.
    Each row is a tuple with one value per name in ``fieldnames``."""
    seed = cfg.get("seed", "")
    head = dict(schema=CSV_SCHEMA, cmd=cfg["cmd"], config_hash=cfg["config_hash"], seed=seed)
    names = fieldnames + ["config_hash", "seed"]
    tagged = [row + (cfg["config_hash"], seed) for row in rows]
    records = [dict(zip(names, row)) for row in tagged]
    for record in records:
        print(prefix + " ".join(f"{key}={record[key]}" for key in shown))
    if cfg.get("csv"):
        path = _resolve_out(cfg["csv"])
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("# besearch-csv " + " ".join(f"{k}={v}" for k, v in head.items()) + "\n")
            csv.writer(fh, lineterminator="\n").writerows([names, *tagged])
        print(f"wrote {path}")
    if cfg.get("json"):
        path = _resolve_out(cfg["json"])
        with open(path, "w", encoding="utf-8") as fh:
            # default=str writes a Decimal (see _exact) as a string of its digits.
            json.dump(dict(head, rows=records), fh, sort_keys=True, default=str)
            fh.write("\n")
        print(f"wrote {path}")


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        # text starting with "{" parses only as an object
        return json.loads(text, object_pairs_hook=_unique_keys)
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        pairs.append((key.strip(), value.strip()))
    return _unique_keys(pairs)


def _unique_keys(pairs: list[tuple]) -> dict:
    """A config's (key, value) pairs as a dict; a key given twice is a usage error."""
    values: dict = {}
    for key, value in pairs:
        if key in values:
            raise ValueError(f"config: duplicate key {key!r}")
        values[key] = value
    return values


_BOOL_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _quote(value) -> str:
    """``repr(value)``, cut to at most 40 characters, for an error message."""
    shown = repr(value)
    return shown if len(shown) <= 40 else shown[:37] + "..."


def _parse_int(text: str) -> int:
    """``int(text)``: the parse of every integer flag, config value and
    comma-list entry. Text that is no integer raises a ValueError quoting
    at most 40 characters of it. A decimal integer of more digits than
    Python converts between int and str (``sys.get_int_max_str_digits()``,
    4300 unless the interpreter sets another limit) raises one giving its
    digit count: no command could write it back out."""
    try:
        return int(text)
    except ValueError:
        digits = text.strip().lstrip("+-").replace("_", "")
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # none before 3.10.7
        if digits.isdecimal() and 0 < limit < len(digits):
            raise ValueError(
                f"expects an integer of at most {limit} digits, got one of {len(digits)}"
            ) from None
        raise ValueError(f"expects an integer, got {_quote(text)}") from None


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"expects a number, got {_quote(text)}") from None


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL_WORDS[text.lower()]
    except KeyError:
        raise ValueError(f"expects true or false, got {_quote(text)}") from None


#: Per parameter type: the parse of a flag's or a config file's string,
#: whose ValueError says what was expected and what was given, the JSON
#: value types taken as they are, and what was expected of another JSON
#: value. A parameter's type is its default's type; a None default is a
#: path string. Comma lists are strings too, split by the command that
#: takes them.
PARAM_TYPES = {
    bool: (_parse_bool, (bool,), "true or false"),
    int: (_parse_int, (int,), "an integer"),  # type() is exact, so a bool is no int
    float: (_parse_float, (int, float), "a number"),
    str: (str, (), "a string"),
}


def _param_type(default) -> tuple:
    return PARAM_TYPES[str if default is None else type(default)]


def _coerce(key: str, value, default):
    """A config value of the default's type: strings are parsed as the flag
    would parse them, any other JSON value must have that type already (an
    int serves a float key). A value that does not parse or has the wrong
    type is a usage error naming the key and quoting at most 40 characters
    of the value; a bool key reads only the words of ``_BOOL_WORDS``, in
    any case."""
    parse, json_types, expected = _param_type(default)
    if isinstance(value, str):
        try:
            return parse(value)
        except ValueError as exc:
            raise ValueError(f"config key {key!r} {exc}") from None
    if type(value) in json_types:
        return value
    raise ValueError(f"config key {key!r} expects {expected}, got {_quote(value)}")


def _parse_grid(key: str, text: str) -> list[int]:
    """The entries of the comma list given for ``key``; a list with no
    entries, or with one that is no integer, is a usage error naming it."""
    try:
        grid = [_parse_int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"integer list {key!r}: an entry {exc}") from None
    if not grid:
        raise ValueError(f"empty integer list {key!r}: {_quote(text)}")
    return grid


def _instance(cfg, n: Optional[int] = None):
    return make_instance(
        cfg["n"] if n is None else n,
        cfg["t"], cfg["p_good"], cfg["p_bad"],
        strict=not cfg["relaxed"],
    )


# ---------------------------------------------------------------- search

def cmd_search(cfg: dict) -> int:
    inst = _instance(cfg)
    result = run_search(inst, cfg["seed"], cfg["shots"])
    print(
        f"besearch search: n={inst.n} t={inst.t} strict={inst.strict} "
        f"seed={cfg['seed']} shots={cfg['shots']} config={cfg['config_hash']}"
    )
    if result.outcome == "found":
        cls = inst.classes[result.found_class]
        print(f"outcome: found class={result.found_class} is_solution={cls.is_solution}")
    else:
        print("outcome: no_solutions")
    print(f"cost: {result.total_cost}")
    fields = ["m", "alpha", "beta", "theta", "p_solution", "cost", "shots", "verified"]
    rows = [(row.m, f"{row.alpha:.6f}", f"{row.beta:.6f}", f"{row.theta:.6f}",
             f"{row.p_solution:.6g}", row.cost, row.shots, row.verified) for row in result.trace]
    _emit(cfg, fields, rows, fields, "trace: ")
    return 0


# ----------------------------------------------------------------- curve

def cmd_curve(cfg: dict) -> int:
    inst = _instance(cfg)
    m_max = ceil_log9(inst.n) if cfg["m_max"] == -1 else cfg["m_max"]
    rows = [
        (pt.m, repr(pt.alpha), repr(pt.beta), repr(pt.theta), repr(pt.p_solution), pt.cost,
         inst.strict)
        for pt in exact_success_curve(inst, m_max)
    ]
    _emit(cfg, ["m", "alpha", "beta", "theta", "p_solution", "cost", "strict"],
          rows, ["m", "alpha", "beta", "theta", "p_solution", "cost"])
    return 0


# ----------------------------------------------------------------- sweep

def cmd_sweep(cfg: dict) -> int:
    grid = _parse_grid("n", cfg["n"])
    check_seed(cfg["seed"])
    rows = []
    for n, ss in zip(grid, np.random.SeedSequence(cfg["seed"]).spawn(len(grid))):
        inst = _instance(cfg, n=n)
        result = run_search(inst, ss, cfg["shots"])
        sweep_cost = full_sweep_cost(n, cfg["shots"])
        rows.append((
            n, inst.t, search_blocks(n), verification_repetitions(n, cfg["shots"]),
            result.outcome, "" if result.found_class is None else result.found_class,
            result.total_cost, sweep_cost, repr(sweep_cost / math.sqrt(n)), inst.strict,
        ))
    _emit(cfg, ["n", "t", "blocks", "verify_reps", "outcome", "found_class", "search_cost",
                "full_sweep_cost", "cost_over_sqrt_n", "strict"],
          rows, ["n", "outcome", "search_cost", "full_sweep_cost", "cost_over_sqrt_n"])
    return 0


# ----------------------------------------------------------------- andor

def _over_root(q: int, leaves: int) -> str:
    """repr(q / sqrt(leaves)), or 'inf' once the quotient leaves the float range."""
    try:
        return repr(q / math.sqrt(leaves))
    except OverflowError:  # q lies past the float range; its logarithm does not
        log = math.log(q) - math.log(leaves) / 2
        return repr(math.exp(log) if log <= math.log(sys.float_info.max) else math.inf)


def _exact(q: int) -> Union[int, decimal.Decimal]:
    """q, or q as an exact Decimal once it has more digits than Python
    converts an int to a string (4300 unless the interpreter sets another
    limit). A Decimal prints every digit, so no row is cut short and no
    interpreter setting is changed."""
    try:
        str(q)
    except ValueError:
        return decimal.Decimal(q)
    return q


def cmd_andor(cfg: dict) -> int:
    if cfg["tree"] is None:
        raise ValueError("andor requires --tree FILE")
    try:
        tree, bits = load_tree(cfg["tree"])
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load tree: {exc}") from None
    classical = evaluate_classical(tree, bits)
    simulated = evaluate_quantum_sim(tree, bits, cfg["seed"], cfg["shots"])
    print(
        f"besearch andor: depth={tree.depth} root={tree.root_gate} "
        f"fanouts={','.join(map(str, tree.fanouts))} leaves={tree.n_leaves} "
        f"seed={cfg['seed']} config={cfg['config_hash']}"
    )
    print(f"classical: {classical}")
    print(f"quantum_sim: {simulated}")
    rows = [(level, fanout, leaves, gate, _exact(q), _over_root(q, leaves))
            for level, fanout, leaves, gate, q in level_costs(tree, cfg["shots"])]
    _emit(cfg, ["level", "fanout", "leaves", "gate", "leaf_queries", "q_over_sqrt_leaves"],
          rows, ["level", "fanout", "leaves", "leaf_queries", "q_over_sqrt_leaves"], "cost: ")
    return 0


# ------------------------------------------------------------ check-facts

def cmd_check_facts(cfg: dict) -> int:
    dims = _parse_grid("dims", cfg["dims"])
    checks = run_fact_checks(cfg["scenarios"], dims, cfg["seed"], cfg["max_r"])
    for check in checks:
        print(check)
    return 0 if all(check.ok for check in checks) else 1


# -------------------------------------------------------------- baselines

def cmd_baselines(cfg: dict) -> int:
    rows = []
    for n in _parse_grid("n", cfg["n"]):
        simple = simple_search_cost(n)
        block = block_recursion_cost(n)
        rows.append((n, simple, repr(simple / (math.sqrt(n) * math.log2(n))),
                     block, repr(block / math.sqrt(n))))
    _emit(cfg, ["n", "simple_cost", "simple_over_sqrtn_log2n", "block_cost", "block_over_sqrt_n"],
          rows, ["n", "simple_cost", "block_cost", "block_over_sqrt_n"])
    return 0


# ------------------------------------------------------------- parameters

#: Each parameter's help, written once for every subcommand that takes it.
HELP = dict(
    n="space size; sweep and baselines take a comma list of sizes",
    t="number of solutions",
    p_good="probability that a solution's subroutine outputs 1",
    p_bad="probability that a non-solution's subroutine outputs 1",
    relaxed="allow instances outside the 9/10-1/10 promise",
    seed="nonnegative random seed",
    shots="preparations per block",
    csv="write rows as CSV",
    json="write rows as JSON",
    m_max="last round, at most 478, or -1 for ceil(log9 n)",
    tree="tree description file",
    scenarios="random dense scenarios",
    dims="comma list of dense dimensions",
    max_r="largest odd majority size to enumerate",
)

#: Parameter groups that several subcommands share, with their defaults.
INSTANCE = dict(n=81, t=1, p_good=PROMISE_GOOD, p_bad=PROMISE_BAD, relaxed=False)
SEEDED = dict(seed=0, shots=DEFAULT_SHOTS)
EMITS = dict(csv=None, json=None)


class Command(NamedTuple):
    help: str
    handler: Callable[[dict], int]
    params: dict  # key -> default, in flag order


#: The subcommands. Each parameter key is a flag ``--key-name`` and a
#: config-file key; its default gives its type (see PARAM_TYPES).
COMMANDS = {
    "search": Command("run one search execution", cmd_search, {**INSTANCE, **SEEDED}),
    "curve": Command("exact per-round statistics", cmd_curve, {**INSTANCE, **EMITS, "m_max": -1}),
    "sweep": Command("cost scaling over an n grid", cmd_sweep,
                     {**INSTANCE, "n": "9,81,729,6561", **SEEDED, **EMITS}),
    "andor": Command("evaluate an AND-OR tree file", cmd_andor, {**SEEDED, **EMITS, "tree": None}),
    "check-facts": Command("run the oracle suites", cmd_check_facts,
                           dict(scenarios=200, dims="2,4,8,16", seed=0, max_r=15)),
    "baselines": Command("intro baseline cost tables", cmd_baselines,
                         {**EMITS, "n": "100,1000,10000,100000,1000000"}),
}


# ------------------------------------------------------------------ main

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and shared
    by every later one: each parse returns a fresh namespace whose unset
    flags are None, so no flag of one call carries over to the next."""
    parser = argparse.ArgumentParser(
        prog="besearch",
        description="Quantum search over bounded-error subroutines: exact simulator and cost toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"besearch {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for cmd, spec in COMMANDS.items():
        p = sub.add_parser(cmd, help=spec.help)
        p.add_argument("--config", help="config file (JSON or key = value lines)")
        for key, default in spec.params.items():
            flag = "--" + key.replace("_", "-")
            text = f"{HELP[key]} (default: {default})"
            if isinstance(default, bool):
                p.add_argument(flag, dest=key, action="store_const", const=True, help=text)
            else:
                parse = _flag_type(_param_type(default)[0])
                p.add_argument(flag, dest=key, type=parse, help=text)
    return parser


def _flag_type(parse: Callable[[str], object]) -> Callable[[str], object]:
    """``parse`` as an argparse type: argparse reports the parse's ValueError
    after the flag's name, not its own message, which echoes the whole
    argument."""
    def flag_type(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return flag_type


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return COMMANDS[args.cmd].handler(resolve_config(args.cmd, args))
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
