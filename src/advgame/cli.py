"""Config-driven experiment runner.

Every subcommand reads a JSON config, writes a JSON report embedding the
resolved config, its hash, and the seed, and exits 0 on pass, 1 on a failed
assertion, 2 on a config error. Timestamps live in their own report field so
re-runs are byte-identical everywhere else.

Every object is read by `fields.read` through one table of
{key: (converter, default)}: the config, its sections, the distribution and
hypothesis in it, and each `models[].path` file with every object nested in
it. Unknown keys are rejected in every one of them, every field present is
checked, also where the subcommand does not use it, and every message names
the field's dotted path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import MISSING, asdict

from . import attacks, distributions, game, hypotheses, nets, theorems, training
from .errors import AdvGameError, ConfigError
from .fields import (IN_FILE, at_least, converted, count, exactly, listed, nullable, read, real,
                     row, section)

SUBCOMMANDS = (
    "risk", "score", "best-response", "no-nash", "rand-gap", "fig1",
    "train", "bat", "evaluate", "alpha-grid",
)


def _finite(text: str) -> float:
    """json.load's hook for NaN, Infinity and each number with a fraction or exponent."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"a JSON number must be finite, got {text}")
    return value


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh, parse_constant=_finite, parse_float=_finite)


def _box(box, path):
    if box is None:
        return None
    try:
        lo, hi = (real(v) for v in box)
        ok = isinstance(box, list) and lo < hi
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ConfigError(f"{path} must be null or [lo, hi] with lo < hi, got {box}")
    return lo, hi


def _mode(mode, path):
    if mode not in ("natural", "adversarial"):
        raise ConfigError(f"{path} must be 'natural' or 'adversarial'")
    return mode


def _parse_game(raw, path) -> game.GameConfig:
    fields = read(raw, path, _GAME)
    fields |= fields.pop("eval", {})
    return game.GameConfig(**{_GAME_NAMES.get(k, k): v for k, v in fields.items()})


def _attack(config_type, table: dict):
    """A converter for an attack config: each field from raw, else from the
    preset that raw names, else the dataclass default."""
    def parse(raw, path):
        defaults = {}
        if isinstance(raw, dict) and "preset" in raw:
            raw = dict(raw)
            name = raw.pop("preset")
            base = converted(f"{path}.preset", name, lambda v, _: attacks.ATTACK_PRESETS.get(v))
            if not isinstance(base, config_type):
                raise ConfigError(f"unknown {path} preset {name!r}")
            defaults = asdict(base)
        return config_type(**read(raw, path, table, defaults))
    return parse


def _parse_train(raw, path, preset: str) -> tuple[str, training.TrainConfig]:
    """(mode, TrainConfig): each field from raw, else from the --preset schedule."""
    base = training.train_paper_preset() if preset == "paper" else training.train_desk_preset()
    fields = read(raw, path, _TRAIN, asdict(base))
    return fields.pop("mode"), training.TrainConfig(**fields)


# A table default of None leaves the field to its dataclass or to the handler.
_SEED = at_least(0)
_EVAL = {"method": (exactly(str), None), "n": (count, None), "seed": (_SEED, None)}
_GAME = {"penalty": (exactly(str), MISSING), "lambda": (real, MISSING),
         "epsilon": (real, MISSING), "norm_kind": (exactly(str), None),
         "eval": (section(_EVAL), None)}
_GAME_NAMES = {"lambda": "lam", "method": "eval_method", "n": "mc_n", "seed": "mc_seed"}
_PGD = {"epsilon_inf": (real, MISSING), "step": (real, MISSING), "iters": (count, MISSING),
        "restarts": (count, None), "random_init": (exactly(bool), None), "seed": (_SEED, None)}
_CW = {"lr": (real, None), "binary_search_steps": (count, None), "initial_const": (real, None),
       "iters": (count, None), "abort_early": (exactly(bool), None)}
_TRAIN = {"mode": (_mode, "natural"), "epochs": (count, MISSING), "batch_size": (count, None),
          "lr_stages": (listed(row(count, real)), None), "momentum": (real, None),
          "weight_decay": (real, None), "seed": (_SEED, None), "sizes": (nets.LAYER_SIZES, None)}
_ATTACK = {"pgd": (_attack(attacks.PgdConfig, _PGD), None),
           "cw": (_attack(attacks.CwConfig, _CW), None),
           "box": (_box, [0.0, 1.0]),
           "reject_thresholds": (listed(real, list), attacks.CW_REJECT_THRESHOLDS),
           "eval_pgd": (_attack(attacks.PgdConfig, _PGD), None)}
# data.n_test left out means 0 rows for a csv and 1000 draws from a distribution
_DATA = {"n_train": (at_least(1), 2000), "n_test": (count, None), "seed": (_SEED, 0),
         "csv": (nullable(exactly(str)), None)}
_ORACLE = {"inner": (count, 1025), "per_piece": (count, 256), "enabled": (exactly(bool), True)}
_BAT = {"n": (count, 2), "alpha_bat": (real, 0.2), "first_candidates": (count, 1)}
_MODEL = {"name": (exactly(str), MISSING), "path": (exactly(str), MISSING)}
# main adds "train", whose defaults come from the --preset schedule
_TOP = {
    "distribution": (distributions.spec_from_dict, None),
    "game": (_parse_game, None),
    "hypothesis": (hypotheses.hypothesis_from_dict, None),
    "rounds": (count, 5),
    "improvement_threshold": (real, theorems.IMPROVEMENT_THRESHOLD),
    "alpha_thm": (real, None),
    "delta": (nullable(real), None),
    "oracle": (section(_ORACLE), {}),
    "resolution": (count, 2001),
    "data": (section(_DATA), {}),
    "attack": (section(_ATTACK), {}),
    "bat": (section(_BAT), {}),
    "models": (listed(section(_MODEL), list), []),
    "candidates": (listed(real, list), [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]),
    "out_dir": (exactly(str), "out"),
    "seed": (_SEED, 0),
}


def _load_data(cfg: dict) -> tuple:
    data = cfg["data"]
    if data.get("csv"):
        full = converted("data.csv", data["csv"], lambda p, _: distributions.measure_from_csv(p))
        n_test = data.get("n_test", 0)
        if not 0 <= n_test <= len(full):
            raise ConfigError(f"data.n_test must be in [0, {len(full)}], the csv's row "
                              f"count, got {n_test}")
        if n_test:
            train = distributions.EmpiricalMeasure(
                full.points[:-n_test], full.labels[:-n_test], full.seed)
            test = distributions.EmpiricalMeasure(
                full.points[-n_test:], full.labels[-n_test:], full.seed)
            return train, test
        return full, None
    if "distribution" not in cfg:
        raise ConfigError("data needs either a csv path or a distribution")
    n_test = data.get("n_test", 1000)
    if n_test < 1:
        raise ConfigError(f"data.n_test must be >= 1 with a distribution, got {n_test}")
    spec = cfg["distribution"]
    train = distributions.sample_labeled(spec, data["n_train"], data["seed"])
    test = distributions.sample_labeled(spec, n_test, data["seed"] + 1)
    return train, test


def _config_hash(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _emit(out_dir: str, name: str, subcommand: str, resolved: dict,
          results: dict, passed: bool) -> str:
    os.makedirs(out_dir, exist_ok=True)
    report = {
        "subcommand": subcommand,
        "config": resolved,
        "config_hash": _config_hash(resolved),
        "seed": resolved.get("seed", 0),
        "results": results,
        "passed": passed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    # serialize before opening, so a report that cannot be written leaves no file
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _hypothesis_of(cfg: dict):
    if "hypothesis" in cfg:
        return cfg["hypothesis"]
    if "distribution" in cfg:
        return hypotheses.Threshold(0.0)
    raise ConfigError("this subcommand needs a 'hypothesis' or a 'distribution'")


# ---------------------------------------------------------------------------
# Subcommand handlers: take the parsed config, return (results dict, passed flag)
# ---------------------------------------------------------------------------

def _run_risk(cfg, out_dir):
    spec, gc = cfg.get("distribution"), cfg["game"]
    value = game.risk(_hypothesis_of(cfg), spec, gc)
    return {"risk": value}, True


def _run_score(cfg, out_dir):
    spec, gc, h = cfg.get("distribution"), cfg["game"], _hypothesis_of(cfg)
    attack = game.best_response_attack(h, spec, gc)
    rep = game.adversarial_score(h, attack, spec, gc)
    return {"score": asdict(rep)}, True


def _run_best_response(cfg, out_dir):
    spec, gc, h = cfg.get("distribution"), cfg["game"], _hypothesis_of(cfg)
    attack = game.best_response_attack(h, spec, gc)
    rep = game.adversarial_score(h, attack, spec, gc)
    defender = game.best_response_defender(attack, spec, gc)
    rep_def = game.adversarial_score(defender, attack, spec, gc)
    results = {
        "attack_kind": attack.kind,
        "attacker_score": asdict(rep),
        "defender": hypotheses.hypothesis_to_dict(defender),
        "defender_score": asdict(rep_def),
    }
    if isinstance(attack, game.Map1D) and gc.penalty != "none":
        results["zones"] = {
            name: [[lo, hi, t] for y, lo, hi, t in attack.pieces if y == label]
            for name, label in (("pos", 1), ("neg", -1))
        }
    return results, True


def _run_no_nash(cfg, out_dir):
    rep = theorems.verify_no_pure_nash(cfg.get("distribution"), cfg["game"],
                                       rounds=cfg["rounds"],
                                       threshold=cfg["improvement_threshold"])
    return asdict(rep), rep.passed


def _run_rand_gap(cfg, out_dir):
    spec, gc, h1 = cfg.get("distribution"), cfg["game"], _hypothesis_of(cfg)
    oracle = cfg["oracle"]
    rep = theorems.randomization_gap(
        h1, spec, gc,
        alpha_thm=cfg["alpha_thm"],
        delta=cfg.get("delta"),
        run_oracle=oracle["enabled"],
        oracle_inner=oracle["inner"],
        oracle_per_piece=oracle["per_piece"],
        threshold=cfg["improvement_threshold"],
    )
    return asdict(rep), rep.passed


def _run_fig1(cfg, out_dir):
    paths = theorems.fig1_export(cfg.get("distribution"), cfg["game"], out_dir,
                                 resolution=cfg["resolution"])
    return {"files": [os.path.basename(p) for p in paths]}, True


def _run_train(cfg, out_dir):
    mode, tc = cfg["train"]
    attack = cfg["attack"]
    data, test = _load_data(cfg)
    if mode == "adversarial":
        model, trace = training.train_adversarial(
            data, tc, attack.get("pgd", attacks.PGD_TRAIN_PAPER), eval_set=test,
            eval_attack=attack.get("eval_pgd"), box=attack["box"])
    else:
        model, trace = training.train_natural(
            data, tc, eval_set=test, eval_attack=attack.get("eval_pgd"), box=attack["box"])
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "model.json"), "w") as fh:
        json.dump(hypotheses.hypothesis_to_dict(hypotheses.Mlp(model)), fh)
    training.trace_to_csv(trace, os.path.join(out_dir, "trace.csv"))
    results = {
        "mode": mode,
        "final_train_acc": trace[-1].train_acc if trace else None,
        "checkpoint": "model.json",
        "trace": "trace.csv",
    }
    if test is not None:
        results["test_acc"] = attacks.accuracy(hypotheses.Mlp(model),
                                               test.points, test.labels)
    return results, True


def _run_bat(cfg, out_dir):
    _, tc = cfg["train"]
    attack, bat = cfg["attack"], cfg["bat"]
    data, test = _load_data(cfg)
    mixture = training.bat(
        data,
        n=bat["n"],
        alpha_bat=bat["alpha_bat"],
        cfg=tc,
        attack_cfg=attack.get("pgd", attacks.PGD_TRAIN_PAPER),
        box=attack["box"],
        first_candidates=bat["first_candidates"],
    )
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "mixture.json"), "w") as fh:
        json.dump(hypotheses.mixture_to_dict(mixture), fh)
    results = {"weights": list(mixture.weights), "mixture": "mixture.json"}
    if test is not None:
        results["test_acc"] = attacks.accuracy(mixture, test.points, test.labels)
    return results, True


def _load_model(entry: dict):
    """The hypothesis or mixture in the file at entry's path."""
    def parse(path, field):
        raw = _load_json(path)
        if "weights" in raw and "hypotheses" in raw:
            return hypotheses.mixture_from_dict(raw, field + IN_FILE)
        return hypotheses.hypothesis_from_dict(raw, field + IN_FILE)
    return converted("models[].path", entry["path"], parse)


def _run_evaluate(cfg, out_dir):
    attack = cfg["attack"]
    _, test = _load_data(cfg)
    if test is None:
        raise ConfigError("evaluate needs test data (data.n_test or a csv)")
    if not cfg["models"]:
        raise ConfigError("evaluate needs a 'models' list of {name, path}")
    pgd = attack.get("pgd", attacks.PGD_PAPER)
    cw = attack.get("cw", attacks.CW_PAPER)
    rows = []
    for entry in cfg["models"]:
        model = _load_model(entry)
        row = {
            "name": entry["name"],
            "natural_acc": attacks.accuracy(model, test.points, test.labels),
            "pgd_acc": attacks.accuracy_under_pgd(model, test.points, test.labels,
                                                  pgd, attack["box"]),
        }
        cw_accs = attacks.accuracy_under_cw(model, test.points, test.labels, cw,
                                            attack["box"], attack["reject_thresholds"])
        for eps2, acc in cw_accs.items():
            row[f"cw_acc_eps{eps2:g}"] = acc
        rows.append(row)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "evaluation.csv"), "w") as fh:
        cols = list(rows[0].keys())
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in cols) + "\n")
    return {"rows": rows, "table": "evaluation.csv"}, True


def _run_alpha_grid(cfg, out_dir):
    attack = cfg["attack"]
    _, test = _load_data(cfg)
    if test is None:
        raise ConfigError("alpha-grid needs validation data (data.n_test or a csv)")
    if len(cfg["models"]) != 2:
        raise ConfigError("alpha-grid needs exactly two entries in 'models'")
    h1, h2 = (_load_model(entry) for entry in cfg["models"])
    best, table = training.grid_search_alpha(h1, h2, test, cfg["candidates"],
                                             attack.get("pgd", attacks.PGD_PAPER),
                                             box=attack["box"])
    return {"alpha": best, "table": [[a, acc] for a, acc in table]}, True


_HANDLERS = {
    "risk": _run_risk,
    "score": _run_score,
    "best-response": _run_best_response,
    "no-nash": _run_no_nash,
    "rand-gap": _run_rand_gap,
    "fig1": _run_fig1,
    "train": _run_train,
    "bat": _run_bat,
    "evaluate": _run_evaluate,
    "alpha-grid": _run_alpha_grid,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="advgame",
        description="Adversarial zero-sum game experiments: theorem checks, "
                    "attacks, training, and evaluation.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--preset", choices=("paper", "desk"), default="desk",
                        help="training schedule preset; attack settings come from "
                             "the config's 'preset' keys")
    args = parser.parse_args(argv)

    try:
        cfg = _load_json(args.config)
        parsed = read(cfg, "", _TOP | {
            "train": (lambda raw, path: _parse_train(raw, path, args.preset), {})})
        if args.seed is not None:
            cfg["seed"] = _SEED(args.seed, "--seed")
            cfg.setdefault("data", {})["seed"] = parsed["data"]["seed"] = args.seed
        cfg.setdefault("seed", 0)
        out_dir = args.out or parsed["out_dir"]
        results, passed = _HANDLERS[args.subcommand](parsed, out_dir)
    except KeyError as exc:
        print(f"config error: {exc.args[0]} is missing", file=sys.stderr)
        return 2
    except (AdvGameError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    name = f"{args.subcommand.replace('-', '_')}_report.json"
    path = _emit(out_dir, name, args.subcommand, cfg, results, passed)
    print(json.dumps({"resolved_config": cfg, "report": path,
                      "passed": passed}, indent=2, sort_keys=True))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
