"""Config-driven experiment runner.

Every subcommand reads a JSON config (strictly validated: unknown keys are
rejected), writes a JSON report embedding the resolved config, its hash, and
the seed, and exits 0 on pass, 1 on a failed assertion, 2 on a config error.
Timestamps live in their own report field so re-runs are byte-identical
everywhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import MISSING, asdict, fields

from . import attacks, distributions, game, hypotheses, theorems, training
from .errors import AdvGameError, ConfigError

SUBCOMMANDS = (
    "risk", "score", "best-response", "no-nash", "rand-gap", "fig1",
    "train", "bat", "evaluate", "alpha-grid",
)

_GAME_KEYS = {"penalty", "lambda", "epsilon", "norm_kind", "eval"}
_EVAL_KEYS = {"method", "n", "seed"}
_DATA_KEYS = {"n_train", "n_test", "seed", "csv"}
_TRAIN_KEYS = {"mode", "epochs", "batch_size", "lr_stages", "momentum",
               "weight_decay", "seed", "sizes"}
_TRAIN_FIELDS = {"epochs": int, "batch_size": int, "momentum": float, "weight_decay": float,
                 "seed": int, "lr_stages": lambda v: tuple((int(e), float(lr)) for e, lr in v)}


def _exactly(kind):
    """A converter that passes a value of this JSON type through and rejects
    any other (bool("false") is True, str(5) is "5")."""
    def check(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {kind.__name__}")
        return value
    return check


_PGD_FIELDS = {"epsilon_inf": float, "step": float, "iters": int, "restarts": int,
               "random_init": _exactly(bool), "seed": int}
_CW_FIELDS = {"lr": float, "binary_search_steps": int, "initial_const": float, "iters": int,
              "abort_early": _exactly(bool)}
_ATTACK_KEYS = {"pgd", "cw", "box", "reject_thresholds", "eval_pgd"}
_BAT_KEYS = {"n", "alpha_bat", "first_candidates"}
_TOP_KEYS = {"distribution", "game", "hypothesis", "rounds", "improvement_threshold",
             "alpha_thm", "delta", "oracle", "resolution", "data", "train",
             "attack", "bat", "models", "candidates", "out_dir", "seed"}


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown fields in {where}: {sorted(unknown)}")


def _converted(field: str, value, convert):
    """convert(value); a value of the wrong type or shape is a ConfigError.

    An AdvGameError that convert raises keeps its own message.
    """
    try:
        return convert(value)
    except AdvGameError:
        raise
    except (TypeError, ValueError, AttributeError):
        raise ConfigError(f"{field} has the wrong type or shape: {value!r}") from None


def _float_list(value) -> list[float]:
    return [float(v) for v in value]


def _parse_game(raw: dict) -> game.GameConfig:
    _reject_unknown(raw, _GAME_KEYS, "game")
    ev = raw.get("eval", {})
    _reject_unknown(ev, _EVAL_KEYS, "game.eval")
    return game.GameConfig(
        penalty=raw["penalty"],
        lam=_converted("game.lambda", raw["lambda"], float),
        epsilon=_converted("game.epsilon", raw["epsilon"], float),
        norm_kind=raw.get("norm_kind", "l2"),
        eval_method=ev.get("method", "quadrature"),
        mc_n=_converted("game.eval.n", ev.get("n", 10000), int),
        mc_seed=_converted("game.eval.seed", ev.get("seed", 0), int),
    )


def _parse_attack(raw: dict, where: str, config_type, converters: dict):
    """An attack config: each field from raw, else from the preset, else the
    dataclass default."""
    _reject_unknown(raw, set(converters) | {"preset"}, where)
    defaults = {f.name: f.default for f in fields(config_type) if f.default is not MISSING}
    if "preset" in raw:
        base = attacks.ATTACK_PRESETS.get(raw["preset"])
        if not isinstance(base, config_type):
            raise ConfigError(f"unknown {where} preset {raw['preset']!r}")
        defaults = asdict(base)
    return config_type(**{key: _converted(f"{where}.{key}", raw[key] if key in raw
                                          else defaults[key], convert)
                          for key, convert in converters.items()})


def _parse_pgd(raw: dict) -> attacks.PgdConfig:
    return _parse_attack(raw, "attack.pgd", attacks.PgdConfig, _PGD_FIELDS)


def _parse_cw(raw: dict) -> attacks.CwConfig:
    return _parse_attack(raw, "attack.cw", attacks.CwConfig, _CW_FIELDS)


def _parse_train(raw: dict, preset: str | None) -> tuple[str, training.TrainConfig]:
    _reject_unknown(raw, _TRAIN_KEYS, "train")
    mode = raw.get("mode", "natural")
    if mode not in ("natural", "adversarial"):
        raise ConfigError("train.mode must be 'natural' or 'adversarial'")
    sizes = _converted("train.sizes", raw.get("sizes", (2, 32, 32, 2)),
                       lambda v: tuple(int(s) for s in v))
    base = (training.train_paper_preset(sizes) if preset == "paper"
            else training.train_desk_preset(sizes))
    fields = {key: _converted(f"train.{key}", raw.get(key, getattr(base, key)), convert)
              for key, convert in _TRAIN_FIELDS.items()}
    return mode, training.TrainConfig(sizes=sizes, **fields)


def _load_data(cfg: dict, spec) -> tuple:
    raw = cfg.get("data", {})
    _reject_unknown(raw, _DATA_KEYS, "data")
    if raw.get("csv"):
        full = distributions.measure_from_csv(_converted("data.csv", raw["csv"], _exactly(str)))
        n_test = _converted("data.n_test", raw.get("n_test", 0), int)
        if n_test:
            train = distributions.EmpiricalMeasure(
                full.points[:-n_test], full.labels[:-n_test], full.seed)
            test = distributions.EmpiricalMeasure(
                full.points[-n_test:], full.labels[-n_test:], full.seed)
            return train, test
        return full, None
    if spec is None:
        raise ConfigError("data needs either a csv path or a distribution")
    seed = _converted("data.seed", raw.get("seed", 0), int)
    n_train = _converted("data.n_train", raw.get("n_train", 2000), int)
    n_test = _converted("data.n_test", raw.get("n_test", 1000), int)
    train = distributions.sample_labeled(spec, n_train, seed)
    test = distributions.sample_labeled(spec, n_test, seed + 1)
    return train, test


def _box(cfg: dict):
    box = cfg.get("attack", {}).get("box", [0.0, 1.0])
    if box is None:
        return None
    try:
        lo, hi = (float(v) for v in box)
        ok = isinstance(box, list) and lo < hi
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ConfigError(f"attack.box must be null or [lo, hi] with lo < hi, got {box}")
    return lo, hi


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


def _spec_of(cfg: dict):
    if "distribution" not in cfg:
        return None
    return _converted("distribution", cfg["distribution"], distributions.spec_from_dict)


def _hypothesis_of(cfg: dict, spec):
    if "hypothesis" in cfg:
        return _converted("hypothesis", cfg["hypothesis"], hypotheses.hypothesis_from_dict)
    if spec is not None:
        return hypotheses.Threshold(0.0)
    raise ConfigError("this subcommand needs a 'hypothesis' or a 'distribution'")


# ---------------------------------------------------------------------------
# Subcommand handlers: return (results dict, passed flag, extra artifact paths)
# ---------------------------------------------------------------------------

def _run_risk(cfg, out_dir, preset):
    spec = _spec_of(cfg)
    gc = _parse_game(cfg["game"])
    h = _hypothesis_of(cfg, spec)
    value = game.risk(h, spec, gc)
    return {"risk": value}, True, []


def _run_score(cfg, out_dir, preset):
    spec = _spec_of(cfg)
    gc = _parse_game(cfg["game"])
    h = _hypothesis_of(cfg, spec)
    attack = game.best_response_attack(h, spec, gc)
    rep = game.adversarial_score(h, attack, spec, gc)
    return {"score": asdict(rep)}, True, []


def _run_best_response(cfg, out_dir, preset):
    spec = _spec_of(cfg)
    gc = _parse_game(cfg["game"])
    h = _hypothesis_of(cfg, spec)
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
    if isinstance(attack, game.ZoneAttack1D):
        results["zones"] = {
            "pos": [list(p) for p in attack.pieces(1)],
            "neg": [list(p) for p in attack.pieces(-1)],
        }
    return results, True, []


def _run_no_nash(cfg, out_dir, preset):
    spec = _spec_of(cfg)
    gc = _parse_game(cfg["game"])
    rep = theorems.verify_no_pure_nash(
        spec, gc,
        rounds=_converted("rounds", cfg.get("rounds", 5), int),
        threshold=_converted("improvement_threshold",
                             cfg.get("improvement_threshold", 1e-6), float),
    )
    return rep.to_dict(), rep.passed, []


def _run_rand_gap(cfg, out_dir, preset):
    spec = _spec_of(cfg)
    gc = _parse_game(cfg["game"])
    h1 = _hypothesis_of(cfg, spec)
    oracle = cfg.get("oracle", {})
    _reject_unknown(oracle, {"inner", "per_piece", "enabled"}, "oracle")
    delta = cfg.get("delta")
    rep = theorems.randomization_gap(
        h1, spec, gc,
        alpha_thm=_converted("alpha_thm", cfg["alpha_thm"], float),
        delta=None if delta is None else _converted("delta", delta, float),
        run_oracle=_converted("oracle.enabled", oracle.get("enabled", True), _exactly(bool)),
        oracle_inner=_converted("oracle.inner", oracle.get("inner", 1025), int),
        oracle_per_piece=_converted("oracle.per_piece", oracle.get("per_piece", 256), int),
        threshold=_converted("improvement_threshold",
                             cfg.get("improvement_threshold", 1e-6), float),
    )
    return rep.to_dict(), rep.passed, []


def _run_fig1(cfg, out_dir, preset):
    spec = _spec_of(cfg)
    gc = _parse_game(cfg["game"])
    paths = theorems.fig1_export(
        spec, gc, out_dir,
        resolution=_converted("resolution", cfg.get("resolution", 2001), int))
    return {"files": [os.path.basename(p) for p in paths]}, True, paths


def _run_train(cfg, out_dir, preset):
    spec = _spec_of(cfg)
    mode, tc = _parse_train(cfg.get("train", {}), preset)
    attack_raw = cfg.get("attack", {})
    _reject_unknown(attack_raw, _ATTACK_KEYS, "attack")
    box = _box(cfg)
    data, test = _load_data(cfg, spec)
    eval_pgd = (_parse_attack(attack_raw["eval_pgd"], "attack.eval_pgd", attacks.PgdConfig,
                              _PGD_FIELDS) if "eval_pgd" in attack_raw else None)
    if mode == "adversarial":
        pgd = _parse_pgd(attack_raw.get("pgd", {"preset": "pgd_train_paper"}))
        model, trace = training.train_adversarial(
            data, tc, pgd, eval_set=test, eval_attack=eval_pgd, box=box)
    else:
        model, trace = training.train_natural(
            data, tc, eval_set=test, eval_attack=eval_pgd, box=box)
    os.makedirs(out_dir, exist_ok=True)
    ckpt = os.path.join(out_dir, "model.json")
    with open(ckpt, "w") as fh:
        json.dump(hypotheses.hypothesis_to_dict(hypotheses.Mlp(model)), fh)
    trace_path = os.path.join(out_dir, "trace.csv")
    training.trace_to_csv(trace, trace_path)
    results = {
        "mode": mode,
        "final_train_acc": trace[-1].train_acc if trace else None,
        "checkpoint": "model.json",
        "trace": "trace.csv",
    }
    if test is not None:
        results["test_acc"] = attacks.accuracy(hypotheses.Mlp(model),
                                               test.points, test.labels)
    return results, True, [ckpt, trace_path]


def _run_bat(cfg, out_dir, preset):
    spec = _spec_of(cfg)
    _, tc = _parse_train(cfg.get("train", {}), preset)
    attack_raw = cfg.get("attack", {})
    _reject_unknown(attack_raw, _ATTACK_KEYS, "attack")
    bat_raw = cfg.get("bat", {})
    _reject_unknown(bat_raw, _BAT_KEYS, "bat")
    box = _box(cfg)
    data, test = _load_data(cfg, spec)
    pgd = _parse_pgd(attack_raw.get("pgd", {"preset": "pgd_train_paper"}))
    mixture = training.bat(
        data,
        n=_converted("bat.n", bat_raw.get("n", 2), int),
        alpha_bat=_converted("bat.alpha_bat", bat_raw.get("alpha_bat", 0.2), float),
        cfg=tc,
        attack_cfg=pgd,
        box=box,
        first_candidates=_converted("bat.first_candidates",
                                    bat_raw.get("first_candidates", 1), int),
    )
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "mixture.json")
    with open(path, "w") as fh:
        json.dump(hypotheses.mixture_to_dict(mixture), fh)
    results = {"weights": list(mixture.weights), "mixture": "mixture.json"}
    if test is not None:
        results["test_acc"] = attacks.accuracy(mixture, test.points, test.labels)
    return results, True, [path]


def _model_entries(cfg: dict) -> list[dict]:
    """The 'models' list; every entry is a {name, path} object."""
    models = _converted("models", cfg.get("models", []), _exactly(list))
    for entry in models:
        _reject_unknown(entry, {"name", "path"}, "models[]")
        _converted("models[].path", entry.get("path"), _exactly(str))
    return models


def _load_model(path):
    with open(path) as fh:
        raw = json.load(fh)
    if "weights" in raw and "hypotheses" in raw:
        return hypotheses.mixture_from_dict(raw)
    return hypotheses.hypothesis_from_dict(raw)


def _run_evaluate(cfg, out_dir, preset):
    spec = _spec_of(cfg)
    attack_raw = cfg.get("attack", {})
    _reject_unknown(attack_raw, _ATTACK_KEYS, "attack")
    box = _box(cfg)
    _, test = _load_data(cfg, spec)
    if test is None:
        raise ConfigError("evaluate needs test data (data.n_test or a csv)")
    pgd = _parse_pgd(attack_raw.get("pgd", {"preset": "pgd_paper"}))
    cw = _parse_cw(attack_raw.get("cw", {"preset": "cw_paper"}))
    thresholds = _converted(
        "attack.reject_thresholds",
        attack_raw.get("reject_thresholds", attacks.CW_REJECT_THRESHOLDS), _float_list)
    models = _model_entries(cfg)
    if not models:
        raise ConfigError("evaluate needs a 'models' list of {name, path}")
    rows = []
    for entry in models:
        model = _load_model(entry["path"])
        row = {
            "name": entry["name"],
            "natural_acc": attacks.accuracy(model, test.points, test.labels),
            "pgd_acc": attacks.accuracy_under_pgd(model, test.points, test.labels,
                                                  pgd, box),
        }
        cw_accs = attacks.accuracy_under_cw(model, test.points, test.labels, cw,
                                            box, thresholds)
        for eps2, acc in cw_accs.items():
            row[f"cw_acc_eps{eps2:g}"] = acc
        rows.append(row)
    os.makedirs(out_dir, exist_ok=True)
    table = os.path.join(out_dir, "evaluation.csv")
    with open(table, "w") as fh:
        cols = list(rows[0].keys())
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in cols) + "\n")
    return {"rows": rows, "table": "evaluation.csv"}, True, [table]


def _run_alpha_grid(cfg, out_dir, preset):
    spec = _spec_of(cfg)
    attack_raw = cfg.get("attack", {})
    _reject_unknown(attack_raw, _ATTACK_KEYS, "attack")
    box = _box(cfg)
    _, test = _load_data(cfg, spec)
    if test is None:
        raise ConfigError("alpha-grid needs validation data (data.n_test or a csv)")
    pgd = _parse_pgd(attack_raw.get("pgd", {"preset": "pgd_paper"}))
    candidates = _converted("candidates", cfg.get("candidates", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]),
                            _float_list)
    models = _model_entries(cfg)
    if len(models) != 2:
        raise ConfigError("alpha-grid needs exactly two entries in 'models'")
    h1 = _load_model(models[0]["path"])
    h2 = _load_model(models[1]["path"])
    best, table = training.grid_search_alpha(h1, h2, test, candidates, pgd, box=box)
    return {"alpha": best, "table": [[a, acc] for a, acc in table]}, True, []


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
                        help="training/attack hyperparameter preset family")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
        _reject_unknown(cfg, _TOP_KEYS, "config")
        if args.seed is not None:
            cfg["seed"] = args.seed
            data = cfg.setdefault("data", {})
            _reject_unknown(data, _DATA_KEYS, "data")
            data["seed"] = args.seed
        cfg.setdefault("seed", 0)
        out_dir = _converted("out_dir", cfg.get("out_dir", "out"), _exactly(str))
        out_dir = args.out or out_dir
        results, passed, artifacts = _HANDLERS[args.subcommand](cfg, out_dir, args.preset)
    except (ConfigError, FileNotFoundError, KeyError, json.JSONDecodeError) as exc:
        detail = exc.args[0] if exc.args else exc
        print(f"config error: {detail}", file=sys.stderr)
        return 2
    except AdvGameError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    name = f"{args.subcommand.replace('-', '_')}_report.json"
    path = _emit(out_dir, name, args.subcommand, cfg, results, passed)
    print(json.dumps({"resolved_config": cfg, "report": path,
                      "passed": passed}, indent=2, sort_keys=True))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
