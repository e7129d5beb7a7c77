import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from advgame import attacks, cli, hypotheses, nets, training


def write_config(tmp_path, extra=None, name="cfg.json"):
    cfg = {
        "distribution": {
            "prior_pos": 0.5,
            "dimension": 1,
            "components_pos": [{"weight": 1.0, "mean": [1.0], "var": [1.0]}],
            "components_neg": [{"weight": 1.0, "mean": [-1.0], "var": [1.0]}],
        },
        "game": {"penalty": "mass", "lambda": 0.3, "epsilon": 0.5},
        "hypothesis": {"kind": "threshold", "t": 0.0, "orientation": 1},
        "seed": 0,
    }
    cfg.update(extra or {})
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_report(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def test_risk_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["risk", "--config", cfg, "--out", out]) == 0
    rep = read_report(out, "risk_report.json")
    assert rep["passed"] is True
    assert 0.0 < rep["results"]["risk"] < 0.5
    assert "config_hash" in rep and "timestamp" in rep


def test_reports_byte_identical_modulo_timestamp(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    cli.main(["no-nash", "--config", cfg, "--out", out1])
    cli.main(["no-nash", "--config", cfg, "--out", out2])
    a = read_report(out1, "no_nash_report.json")
    b = read_report(out2, "no_nash_report.json")
    a.pop("timestamp")
    b.pop("timestamp")
    assert a == b


def test_no_nash_pass_and_forced_failure(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["no-nash", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    # an absurd improvement threshold turns the run into an assertion failure
    cfg_fail = write_config(tmp_path, {"improvement_threshold": 10.0}, "fail.json")
    assert cli.main(["no-nash", "--config", cfg_fail, "--out", str(tmp_path / "b")]) == 1


def test_rand_gap_pass_and_range_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"alpha_thm": 0.8,
                                  "oracle": {"inner": 257, "per_piece": 64}})
    assert cli.main(["rand-gap", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    bad = write_config(tmp_path, {"alpha_thm": 0.5}, "bad.json")
    code = cli.main(["rand-gap", "--config", bad, "--out", str(tmp_path / "b")])
    assert code == 2
    err = capsys.readouterr().err
    assert "admissible interval" in err  # diagnostic names the violated range


def test_unknown_field_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"surprise": 1})
    assert cli.main(["risk", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "surprise" in capsys.readouterr().err


def test_invalid_game_config_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"game": {"penalty": "mass", "lambda": 0.0,
                                           "epsilon": 0.5}})
    assert cli.main(["risk", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "lambda" in capsys.readouterr().err


def test_fig1_subcommand(tmp_path):
    cfg = write_config(tmp_path, {"resolution": 201})
    out = str(tmp_path / "fig")
    assert cli.main(["fig1", "--config", cfg, "--out", out]) == 0
    assert set(read_report(out, "fig1_report.json")["results"]["files"]) == {
        "fig1_original.csv", "fig1_none.csv", "fig1_mass.csv",
        "fig1_norm.csv", "fig1_atoms.csv",
    }


def test_best_response_subcommand(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "br")
    assert cli.main(["best-response", "--config", cfg, "--out", out]) == 0
    rep = read_report(out, "best_response_report.json")
    assert rep["results"]["attack_kind"] == "closed_form"
    assert rep["results"]["defender"]["kind"] == "interval1d"
    assert rep["results"]["defender_score"]["score"] < rep["results"]["attacker_score"]["score"]


def test_best_response_subcommand_2d_binned_defender(tmp_path):
    cfg = write_config(tmp_path, {
        "distribution": {
            "prior_pos": 0.5,
            "dimension": 2,
            "components_pos": [{"weight": 1.0, "mean": [0.7, 0.7], "var": [0.02, 0.02]}],
            "components_neg": [{"weight": 1.0, "mean": [0.3, 0.3], "var": [0.02, 0.02]}],
        },
        "game": {"penalty": "mass", "lambda": 0.3, "epsilon": 0.2,
                 "eval": {"method": "monte_carlo", "n": 2000, "seed": 1}},
        "hypothesis": {"kind": "linear", "w": [1.0, 0.5], "b": -0.75},
    })
    out = str(tmp_path / "br2d")
    assert cli.main(["best-response", "--config", cfg, "--out", out]) == 0
    rep = read_report(out, "best_response_report.json")
    defender = rep["results"]["defender"]
    assert defender["kind"] == "binned2d"
    back = hypotheses.hypothesis_from_dict(defender)
    assert isinstance(back, hypotheses.Binned2D)
    assert hypotheses.hypothesis_to_dict(back) == defender


def test_quadrature_on_2d_config_points_to_monte_carlo(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "distribution": {
            "prior_pos": 0.5,
            "dimension": 2,
            "components_pos": [{"weight": 1.0, "mean": [1.0, 0.5], "var": [1.0, 1.0]}],
            "components_neg": [{"weight": 1.0, "mean": [-1.0, -0.5], "var": [1.0, 1.0]}],
        },
        "hypothesis": {"kind": "linear", "w": [1.0, 0.5], "b": -0.75},
    })
    for sub in ("risk", "score", "best-response"):
        assert cli.main([sub, "--config", cfg, "--out", str(tmp_path / sub)]) == 2
        err = capsys.readouterr().err
        assert "quadrature evaluation is exact only in 1-D" in err
        assert '"eval": {"method": "monte_carlo"}' in err


def test_emit_leaves_no_file_for_unserializable_report(tmp_path):
    with pytest.raises(TypeError):
        cli._emit(str(tmp_path), "risk_report.json", "risk", {}, {"risk": object()}, True)
    assert not os.path.exists(tmp_path / "risk_report.json")


def _training_config(tmp_path, **extra):
    cfg = {
        "distribution": {
            "prior_pos": 0.5,
            "dimension": 2,
            "components_pos": [{"weight": 1.0, "mean": [0.62, 0.62], "var": [0.004, 0.004]}],
            "components_neg": [{"weight": 1.0, "mean": [0.38, 0.38], "var": [0.004, 0.004]}],
        },
        "data": {"n_train": 200, "n_test": 100, "seed": 1},
        "train": {"mode": "natural", "epochs": 5, "batch_size": 32,
                  "lr_stages": [[0, 0.1]], "seed": 0, "sizes": [2, 8, 2]},
        "attack": {"pgd": {"epsilon_inf": 0.05, "step": 0.02, "iters": 5},
                   "cw": {"iters": 20, "binary_search_steps": 4}},
        "seed": 0,
    }
    cfg.update(extra)
    path = tmp_path / "train.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_train_bat_evaluate_alpha_grid_pipeline(tmp_path):
    out = str(tmp_path / "run")
    cfg = _training_config(tmp_path)
    assert cli.main(["train", "--config", cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "model.json"))
    trace = Path(out, "trace.csv").read_text().splitlines()
    assert trace[0] == "epoch,train_loss,train_acc,eval_acc_under_attack"
    assert len(trace) == 6

    cfg_bat = _training_config(tmp_path, bat={"n": 2, "alpha_bat": 0.2})
    out_bat = str(tmp_path / "bat")
    assert cli.main(["bat", "--config", cfg_bat, "--out", out_bat]) == 0
    rep = read_report(out_bat, "bat_report.json")
    assert rep["results"]["weights"] == [0.8, 0.2]

    models = [
        {"name": "nat", "path": os.path.join(out, "model.json")},
        {"name": "bat", "path": os.path.join(out_bat, "mixture.json")},
    ]
    cfg_eval = _training_config(tmp_path, models=models)
    out_eval = str(tmp_path / "eval")
    assert cli.main(["evaluate", "--config", cfg_eval, "--out", out_eval]) == 0
    rep = read_report(out_eval, "evaluate_report.json")
    rows = rep["results"]["rows"]
    assert [r["name"] for r in rows] == ["nat", "bat"]
    # one accuracy column per rejection threshold
    for row in rows:
        for eps2 in (0.4, 0.6, 0.8):
            assert f"cw_acc_eps{eps2:g}" in row
    table = Path(out_eval, "evaluation.csv").read_text().splitlines()
    assert table[0].startswith("name,natural_acc,pgd_acc,cw_acc_eps0.4")

    cfg_grid = _training_config(
        tmp_path, models=models, candidates=[0.0, 0.5])
    out_grid = str(tmp_path / "grid")
    assert cli.main(["alpha-grid", "--config", cfg_grid, "--out", out_grid]) == 0
    rep = read_report(out_grid, "alpha_grid_report.json")
    assert rep["results"]["alpha"] in (0.0, 0.5)
    assert len(rep["results"]["table"]) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert cli.main(["risk", "--config", str(tmp_path / "nope.json")]) == 2


def _set_in(path, section, key, value):
    raw = json.loads(Path(path).read_text())
    raw[section][key] = value
    Path(path).write_text(json.dumps(raw))
    return path


def test_empty_lr_stages_exits_2(tmp_path, capsys):
    cfg = _set_in(_training_config(tmp_path), "train", "lr_stages", [])
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "lr_stages" in capsys.readouterr().err


@pytest.mark.parametrize("stages", [[[0]], [["a", 0.1]], 5])
def test_malformed_lr_stages_exits_2(tmp_path, capsys, stages):
    cfg = _set_in(_training_config(tmp_path), "train", "lr_stages", stages)
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "train.lr_stages" in capsys.readouterr().err


def test_zero_first_candidates_exits_2(tmp_path, capsys):
    cfg = _training_config(tmp_path, bat={"n": 2, "first_candidates": 0})
    assert cli.main(["bat", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "first_candidates" in capsys.readouterr().err


def test_first_best_aua_is_an_unknown_field(tmp_path, capsys):
    # the first classifier is always kept by accuracy under attack
    cfg = _training_config(tmp_path, bat={"n": 2, "first_best_aua": False})
    assert cli.main(["bat", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown fields in bat" in capsys.readouterr().err


def test_bat_selects_its_first_classifier_on_the_training_split(tmp_path, monkeypatch):
    # the report's test_acc is measured on the test split, so selection must not read it
    seen = []
    select = training._first_classifier

    def spy(data, cfg, attack_cfg, count, ref, select_attack, box):
        seen.append((len(data), len(ref), np.array_equal(ref.points, data.points)))
        return select(data, cfg, attack_cfg, count, ref, select_attack, box)

    monkeypatch.setattr(training, "_first_classifier", spy)
    cfg = _training_config(tmp_path, bat={"n": 2, "first_candidates": 2})
    out = str(tmp_path / "bat")
    assert cli.main(["bat", "--config", cfg, "--out", out]) == 0
    assert seen == [(200, 200, True)]
    assert "test_acc" in read_report(out, "bat_report.json")["results"]


@pytest.mark.parametrize("box", [[0.0], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0, 2.0], ["a", 1]])
def test_malformed_box_exits_2(tmp_path, capsys, box):
    cfg = _set_in(_training_config(tmp_path), "attack", "box", box)
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "attack.box" in capsys.readouterr().err


def test_cw_seed_is_an_unknown_field(tmp_path, capsys):
    # C&W has no random start, so a seed for it would be silently ignored
    cfg = _set_in(_training_config(tmp_path, models=[{"name": "m", "path": "unused.json"}]),
                  "attack", "cw", {"iters": 20, "seed": 3})
    assert cli.main(["evaluate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown fields in attack.cw" in capsys.readouterr().err


def test_shipped_game_config_runs_every_game_subcommand(tmp_path):
    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "game_1d.json")
    for sub in ("risk", "score", "best-response", "no-nash", "rand-gap", "fig1"):
        assert cli.main([sub, "--config", cfg, "--out", str(tmp_path / sub)]) == 0, sub
    for name in ("original", "none", "mass", "norm", "atoms"):
        assert (tmp_path / "fig1" / f"fig1_{name}.csv").is_file()


@pytest.mark.parametrize("sub, keys, value", [
    ("risk", ("game", "lambda"), "a"),
    ("risk", ("game", "epsilon"), [0.5]),
    ("risk", ("game", "eval", "n"), "many"),
    ("risk", ("game", "eval", "seed"), {}),
    ("train", ("data", "n_train"), "many"),
    ("train", ("data", "n_test"), "x"),
    ("train", ("data", "seed"), [1]),
    ("train", ("attack", "pgd", "epsilon_inf"), "a"),
    ("train", ("attack", "pgd", "step"), None),
    ("train", ("attack", "pgd", "iters"), "x"),
    ("train", ("attack", "pgd", "restarts"), [2]),
    ("train", ("attack", "pgd", "seed"), "s"),
    ("evaluate", ("attack", "cw", "lr"), "fast"),
    ("evaluate", ("attack", "cw", "binary_search_steps"), "x"),
    ("evaluate", ("attack", "cw", "initial_const"), None),
    ("evaluate", ("attack", "cw", "iters"), [20]),
    ("no-nash", ("rounds",), "x"),
    ("no-nash", ("improvement_threshold",), "x"),
    ("rand-gap", ("alpha_thm",), "x"),
    ("rand-gap", ("delta",), "x"),
    ("fig1", ("resolution",), "x"),
    ("rand-gap", ("oracle", "inner"), "x"),
    ("rand-gap", ("oracle", "per_piece"), "x"),
    ("bat", ("bat", "n"), "x"),
    ("bat", ("bat", "alpha_bat"), "x"),
    ("bat", ("bat", "first_candidates"), "x"),
    ("evaluate", ("attack", "reject_thresholds"), ["x"]),
    ("evaluate", ("attack", "reject_thresholds"), 0.4),
    ("alpha-grid", ("candidates",), ["x"]),
    ("alpha-grid", ("candidates",), 0.5),
    ("risk", ("out_dir",), 5),
    # flags take only JSON true or false: bool("false") would be True
    ("rand-gap", ("oracle", "enabled"), "false"),
    ("train", ("attack", "pgd", "random_init"), "false"),
    ("evaluate", ("attack", "cw", "abort_early"), 0),
    # a field is checked whenever it is present, even where the subcommand does not use it
    ("risk", ("bat", "n"), "x"),
    ("risk", ("attack", "reject_thresholds"), ["x"]),
    ("train", ("models",), 5),
    # numbers are JSON numbers: float(True) is 1.0, float("0.5") is 0.5, int(2.9) is 2
    ("score", ("game", "epsilon"), True),
    ("score", ("game", "epsilon"), "0.5"),
    ("no-nash", ("rounds",), 2.9),
    ("no-nash", ("rounds",), True),
])
def test_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, sub, keys, value):
    path = _config_with(tmp_path, sub, keys, value)
    assert cli.main([sub, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {'.'.join(keys)} has the wrong type" in capsys.readouterr().err


_GAME_SUBCOMMANDS = ("risk", "score", "best-response", "no-nash", "rand-gap", "fig1")


def _config_with(tmp_path, sub, keys, value):
    """A runnable config for sub with the field at keys set to value."""
    path = (write_config(tmp_path, {"alpha_thm": 0.8}) if sub in _GAME_SUBCOMMANDS
            else _training_config(tmp_path, models=[{"name": "m", "path": "unused.json"}]))
    raw = json.loads(Path(path).read_text())
    if sub == "train":
        raw["train"]["mode"] = "adversarial"
    section = raw
    for key in keys[:-1]:
        section = section.setdefault(key, {})
    section[keys[-1]] = value
    Path(path).write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize("sub, keys, value", [
    ("risk", ("game",), 5),
    ("risk", ("game", "eval"), 5),
    ("rand-gap", ("oracle",), 5),
    ("train", ("data",), 5),
    ("train", ("train",), 5),
    ("train", ("attack",), 5),
    ("train", ("attack", "pgd"), 5),
    ("train", ("attack", "eval_pgd"), 5),
    ("bat", ("bat",), 5),
    ("risk", ("distribution",), 5),
    ("risk", ("hypothesis",), 5),
    ("evaluate", ("models",), [5]),
    ("evaluate", ("models",), 5),
    ("risk", ("distribution", "prior_pos"), "x"),
    ("risk", ("distribution", "dimension"), "x"),
    ("risk", ("hypothesis", "t"), "x"),
    ("risk", ("hypothesis", "orientation"), "x"),
    ("risk", ("distribution", "components_pos"), [{"weight": 1.0, "mean": ["a"], "var": [1.0]}]),
    # degenerate counts are config errors, not verdicts
    ("no-nash", ("rounds",), 0),
    ("rand-gap", ("oracle", "per_piece"), 0),
    ("rand-gap", ("oracle", "per_piece"), -4),
    ("fig1", ("resolution",), 0),
    ("train", ("attack", "pgd", "preset"), ["x"]),
    ("evaluate", ("attack", "cw", "preset"), {}),
    ("train", ("attack", "pgd", "preset"), "cw_paper"),
    # null is accepted only for delta, attack.box and data.csv
    ("train", ("attack", "pgd"), None),
    ("evaluate", ("attack", "cw"), None),
    ("risk", ("game", "eval"), None),
    ("bat", ("bat",), None),
    # counts below 1 name their field
    ("train", ("data", "n_train"), -5),
    ("train", ("data", "n_train"), 0),
    ("train", ("data", "n_test"), 0),
    ("evaluate", ("data", "n_test"), 0),
    ("bat", ("data", "n_test"), -3),
])
def test_malformed_config_exits_2_naming_the_field(tmp_path, capsys, sub, keys, value):
    path = _config_with(tmp_path, sub, keys, value)
    assert cli.main([sub, "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and keys[-1] in err


def test_alpha_grid_without_validation_data_exits_2(tmp_path, capsys):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("x0,x1,label\n0.2,0.3,-1\n0.7,0.6,1\n")
    path = _config_with(tmp_path, "alpha-grid", ("data",), {"csv": str(csv_path)})
    assert cli.main(["alpha-grid", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "config error: alpha-grid needs validation data" in capsys.readouterr().err


def test_seed_override_needs_a_data_object(tmp_path, capsys):
    path = _config_with(tmp_path, "risk", ("data",), 5)
    assert cli.main(["risk", "--config", path, "--out", str(tmp_path / "o"), "--seed", "3"]) == 2
    assert "config error: data must be a JSON object" in capsys.readouterr().err


def test_convert_keeps_the_message_of_a_package_error(tmp_path, capsys):
    path = _config_with(tmp_path, "risk", ("distribution", "prior_pos"), 1.5)
    assert cli.main(["risk", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "config error: prior_pos must be in (0, 1), got 1.5" in capsys.readouterr().err


def test_flag_false_turns_the_oracle_off(tmp_path):
    path = _config_with(tmp_path, "rand-gap", ("oracle", "enabled"), False)
    out = str(tmp_path / "o")
    assert cli.main(["rand-gap", "--config", path, "--out", out]) == 0
    assert read_report(out, "rand_gap_report.json")["results"]["gap_oracle"] is None


def test_preset_override_and_csv_split_of_the_wrong_type_exit_2(tmp_path, capsys):
    cfg = _set_in(_training_config(tmp_path, train={"mode": "adversarial", "epochs": 1}),
                  "attack", "pgd", {"preset": "pgd_train_paper", "iters": "x"})
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "attack.pgd.iters has the wrong type" in capsys.readouterr().err
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("x0,x1,label\n0.2,0.3,-1\n0.7,0.6,1\n")
    cfg = _set_in(_training_config(tmp_path), "data", "csv", str(csv_path))
    cfg = _set_in(cfg, "data", "n_test", "one")
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "data.n_test has the wrong type" in capsys.readouterr().err


@pytest.mark.parametrize("sub, field, text", [
    ("train", "data.csv", "x0,x1,label\n0.2,a,-1\n"),
    ("train", "data.csv", "x0,x1,label\n0.2,0.3,-1\n0.7,1\n"),
    ("bat", "data.csv", ""),
    ("evaluate", "data.csv", "x0,x1,label\n0.2,0.3,-1\n\n0.7,0.6,1\n"),
    ("evaluate", "models[].path", "[1, 2]"),
    ("evaluate", "models[].path", '{"kind": "threshold", "t": "zero"}'),
    ("evaluate", "models[].path", '{"weights": [1.0], "hypotheses": [5]}'),
    ("alpha-grid", "models[].path",
     '{"kind": "mlp", "model": {"sizes": "ab", "weights": [], "biases": []}}'),
])
def test_malformed_input_file_exits_2_naming_the_field(tmp_path, capsys, sub, field, text):
    path = tmp_path / "input"
    path.write_text(text)
    if field == "data.csv":
        cfg = _config_with(tmp_path, sub, ("data", "csv"), str(path))
    else:
        entry = {"name": "m", "path": str(path)}
        cfg = _config_with(tmp_path, sub, ("models",), [entry, entry])
    assert cli.main([sub, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field} has the wrong type")


_MLP_FILE = {"kind": "mlp", "model": nets.mlp_to_dict(nets.init_mlp((2, 4, 2), seed=0))}
_BAND_FLIP = {"kind": "region_flip", "base": {"kind": "threshold", "t": 0.5},
              "region": {"kind": "band", "h": {"kind": "threshold", "t": 0.5},
                         "delta": 0.1, "side": 1, "norm_kind": "l7"}}


@pytest.mark.parametrize("sub, raw, message", [
    ("alpha-grid", _MLP_FILE | {"model": _MLP_FILE["model"] | {"sizes": [2.9, 4, 2]}},
     "models[].path has the wrong type or shape: model.sizes = [2.9, 4, 2]"),
    ("alpha-grid", _MLP_FILE | {"model": _MLP_FILE["model"] | {"slope": True}},
     "models[].path has the wrong type or shape: model.slope = True"),
    ("evaluate", _MLP_FILE | {"model": _MLP_FILE["model"] | {"slope": "0.5"}},
     "models[].path has the wrong type or shape: model.slope = '0.5'"),
    ("evaluate", _BAND_FLIP, "norm_kind must be one of ('l2', 'linf'), got 'l7'"),
    # np.array(["0.5", True], dtype=float) is [0.5, 1.0]
    ("evaluate", _MLP_FILE | {"model": _MLP_FILE["model"] | {"biases": [["0.5"] * 4, [0.0] * 2]}},
     "models[].path has the wrong type or shape: model.biases = [['0.5', "),
    ("alpha-grid", _MLP_FILE | {"model": _MLP_FILE["model"] | {"weights": [[True] * 8, [0.0] * 8]}},
     "models[].path has the wrong type or shape: model.weights = [[True, "),
])
def test_model_file_with_a_bad_field_exits_2_naming_it(tmp_path, capsys, sub, raw, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(raw))
    entry = {"name": "m", "path": str(path)}
    cfg = _config_with(tmp_path, sub, ("models",), [entry, entry])
    assert cli.main([sub, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")


_THRESHOLD = {"kind": "threshold", "t": 0.0}


@pytest.mark.parametrize("sub, keys, value, where, key", [
    ("score", ("hypothesis",), {"kind": "threshold", "t": 0.3, "orientaton": -1},
     "hypothesis", "orientaton"),
    ("score", ("distribution", "components_pos"),
     [{"weight": 1.0, "mean": [1.0], "var": [1.0], "skew": 0.0}],
     "distribution.components_pos[]", "skew"),
    ("score", ("hypothesis",), {"kind": "region_flip", "base": _THRESHOLD,
                                "region": {"kind": "interval", "lo": 0.5, "hi": 1.0, "open": 1}},
     "hypothesis.region", "open"),
    # model files: a mixture, an mlp hypothesis and the net inside it
    ("evaluate", "file", {"weights": [1.0], "hypotheses": [_MLP_FILE], "temperature": 1.0},
     "models[].path", "temperature"),
    ("alpha-grid", "file", _MLP_FILE | {"dropout": 0.5}, "models[].path", "dropout"),
    ("alpha-grid", "file", _MLP_FILE | {"model": _MLP_FILE["model"] | {"dropout": 0.5}},
     "models[].path: model", "dropout"),
    ("evaluate", "file", _MLP_FILE | {"model": _MLP_FILE["model"] | {"slop": 0.5}},
     "models[].path: model", "slop"),
])
def test_unknown_key_in_a_nested_object_or_model_file_exits_2(tmp_path, capsys, sub, keys, value,
                                                              where, key):
    # each of these used to run with the key dropped without a word
    if keys == "file":
        path = tmp_path / "model.json"
        path.write_text(json.dumps(value))
        keys, value = ("models",), [{"name": "m", "path": str(path)}] * 2
    cfg = _config_with(tmp_path, sub, keys, value)
    assert cli.main([sub, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: unknown fields in {where}: ['{key}']\n"


_PGD = {"epsilon_inf": 0.05, "step": 0.02, "iters": 5}


@pytest.mark.parametrize("sub, keys, value, field, seed", [
    ("score", ("seed",), -1, "seed", -1),
    ("score", ("game", "eval"), {"method": "monte_carlo", "seed": -1}, "game.eval.seed", -1),
    ("train", ("data", "seed"), -1, "data.seed", -1),
    ("train", ("train", "seed"), -1, "train.seed", -1),
    ("train", ("attack", "pgd"), {"preset": "pgd_train_paper", "seed": -2}, "attack.pgd.seed", -2),
    ("train", ("attack", "eval_pgd"), _PGD | {"seed": -1}, "attack.eval_pgd.seed", -1),
    ("train", ("train", "epochs"), 1, "--seed", -1),
])
def test_negative_seed_exits_2_naming_it(tmp_path, capsys, sub, keys, value, field, seed):
    # numpy's default_rng(-1) raises "expected non-negative integer"
    path = _config_with(tmp_path, sub, keys, value)
    flag = ["--seed", str(seed)] if field == "--seed" else []
    assert cli.main([sub, "--config", path, "--out", str(tmp_path / "o")] + flag) == 2
    assert capsys.readouterr().err == f"config error: {field} must be >= 0, got {seed}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("sizes", [[2, 0, 2], [2, -1, 2]])
def test_layer_width_below_1_exits_2_naming_sizes(tmp_path, capsys, sizes):
    # a width of 0 divided by zero in the init, and one of -1 failed in numpy
    path = _config_with(tmp_path, "train", ("train", "sizes"), sizes)
    assert cli.main(["train", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: train.sizes[] must be >= 1, got {sizes[1]}\n"
    # an mlp file of the same sizes: two empty weight arrays and one empty bias
    model = tmp_path / "model.json"
    width = max(sizes[1], 0)
    model.write_text(json.dumps({"kind": "mlp", "model": {
        "sizes": sizes, "weights": [[0.0] * 2 * width] * 2, "biases": [[0.0] * width, [0.0] * 2]}}))
    entry = {"name": "m", "path": str(model)}
    path = _config_with(tmp_path, "evaluate", ("models",), [entry])
    assert cli.main(["evaluate", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (f"config error: models[].path: model.sizes[] must be >= 1, "
                                       f"got {sizes[1]}\n")


@pytest.mark.parametrize("sub, n_test", [("train", -25), ("evaluate", 31)])
def test_csv_split_outside_the_rows_exits_2(tmp_path, capsys, sub, n_test):
    # on 30 rows, -25 trained on the first 25 and tested on the last 5, and
    # 31 tested on all 30
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("x0,x1,label\n" + "".join(
        f"{0.1 + i / 50},0.5,{1 if i % 2 else -1}\n" for i in range(30)))
    path = _config_with(tmp_path, sub, ("data",), {"csv": str(csv_path), "n_test": n_test})
    assert cli.main([sub, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: data.n_test must be in [0, 30], the csv's row count, got {n_test}" \
        in capsys.readouterr().err


def test_missing_required_field_is_named(tmp_path, capsys):
    raw = json.loads(Path(write_config(tmp_path)).read_text())
    del raw["game"]["lambda"]
    path = tmp_path / "nolambda.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["risk", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "config error: game.lambda is missing" in capsys.readouterr().err
    model = tmp_path / "model.json"
    model.write_text('{"kind": "threshold"}')
    entry = {"name": "m", "path": str(model)}
    path = _config_with(tmp_path, "evaluate", ("models",), [entry, entry])
    assert cli.main(["evaluate", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "config error: models[].path: t is missing" in capsys.readouterr().err


def test_null_is_accepted_for_delta_box_and_csv(tmp_path):
    path = _config_with(tmp_path, "rand-gap", ("delta",), None)
    assert cli.main(["rand-gap", "--config", path, "--out", str(tmp_path / "gap")]) == 0
    path = _config_with(tmp_path, "train", ("attack", "box"), None)
    raw = json.loads(Path(path).read_text())
    raw["data"]["csv"] = None
    raw["train"]["epochs"] = 1
    Path(path).write_text(json.dumps(raw))
    assert cli.main(["train", "--config", path, "--out", str(tmp_path / "train")]) == 0


def test_shipped_bat_config_reaches_training_and_attacks(tmp_path, monkeypatch):
    # training and the attacks are stubbed: this checks what the CLI parses, not the runs
    net = hypotheses.Mlp(nets.init_mlp((2, 32, 32, 2), 0))
    seen = {}

    def train_adversarial(data, cfg, attack_cfg, *, eval_set, eval_attack, box):
        seen["train"] = (len(data), len(eval_set), cfg, attack_cfg, eval_attack, box)
        return net.net, []

    def bat(data, n, alpha_bat, cfg, attack_cfg, *, box, first_candidates):
        seen["bat"] = (len(data), n, alpha_bat, cfg, attack_cfg, box, first_candidates)
        return hypotheses.MixedClassifier((net, net), (0.8, 0.2))

    def accuracy_under_pgd(model, X, Y, cfg, box):
        seen.setdefault("pgd", []).append((len(X), cfg, box))
        return 0.5

    def accuracy_under_cw(model, X, Y, cfg, box, thresholds):
        seen.setdefault("cw", []).append((len(X), cfg, box, thresholds))
        return {eps2: 0.5 for eps2 in thresholds}

    def grid_search_alpha(h1, h2, validation, candidates, attack_cfg, *, box):
        seen["grid"] = (len(validation), candidates, attack_cfg, box)
        return 0.0, [(0.0, 0.5)]

    monkeypatch.setattr(training, "train_adversarial", train_adversarial)
    monkeypatch.setattr(training, "bat", bat)
    monkeypatch.setattr(attacks, "accuracy_under_pgd", accuracy_under_pgd)
    monkeypatch.setattr(attacks, "accuracy_under_cw", accuracy_under_cw)
    monkeypatch.setattr(training, "grid_search_alpha", grid_search_alpha)

    shipped = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "bat_2d.json")
    out = tmp_path / "run"
    for sub in ("train", "bat"):
        assert cli.main([sub, "--config", shipped, "--out", str(out / sub)]) == 0, sub
    raw = json.loads(Path(shipped).read_text())
    raw["models"] = [{"name": "at", "path": str(out / "train" / "model.json")},
                     {"name": "bat", "path": str(out / "bat" / "mixture.json")}]
    cfg = tmp_path / "with_models.json"
    cfg.write_text(json.dumps(raw))
    for sub in ("evaluate", "alpha-grid"):
        assert cli.main([sub, "--config", str(cfg), "--out", str(out / sub)]) == 0, sub

    desk = replace(training.train_desk_preset(), epochs=30, batch_size=64,
                   sizes=(2, 32, 32, 2), seed=0)
    box = (0.0, 1.0)
    assert seen["train"] == (2000, 1000, desk, attacks.PGD_TRAIN_PAPER, None, box)
    assert seen["bat"] == (2000, 2, 0.2, desk, attacks.PGD_TRAIN_PAPER, box, 1)
    assert seen["pgd"] == [(1000, attacks.PGD_TRAIN_PAPER, box)] * 2
    assert seen["cw"] == [(1000, attacks.CW_PAPER, box, [0.4, 0.6, 0.8])] * 2
    assert seen["grid"] == (1000, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5], attacks.PGD_TRAIN_PAPER, box)


@pytest.mark.parametrize("field", ["data.csv", "models[].path"])
def test_input_path_that_is_a_directory_exits_2(tmp_path, capsys, field):
    if field == "data.csv":
        path = _config_with(tmp_path, "evaluate", ("data", "csv"), str(tmp_path))
    else:
        entry = {"name": "m", "path": str(tmp_path)}
        path = _config_with(tmp_path, "evaluate", ("models",), [entry, entry])
    assert cli.main(["evaluate", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "config error: [Errno 21] Is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("keys, token", [
    (("game", "epsilon"), "NaN"),
    (("game", "epsilon"), "Infinity"),
    (("game", "epsilon"), "1e999"),
    (("hypothesis", "t"), "NaN"),
])
def test_non_finite_config_number_exits_2(tmp_path, capsys, keys, token):
    # json.load takes NaN, Infinity and 1e999 (inf) unless told otherwise
    path = _config_with(tmp_path, "score", keys, 0.123456789)
    Path(path).write_text(Path(path).read_text().replace("0.123456789", token))
    assert cli.main(["score", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: a JSON number must be finite, got {token}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_non_finite_csv_cell_exits_2(tmp_path, capsys):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("x0,x1,label\n0.2,0.3,-1\n0.7,nan,1\n")
    cfg = _config_with(tmp_path, "train", ("data", "csv"), str(csv_path))
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: data.csv has the wrong type")
    assert not (tmp_path / "o" / "model.json").exists()


def test_non_finite_number_in_a_model_file_exits_2(tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_text('{"kind": "threshold", "t": NaN}')
    entry = {"name": "m", "path": str(model)}
    cfg = _config_with(tmp_path, "evaluate", ("models",), [entry])
    assert cli.main(["evaluate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error: a JSON number must be finite, got NaN" in capsys.readouterr().err


@pytest.mark.parametrize("keys, value", [
    (("hypothesis", "t"), True),
    (("hypothesis", "t"), "0.5"),
    (("hypothesis", "orientation"), 1.9),
    (("distribution", "dimension"), 1.7),
    (("distribution", "prior_pos"), "0.5"),
])
def test_spec_and_hypothesis_value_of_the_wrong_type_exits_2(tmp_path, capsys, keys, value):
    # each of these used to run: a threshold at 1.0 or 0.5, an orientation or
    # dimension truncated to 1, a prior read from a string
    path = _config_with(tmp_path, "score", keys, value)
    assert cli.main(["score", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (f"config error: {'.'.join(keys)} has the wrong type or "
                                       f"shape: {value!r}\n")


def test_model_file_with_adjacent_cells_of_equal_sign_exits_2(tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_text('{"kind": "interval1d", "breaks": [0.0, 1.0], "signs": [1, 1, -1]}')
    cfg = _config_with(tmp_path, "evaluate", ("models",), [{"name": "m", "path": str(model)}])
    assert cli.main(["evaluate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error: adjacent cells must have opposite signs" in capsys.readouterr().err


@pytest.mark.parametrize("penalty, zones", [
    ("mass", {"pos": [[-1.9999989999999999, -1.0, -0.999999], [0.3, 1.299999, 0.299999]],
              "neg": [[-1.0, -0.35, -1.000001], [-0.35, 0.3, 0.30000099999999996]]}),
    ("norm", {"pos": [[-2.0, -1.0, -1.0], [0.3, 1.3, 0.3]],
              "neg": [[-1.0, -0.35, -1.0], [-0.35, 0.3, 0.3]]}),
])
def test_best_response_zones_are_the_attack_pieces(tmp_path, penalty, zones):
    cfg = write_config(tmp_path, {
        "game": {"penalty": penalty, "lambda": 0.3, "epsilon": 1.0},
        "hypothesis": {"kind": "interval1d", "breaks": [-1.0, 0.3], "signs": [1, -1, 1]},
    })
    out = str(tmp_path / "br")
    assert cli.main(["best-response", "--config", cfg, "--out", out]) == 0
    assert read_report(out, "best_response_report.json")["results"]["zones"] == zones
    # the penalty-free translation has no zones
    cfg = write_config(tmp_path, {"game": {"penalty": "none", "lambda": 0.3, "epsilon": 1.0}})
    assert cli.main(["best-response", "--config", cfg, "--out", out]) == 0
    assert "zones" not in read_report(out, "best_response_report.json")["results"]
