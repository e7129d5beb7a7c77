import json
import os
from pathlib import Path

import numpy as np
import pytest

from advgame import cli, hypotheses, training


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
