"""Command-line surface: exit codes, artifacts, determinism, schemas."""
import csv
import json
import logging
from dataclasses import replace

import numpy as np
import pytest

from reactplan import cli
from reactplan.cli import main
from reactplan.config import RunConfig, to_dict
from reactplan.energy import EnergyParams
from reactplan.inference import LbpConfig
from reactplan.learning import (TrainConfig, gradient, load_dataset, save_dataset,
                                synthetic_dataset)
from reactplan.sampler import SamplerConfig, sample_scene
from reactplan.simulator import SimConfig
from reactplan.scenarios import Scenario, builtin_templates


MISSING = object()     # a config key to delete rather than set


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "merge.json"
    builtin_templates()["merge_dense"].save(path)
    return path


@pytest.fixture()
def small_config(tmp_path):
    cfg = RunConfig(sampler=SamplerConfig(k=6, horizon_steps=6, dt=0.5))
    path = tmp_path / "config.json"
    cfg.save(path)
    return path


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestConfigRoundTrip:
    def test_lossless(self, tmp_path):
        # a non-default value in every section
        cfg = RunConfig(seed=7, variant="interpolated", set_size=3, n_variants=4,
                        sampler=SamplerConfig(k=5, mode_probs=(0.5, 0.25, 0.25),
                                              accel_range=(-3.0, 2.0)),
                        energy=EnergyParams(w_ego=np.arange(6.0), gamma=50.0),
                        lbp=LbpConfig(max_iters=20, fixed_iterations=True),
                        sim=SimConfig(replan_steps=2))
        path = tmp_path / "cfg.json"
        cfg.save(path)
        loaded = RunConfig.load(path)
        assert to_dict(loaded) == to_dict(cfg)
        assert loaded.seed == 7 and loaded.set_size == 3
        np.testing.assert_array_equal(loaded.energy.w_ego, cfg.energy.w_ego)
        # tuple fields come back as tuples, so the frozen sections stay hashable
        assert loaded.sampler == cfg.sampler and hash(loaded.sampler) == hash(cfg.sampler)
        assert (loaded.lbp, loaded.sim) == (cfg.lbp, cfg.sim)


class TestRunConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("seed", -1), ("seed", 2.5), ("seed", True), ("n_variants", 0),
        ("n_variants", 2.5), ("set_size", 0), ("set_size", 2.5), ("set_size", True)])
    def test_rejects_bad_seed_and_counts(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            RunConfig(**{field: value})

    def test_accepts_seed_zero_and_no_set_size(self):
        assert RunConfig(seed=0, set_size=None, n_variants=1).seed == 0


class TestCmdSample:
    def test_writes_expected_rows(self, tmp_path, scenario_file, small_config):
        out = tmp_path / "out"
        code = main(["--config", str(small_config), "--out", str(out),
                     "sample", str(scenario_file), "--actor", "1"])
        assert code == 0
        with open(out / "candidates.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6 * 6
        assert set(rows[0]) == {"candidate", "t", "x", "y", "heading", "speed"}

    def test_replay_is_byte_identical(self, tmp_path, scenario_file, small_config):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["--config", str(small_config), "--seed", "5",
                         "--out", str(out), "sample", str(scenario_file)]) == 0
        assert read_bytes(out_a / "candidates.csv") == \
            read_bytes(out_b / "candidates.csv")

    def test_single_candidate_config_is_stationary(self, tmp_path, scenario_file):
        cfg_path = tmp_path / "k1.json"
        RunConfig(sampler=SamplerConfig(k=1)).save(cfg_path)
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out),
                     "sample", str(scenario_file)]) == 0
        with open(out / "candidates.csv") as fh:
            rows = list(csv.DictReader(fh))
        xs = {row["x"] for row in rows}
        assert len(rows) == 8 and len(xs) == 1

    def test_unknown_actor_exits_2(self, tmp_path, scenario_file):
        assert main(["--out", str(tmp_path / "o"), "sample",
                     str(scenario_file), "--actor", "99"]) == 2

    @pytest.mark.parametrize("actor", ["-1", "7"])
    def test_out_of_range_actor_exits_2_before_sampling(self, tmp_path, scenario_file,
                                                        monkeypatch, actor):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking the actor id")
        monkeypatch.setattr(cli, "sample_scene", no_sampling)
        assert main(["--out", str(tmp_path / "o"), "sample",
                     str(scenario_file), "--actor", actor]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("actor", [0, 1, 6])
    def test_rows_equal_that_row_of_the_scene_sample(self, tmp_path, scenario_file,
                                                     small_config, actor):
        # infer and plan sample the scene with seed parts (seed,); sample
        # writes row ``actor`` of that same call
        out = tmp_path / "out"
        assert main(["--config", str(small_config), "--seed", "9", "--out", str(out),
                     "sample", str(scenario_file), "--actor", str(actor)]) == 0
        scenario = Scenario.load(scenario_file)
        states = [scenario.ego.state] + [a.state for a in scenario.actors]
        cfg = RunConfig.load(small_config).sampler
        want = sample_scene([(s.pose.x, s.pose.y, s.pose.heading) for s in states],
                            [s.speed for s in states], cfg, (9,))[actor]
        with open(out / "candidates.csv") as fh:
            rows = list(csv.DictReader(fh))
        k, t = want.speeds.shape
        assert [(int(r["candidate"]), float(r["t"])) for r in rows] == \
            [(a, w * cfg.dt) for a in range(k) for w in range(t)]
        # repr() round-trips floats, so parsing the CSV gives the exact values
        got = np.array([[float(r[c]) for c in ("x", "y", "heading", "speed")] for r in rows])
        assert np.array_equal(got, np.dstack([want.poses, want.speeds]).reshape(k * t, 4))

    def test_missing_scenario_exits_2(self, tmp_path):
        assert main(["--out", str(tmp_path / "o"), "sample",
                     str(tmp_path / "nope.json")]) == 2


class TestCmdInfer:
    def test_writes_marginals_and_residuals(self, tmp_path, scenario_file,
                                            small_config):
        out = tmp_path / "out"
        code = main(["--config", str(small_config), "--out", str(out),
                     "infer", str(scenario_file), "--dump-pairwise",
                     "--dump-tables"])
        assert code == 0
        with open(out / "marginals.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 7 * 6          # ego + 6 actors, K = 6
        total = {}
        for row in rows:
            total[row["actor"]] = total.get(row["actor"], 0.0) + \
                float(row["probability"])
        for value in total.values():
            assert value == pytest.approx(1.0, abs=1e-9)
        beliefs = np.load(out / "pairwise_beliefs.npy")
        assert beliefs.shape == (7, 7, 6, 6)
        with open(out / "residuals.csv") as fh:
            res_rows = list(csv.DictReader(fh))
        assert res_rows and float(res_rows[-1]["max_residual"]) >= 0
        with open(out / "tables.json") as fh:
            tables = json.load(fh)
        assert len(tables["unary"]) == 7 * 6



class TestSeedOption:
    @pytest.mark.parametrize("command", ["sample", "plan"])
    def test_config_seed_applies_unless_flag_given(self, tmp_path, scenario_file,
                                                   command):
        # a run's seed is --seed when given, else the config file's seed
        configs = {}
        for seed in (0, 5):
            configs[seed] = tmp_path / f"seed{seed}.json"
            RunConfig(seed=seed, sampler=SamplerConfig(k=6, horizon_steps=6, dt=0.5)
                      ).save(configs[seed])
        artifact = "candidates.csv" if command == "sample" else "plan.json"

        def run(name, config_seed, *flag):
            out = tmp_path / name
            assert main(["--config", str(configs[config_seed]), *flag,
                         "--out", str(out), command, str(scenario_file)]) == 0
            return read_bytes(out / artifact)

        from_file = run("file5", 5)
        assert from_file == run("flag5", 0, "--seed", "5")
        assert run("file0", 0) == run("flag0", 5, "--seed", "0")
        assert from_file != run("file0_again", 0)

    @pytest.mark.parametrize("command", ["sample", "plan"])
    def test_negative_seed_exits_2(self, tmp_path, scenario_file, capsys, command):
        code = main(["--seed", "-1", "--out", str(tmp_path / "o"), command,
                     str(scenario_file)])
        assert code == 2
        assert "--seed: must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section,value", [(None, -1), ("sampler", -1),
                                               ("sampler", 2.5)])
    def test_bad_config_seed_exits_2(self, tmp_path, scenario_file, capsys,
                                     section, value):
        cfg = to_dict(RunConfig())
        (cfg if section is None else cfg[section])["seed"] = value
        bad = tmp_path / "bad_config.json"
        with open(bad, "w") as fh:
            json.dump(cfg, fh)
        code = main(["--config", str(bad), "--out", str(tmp_path / "o"),
                     "sample", str(scenario_file)])
        assert code == 2
        err = capsys.readouterr().err
        assert "malformed config file" in err and "seed must be an integer >= 0" in err
        assert not (tmp_path / "o").exists()


class TestCmdPlan:
    def test_writes_plan_json(self, tmp_path, scenario_file, small_config):
        out = tmp_path / "out"
        assert main(["--config", str(small_config), "--out", str(out),
                     "plan", str(scenario_file), "--variant", "reactive"]) == 0
        with open(out / "plan.json") as fh:
            data = json.load(fh)
        assert 0 <= data["chosen"] < 6
        assert len(data["objective_values"]) == 6
        total = (data["breakdown"]["ego_unary"][data["chosen"]]
                 + data["breakdown"]["interaction"][data["chosen"]]
                 + data["breakdown"]["actor_unary"][data["chosen"]]
                 + data["breakdown"]["goal"][data["chosen"]])
        assert total == pytest.approx(data["objective_values"][data["chosen"]],
                                      abs=1e-9)

    def test_malformed_scenario_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        scenario = builtin_templates()["merge_dense"].to_dict()
        del scenario["ego"]["goal"]
        with open(bad, "w") as fh:
            json.dump(scenario, fh)
        code = main(["--out", str(tmp_path / "o"), "plan", str(bad)])
        assert code == 2

    def test_wrong_length_weights_exit_2(self, tmp_path, scenario_file, capsys):
        cfg = to_dict(RunConfig())
        cfg["energy"]["w_ego"] = [0.1, 0.2, 0.3, 0.4]
        bad = tmp_path / "bad_config.json"
        with open(bad, "w") as fh:
            json.dump(cfg, fh)
        code = main(["--config", str(bad), "--out", str(tmp_path / "o"),
                     "plan", str(scenario_file)])
        assert code == 2
        assert "malformed config file" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value", [
        ("lbp", "tol", float("nan")), ("lbp", "tol", float("inf")),
        ("sampler", "dt", float("nan")),
        ("sampler", "v_max", -1.0), ("sampler", "v_max", float("nan")),
        ("energy", "gamma", float("nan")), ("energy", "gamma", float("inf")),
        ("energy", "d_safe", float("nan")), ("energy", "d_safe", float("inf")),
        ("energy", "lambda_b", float("nan")), ("energy", "lambda_b", float("inf")),
        ("energy", "lambda_c", float("nan")), ("energy", "w_goal", float("nan")),
        # every section holds exactly its fields
        pytest.param(None, "bogus", 1, id="top-unknown-key"),
        pytest.param("sampler", "bogus", 1, id="sampler-unknown-key"),
        pytest.param("energy", "bogus", 1, id="energy-unknown-key"),
        pytest.param("lbp", "bogus", 1, id="lbp-unknown-key"),
        pytest.param("lbp", "damping", MISSING, id="lbp-missing-key"),
        pytest.param("sim", "hold_steps", MISSING, id="sim-missing-key"),
        pytest.param("sampler", "v_max", MISSING, id="sampler-missing-key")])
    def test_invalid_config_value_exits_2(self, tmp_path, scenario_file, capsys,
                                          section, key, value):
        cfg = to_dict(RunConfig())
        entries = cfg if section is None else cfg[section]
        if value is MISSING:
            del entries[key]
        else:
            entries[key] = value
        bad = tmp_path / "bad_config.json"
        with open(bad, "w") as fh:
            json.dump(cfg, fh)
        code = main(["--config", str(bad), "--out", str(tmp_path / "o"),
                     "plan", str(scenario_file)])
        assert code == 2
        err = capsys.readouterr().err
        assert "malformed config file" in err and key in err
        assert not (tmp_path / "o").exists()

    def test_fractional_set_size_exits_2(self, tmp_path, scenario_file, capsys):
        cfg = to_dict(RunConfig())
        cfg["variant"], cfg["set_size"] = "interpolated", 2.5
        bad = tmp_path / "bad_config.json"
        with open(bad, "w") as fh:
            json.dump(cfg, fh)
        code = main(["--config", str(bad), "--out", str(tmp_path / "o"),
                     "plan", str(scenario_file)])
        assert code == 2
        err = capsys.readouterr().err
        assert "malformed config file" in err and "set_size must be an integer >= 1" in err
        assert not (tmp_path / "o").exists()


class TestCmdTrain:
    def _dataset(self, tmp_path, n=4):
        scfg = SamplerConfig(k=6, horizon_steps=6, dt=0.5)
        path = tmp_path / "data.jsonl"
        save_dataset(synthetic_dataset(n, seed=3, sampler_cfg=scfg), path)
        return path

    def test_zero_lr_keeps_params(self, tmp_path, small_config):
        data = self._dataset(tmp_path)
        out = tmp_path / "out"
        code = main(["--config", str(small_config), "--out", str(out),
                     "train", str(data), "--lr", "0.0", "--epochs", "2"])
        assert code == 0
        with open(out / "params.json") as fh:
            fitted = json.load(fh)
        initial = RunConfig.load(small_config).energy
        np.testing.assert_array_equal(fitted["w_ego"], initial.w_ego)
        with open(out / "loss.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[0]["loss"]) == pytest.approx(float(rows[1]["loss"]))

    def test_training_reduces_loss(self, tmp_path, small_config):
        data = self._dataset(tmp_path, n=6)
        out = tmp_path / "out"
        code = main(["--config", str(small_config), "--out", str(out),
                     "train", str(data), "--lr", "0.3", "--epochs", "5"])
        assert code == 0
        with open(out / "loss.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[-1]["loss"]) < float(rows[0]["loss"])

    def test_divergence_exits_4(self, tmp_path, small_config):
        data = self._dataset(tmp_path)
        code = main(["--config", str(small_config), "--out",
                     str(tmp_path / "out"), "train", str(data),
                     "--lr", "0.1", "--epochs", "4",
                     "--divergence-threshold", "1e-12"])
        assert code == 4

    @pytest.mark.parametrize("line", [
        '{"pasts": []}', "not json",
        # an edit of a valid record: a trajectory holds exactly its fields
        pytest.param(lambda rec: rec["pasts"][0].update(bogus=1.0),
                     id="trajectory-unknown-key"),
        pytest.param(lambda rec: rec["futures"][1].pop("dt"),
                     id="trajectory-missing-key")])
    def test_malformed_dataset_exits_2(self, tmp_path, capsys, line):
        if callable(line):
            record = json.loads(self._dataset(tmp_path, n=1).read_text())
            line(record)
            line = json.dumps(record)
        data = tmp_path / "bad.jsonl"
        data.write_text(line + "\n")
        code = main(["--out", str(tmp_path / "o"), "train", str(data)])
        assert code == 2
        assert f"malformed dataset file {data}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_dataset_exits_2(self, tmp_path):
        assert main(["--out", str(tmp_path / "o"), "train",
                     str(tmp_path / "none.jsonl")]) == 2

    def test_non_finite_weights_exit_4(self, tmp_path, small_config, capsys):
        # precondition: lr times the largest first-epoch gradient component
        # overflows, so the first step makes the weights non-finite
        lr = 1.79e308
        data = self._dataset(tmp_path, n=2)
        cfg = RunConfig.load(small_config)
        grad = gradient(cfg.energy, load_dataset(data), cfg.sampler, TrainConfig())
        with np.errstate(over="ignore"):
            assert np.isinf(lr * np.abs(grad).max())
        code = main(["--config", str(small_config), "--out", str(tmp_path / "out"),
                     "train", str(data), "--lr", repr(lr), "--epochs", "3"])
        assert code == 4
        assert "weights became non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [["--epochs", "0"], ["--k-ignore", "-3"],
                                        ["--lr", "nan"], ["--lr", "-0.5"],
                                        ["--lr", "inf"],
                                        ["--divergence-threshold", "nan"]])
    def test_bad_training_option_exits_2(self, tmp_path, small_config, capsys, option):
        data = self._dataset(tmp_path)
        code = main(["--config", str(small_config), "--out", str(tmp_path / "out"),
                     "train", str(data), *option])
        assert code == 2
        assert "invalid training option" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCmdSimulate:
    def _template_dir(self, tmp_path, timer=6.0):
        tdir = tmp_path / "templates"
        tdir.mkdir()
        scenario = replace(builtin_templates()["arc_merge"], timer=timer)
        scenario.save(tdir / "arc.json")
        return tdir

    def test_runs_and_writes_artifacts(self, tmp_path, small_config):
        tdir = self._template_dir(tmp_path)
        out = tmp_path / "out"
        code = main(["--config", str(small_config), "--out", str(out),
                     "simulate", "--templates", str(tdir),
                     "--planners", "reactive,nonreactive", "--variants", "2"])
        assert code == 0
        with open(out / "comparison.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["planner"] for row in rows] == ["reactive", "nonreactive"]
        for variant in ("reactive", "nonreactive"):
            with open(out / variant / "aggregate.json") as fh:
                agg = json.load(fh)
            assert agg["episodes"] == 2
            with open(out / variant / "episodes.jsonl") as fh:
                records = [json.loads(line) for line in fh]
            assert any("outcome" in rec for rec in records)
            assert any("step" in rec for rec in records)
            plans = [rec["step"]["plan"] for rec in records
                     if "plan" in rec.get("step", {})]
            assert plans and all(type(p["iters_used"]) is int and p["iters_used"] >= 1
                                 for p in plans)
            assert all(p["residual"] >= 0.0 and (p["gap"] is None or p["gap"] >= 0.0)
                       for p in plans)

    def test_seed_replay_identical_files(self, tmp_path, small_config):
        tdir = self._template_dir(tmp_path)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["--config", str(small_config), "--seed", "11",
                         "--out", str(out), "simulate", "--templates",
                         str(tdir), "--planners", "reactive",
                         "--variants", "2"]) == 0
            outs.append(out)
        assert read_bytes(outs[0] / "comparison.csv") == \
            read_bytes(outs[1] / "comparison.csv")
        assert read_bytes(outs[0] / "reactive" / "episodes.jsonl") == \
            read_bytes(outs[1] / "reactive" / "episodes.jsonl")

    def test_all_skipped_exits_5(self, tmp_path, small_config, caplog, capsys):
        # overlapping template with negligible perturbation can never be
        # drawn valid
        tdir = tmp_path / "bad_templates"
        tdir.mkdir()
        scenario = builtin_templates()["merge_dense"].to_dict()
        scenario["actors"][0]["state"]["x"] = scenario["actors"][1]["state"]["x"]
        scenario["position_sigma"] = 1e-9
        with open(tdir / "jam.json", "w") as fh:
            json.dump(scenario, fh)
        with caplog.at_level(logging.WARNING, logger="reactplan.cli"):
            code = main(["--config", str(small_config), "--out",
                         str(tmp_path / "o"), "simulate", "--templates",
                         str(tdir), "--planners", "reactive", "--variants", "2"])
        assert code == 5
        assert [r.getMessage() for r in caplog.records] == [
            f"skipped infeasible variant {scenario['name']}/{v}" for v in (0, 1)]
        assert all(r.levelno == logging.WARNING for r in caplog.records)
        assert capsys.readouterr().out == ""

    def _one_variant_config(self, tmp_path, section=None, key=None, value=None):
        cfg = to_dict(RunConfig(sampler=SamplerConfig(k=2, horizon_steps=2),
                                n_variants=1))
        if section is not None:
            cfg[section][key] = value
        path = tmp_path / "one_variant.json"
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return path

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_variants_below_one_exit_2(self, tmp_path, capsys, value):
        # the config asks for one short variant, so a run that ignored the
        # flag would end quickly with exit 0
        config = self._one_variant_config(tmp_path)
        code = main(["--config", str(config), "--out", str(tmp_path / "o"),
                     "simulate", "--templates",
                     str(self._template_dir(tmp_path, timer=0.2)),
                     "--variants", value])
        assert code == 2
        assert f"--variants must be >= 1, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section,key,value", [
        ("sim", "replan_steps", 0), ("sim", "replan_steps", 1.5),
        ("sim", "hold_steps", 2.5), ("lbp", "max_iters", 2.5),
        ("sampler", "k", 2.5), ("sampler", "horizon_steps", 2.5)])
    def test_bad_count_in_config_exits_2(self, tmp_path, capsys, section, key,
                                         value):
        config = self._one_variant_config(tmp_path, section, key, value)
        code = main(["--config", str(config), "--out", str(tmp_path / "o"),
                     "simulate", "--templates",
                     str(self._template_dir(tmp_path, timer=0.2)),
                     "--variants", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "malformed config file" in err
        assert f"{key} must be an integer >= 1" in err
        assert not (tmp_path / "o").exists()

    def test_zero_variants_in_config_exits_2(self, tmp_path, capsys):
        config = self._one_variant_config(tmp_path)
        cfg = json.loads(config.read_text())
        cfg["n_variants"] = 0
        config.write_text(json.dumps(cfg))
        code = main(["--config", str(config), "--out", str(tmp_path / "o"),
                     "simulate", "--templates",
                     str(self._template_dir(tmp_path, timer=0.2))])
        assert code == 2
        err = capsys.readouterr().err
        assert "malformed config file" in err and "n_variants must be an integer >= 1" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("as_dir", [True, False])
    def test_malformed_template_exits_2(self, tmp_path, capsys, as_dir):
        tdir = tmp_path / "templates"
        tdir.mkdir()
        (tdir / "x.json").write_text(json.dumps({"name": "x"}))
        code = main(["--out", str(tmp_path / "o"), "simulate", "--templates",
                     str(tdir if as_dir else tdir / "x.json"), "--variants", "1"])
        assert code == 2
        assert "malformed scenario file" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("planners", ["reactive,bogus", "reactive,interpolated"])
    def test_bad_planner_entry_exits_2_before_any_suite(self, tmp_path, capsys,
                                                        planners):
        # interpolated needs a set_size, which the default config lacks
        config = self._one_variant_config(tmp_path)
        code = main(["--config", str(config), "--out", str(tmp_path / "o"),
                     "simulate", "--templates",
                     str(self._template_dir(tmp_path, timer=0.2)),
                     "--planners", planners])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_templates_exits_2(self, tmp_path):
        assert main(["--out", str(tmp_path / "o"), "simulate", "--templates",
                     str(tmp_path / "nowhere")]) == 2


class TestBadSceneStates:
    # a start state the sampler would refuse is refused when the scenario
    # loads, so every command that samples a scene exits 2
    @pytest.mark.parametrize("command", ["plan", "infer", "sample", "simulate"])
    @pytest.mark.parametrize("vehicle, field, value", [
        ("actor", "speed", -1.0), ("actor", "speed", float("nan")),
        ("ego", "speed", float("inf")), ("actor", "x", float("nan")),
        ("ego", "heading", float("inf"))])
    def test_bad_start_state_exits_2(self, tmp_path, capsys, command, vehicle, field,
                                     value):
        scenario = builtin_templates()["merge_dense"].to_dict()
        state = (scenario["ego"] if vehicle == "ego" else scenario["actors"][1])["state"]
        state[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario))
        argv = (["simulate", "--templates", str(path), "--variants", "1"]
                if command == "simulate" else [command, str(path)])
        assert main(["--out", str(tmp_path / "o"), *argv]) == 2
        err = capsys.readouterr().err
        assert "malformed scenario file" in err
        assert ("speed must be a finite number >= 0" if field == "speed"
                else "must be finite") in err
        assert not (tmp_path / "o").exists()


class TestUsageErrors:
    def test_no_command_exits_2(self):
        assert main([]) == 2

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2
