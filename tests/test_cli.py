"""Command-line behavior: config merging, subcommand flows, exit codes."""

import dataclasses
import json
import re
import shutil
import types

import numpy as np
import pytest

from conftest import (edit_checkpoint_header, edit_checkpoint_tensors, small_mrmtl,
                      write_fake_cifar)
from mrmtl import cli, protocol
from mrmtl.analysis import read_sweep_csv
from mrmtl.cli import (
    ConfigError,
    DEFAULT_CONFIG,
    _grid_values,
    _parse_delta,
    _parse_grid_flag,
    load_run_config,
    validate_config,
)
from mrmtl.channel import ChannelConfig
from mrmtl.models import ArchitectureConfig, TrainConfig, save_bundle
from mrmtl.protocol import default_delta_grid


def ns(**kwargs) -> types.SimpleNamespace:
    return types.SimpleNamespace(**kwargs)


RUN_CONFIG = {
    "dataset": {"kind": "synthetic", "num_classes": 10, "per_class": 5, "seed": 1},
    "channel": {"kind": "awgn", "snr_db": 10.0, "seed": 3},
    "arch": {"nc": 2},
    "training": {"epochs": 1, "batch_size": 16, "lr": 1e-3, "loss_weight": 0.5,
                 "seed": 5},
    "protocol": {"delta": "auto", "grid": {"start": 0.0, "stop": 1.0, "step": 0.1},
                 "num_bins": 20, "calibration_split": "test"},
}

# DEFAULT_CONFIG's integer fields, and its null ones, which are optional integers
INT_FIELDS = [f"{section}.{key}" for section, fields in DEFAULT_CONFIG.items()
              if isinstance(fields, dict) for key, value in fields.items()
              if value is None or (isinstance(value, int) and not isinstance(value, bool))]



def leaves(cfg: dict, prefix: str = "") -> list[str]:
    """The dotted paths of cfg's non-dict values, as "protocol.grid.step"."""
    return [path for key, value in cfg.items()
            for path in (leaves(value, f"{prefix}{key}.") if isinstance(value, dict)
                         else [prefix + key])]


def nested(path: str, value) -> dict:
    """{"a": {"b": value}} for the path "a.b"."""
    for key in reversed(path.split(".")):
        value = {key: value}
    return value


SWEEP_CHARTS = ("accuracy_vs_threshold.svg", "delay_vs_threshold.svg",
                "accuracy_vs_delay.svg")


@pytest.fixture(scope="session")
def trained_run(tmp_path_factory):
    """One tiny trained run (both modes) shared by the command tests."""
    root = tmp_path_factory.mktemp("cli_run")
    cfg = dict(RUN_CONFIG)
    cfg["output_dir"] = str(root / "run")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    code = cli.main(["train", "--config", str(cfg_path), "--mode", "both"])
    assert code == 0
    return {"root": root, "config": cfg_path, "out": root / "run", "cfg": cfg}


class TestConfigMerging:
    def test_defaults_without_inputs(self):
        cfg = load_run_config(ns())
        assert cfg == DEFAULT_CONFIG

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"training": {"epochs": 9}, "output_dir": "x"}))
        cfg = load_run_config(ns(config=str(path)))
        assert cfg["training"]["epochs"] == 9
        assert cfg["training"]["batch_size"] == DEFAULT_CONFIG["training"]["batch_size"]
        assert cfg["output_dir"] == "x"

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"training": {"epochs": 9}}))
        cfg = load_run_config(ns(config=str(path), epochs=2, lr=5e-4))
        assert cfg["training"]["epochs"] == 2
        assert cfg["training"]["lr"] == 5e-4

    def test_seed_flag_reaches_both_streams(self):
        cfg = load_run_config(ns(seed=77))
        assert cfg["training"]["seed"] == 77
        assert cfg["channel"]["seed"] == 77

    def test_grid_flag_parsed(self):
        cfg = load_run_config(ns(grid="0:0.5:0.25"))
        assert cfg["protocol"]["grid"] == {"start": 0.0, "stop": 0.5, "step": 0.25}

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_run_config(ns(config="/nonexistent/cfg.json"))

    def test_malformed_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_run_config(ns(config=str(path)))

    def test_non_object_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match=f"{re.escape(str(path))} must hold a JSON object"):
            load_run_config(ns(config=str(path)))


class TestConfigValidation:
    def test_default_config_is_valid(self):
        validate_config(json.loads(json.dumps(DEFAULT_CONFIG)))

    def test_unknown_dataset_kind(self):
        cfg = load_run_config(ns())
        cfg["dataset"]["kind"] = "imagenet"
        with pytest.raises(ConfigError, match="dataset kind"):
            validate_config(cfg)

    def test_bad_channel_kind(self):
        cfg = load_run_config(ns())
        cfg["channel"]["kind"] = "laplace"
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_cifar_requires_path(self, monkeypatch):
        monkeypatch.delenv(cli.DATA_DIR_ENV, raising=False)
        cfg = load_run_config(ns())
        cfg["dataset"]["kind"] = "cifar10"
        with pytest.raises(ConfigError, match="path"):
            validate_config(cfg)

    def test_cifar_env_fallback(self, tmp_path, monkeypatch):
        write_fake_cifar(tmp_path)
        monkeypatch.setenv(cli.DATA_DIR_ENV, str(tmp_path))
        cfg = load_run_config(ns())
        cfg["dataset"]["kind"] = "cifar10"
        ds = validate_config(cfg).load_dataset()
        assert len(ds.train) == 15
        assert len(ds.test) == 3

    @pytest.mark.parametrize("leaf", leaves(DEFAULT_CONFIG))
    def test_omitted_key_takes_its_default(self, leaf):
        # a partial config behaves as a partial config file does through the CLI
        cfg = json.loads(json.dumps(DEFAULT_CONFIG))
        *sections, key = leaf.split(".")
        parent = cfg
        for section in sections:
            parent = parent[section]
        del parent[key]
        before = json.loads(json.dumps(DEFAULT_CONFIG))

        def comparable(run):
            return dataclasses.replace(
                run, load_dataset=(run.load_dataset.func, run.load_dataset.args))

        assert (comparable(validate_config(cfg))
                == comparable(validate_config(json.loads(json.dumps(DEFAULT_CONFIG)))))
        assert DEFAULT_CONFIG == before

    @pytest.mark.parametrize("cls, section", [(TrainConfig, "training"),
                                              (ChannelConfig, "channel"),
                                              (ArchitectureConfig, "arch")])
    def test_library_defaults_equal_default_config(self, cls, section):
        # the defaults are defined in one place; a library caller who leaves
        # a field out gets what the CLI would use (the class count is the
        # dataset's)
        for field in dataclasses.fields(cls):
            if field.default is dataclasses.MISSING:
                continue
            owner = "dataset" if field.name == "num_classes" else section
            assert field.default == DEFAULT_CONFIG[owner][field.name], field.name

    def test_bad_calibration_split(self):
        cfg = load_run_config(ns())
        cfg["protocol"]["calibration_split"] = "validation"
        with pytest.raises(ConfigError, match="calibration_split"):
            validate_config(cfg)


class TestParsers:
    def test_parse_delta(self):
        assert _parse_delta("auto") == "auto"
        assert _parse_delta("0.5") == 0.5
        assert _parse_delta(1.01) == 1.01
        assert _parse_delta(0) == 0.0

    def test_parse_delta_errors(self):
        with pytest.raises(ConfigError):
            _parse_delta("1.02")
        with pytest.raises(ConfigError):
            _parse_delta(-0.1)
        with pytest.raises(ConfigError):
            _parse_delta("high")

    def test_grid_values_default_grid(self):
        values = _grid_values({"start": 0.0, "stop": 1.0, "step": 0.02})
        assert len(values) == 51
        assert values[0] == 0.0
        assert values[-1] == 1.0

    def test_grid_values_coarse(self):
        assert _grid_values({"start": 0.0, "stop": 1.0, "step": 0.1}) == [
            0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]

    def test_grid_values_default_grid_is_the_library_grid(self):
        assert _grid_values({"start": 0, "stop": 1, "step": 0.02}) == default_delta_grid()

    def test_grid_values_singleton(self):
        assert _grid_values({"start": 0.5, "stop": 0.5, "step": 0.1}) == [0.5]

    def test_grid_values_errors(self):
        with pytest.raises(ConfigError):
            _grid_values({"start": 0.0, "stop": 1.0, "step": 0.0})
        with pytest.raises(ConfigError):
            _grid_values({"start": 1.0, "stop": 0.0, "step": 0.1})
        with pytest.raises(ConfigError):
            _grid_values({"start": "a", "stop": 1.0, "step": 0.1})
        with pytest.raises(ConfigError, match="finite"):
            _grid_values({"start": 0.0, "stop": float("inf"), "step": 0.1})
        with pytest.raises(ConfigError, match="finite"):
            _grid_values({"start": 0.0, "stop": 1.0, "step": float("nan")})
        with pytest.raises(ConfigError, match="points"):
            _grid_values({"start": 0.0, "stop": 1.0, "step": 1e-12})

    def test_sweep_is_not_a_command(self, capsys):
        # evaluate writes the sweep and its charts; there is no second path
        with pytest.raises(SystemExit) as e:
            cli.main(["sweep"])
        assert e.value.code == 2
        assert "invalid choice: 'sweep'" in capsys.readouterr().err

    def test_parse_grid_flag(self):
        assert _parse_grid_flag("0:1:0.02") == {"start": 0.0, "stop": 1.0, "step": 0.02}
        with pytest.raises(ConfigError):
            _parse_grid_flag("0:1")
        with pytest.raises(ConfigError):
            _parse_grid_flag("a:b:c")


class TestTrainCommand:
    def test_bundles_exist(self, trained_run):
        out = trained_run["out"]
        for name in ("mrmtl", "srstl_nc2", "srstl_nc4"):
            assert (out / name / "bundle.json").is_file(), name
            assert (out / name / "training_log.json").is_file(), name
        manifest = json.loads((out / "mrmtl" / "bundle.json").read_text())
        assert manifest["mode"] == "mrmtl"
        assert manifest["architecture"]["nc"] == 2
        baseline = json.loads((out / "srstl_nc4" / "bundle.json").read_text())
        assert baseline["architecture"]["nc"] == 4
        assert baseline["mode"] == "srstl"

    @pytest.mark.parametrize("command", ["train", "calibrate"])
    @pytest.mark.parametrize("bad", [
        pytest.param({"dataset": {"kind": "imagenet"}}, id="unknown-dataset-kind"),
        pytest.param({"protocol": 5}, id="protocol-not-object"),
        pytest.param({"dataset": "x"}, id="dataset-not-object"),
        pytest.param({"protocol": {"num_bins": "many"}}, id="num-bins-not-numeric"),
        pytest.param({"protocol": {"num_bins": 1e15}}, id="num-bins-too-many"),
        pytest.param({"dataset": {"kind": "synthetic", "per_class": "few"}},
                     id="per-class-not-numeric"),
        pytest.param({"output_dir": 7}, id="output-dir-not-path"),
        pytest.param({"dataset": {"kind": "cifar10", "path": 5}}, id="data-path-not-path"),
        pytest.param({"dataset": {"kind": "synthetic", "num_classes": 3, "per_class": 1}},
                     id="per-class-one"),
        pytest.param({"dataset": {"seed": -1}}, id="negative-dataset-seed"),
        pytest.param({"channel": {"seed": -1}}, id="negative-channel-seed"),
        pytest.param({"training": {"seed": -1}}, id="negative-training-seed"),
        pytest.param({"training": {"lr": float("nan")}}, id="nan-lr"),
        pytest.param({"training": {"lr": -1e-3}}, id="negative-lr"),
        pytest.param({"arch": {"decoder_hidden": 0}}, id="zero-decoder-hidden"),
        pytest.param({"channel": {"snr_db": float("-inf")}}, id="minus-inf-snr"),
        pytest.param({"channel": {"snr_db": -4000.0}}, id="noise-variance-overflows"),
        pytest.param({"protocol": {"grid": {"start": 0, "stop": float("inf"), "step": 0.1}}},
                     id="infinite-grid-stop"),
        # integer fields reject a non-integral value instead of truncating it
        pytest.param({"arch": {"nc": 4.7}}, id="fractional-nc"),
        pytest.param({"training": {"epochs": 2.5}}, id="fractional-epochs"),
        pytest.param({"training": {"batch_size": True}}, id="boolean-batch-size"),
        pytest.param({"protocol": {"num_bins": 20.7}}, id="fractional-num-bins"),
        pytest.param({"dataset": {"kind": "synthetic", "per_class": 2.5}},
                     id="fractional-per-class"),
    ])
    def test_exit_code_2_on_bad_config(self, tmp_path, monkeypatch, capsys, command, bad):
        # the configs name no output_dir, so a wrongly accepted one would
        # write the default runs/ into the working directory
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(bad))
        assert cli.main([command, "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["train", "calibrate", "evaluate"])
    @pytest.mark.parametrize("output", ["afile", "afile/sub"])
    def test_output_dir_at_or_under_a_file_exits_2_before_any_work(
            self, tmp_path, monkeypatch, capsys, command, output):
        def no_work(*args):
            raise AssertionError("dataset built before the output_dir check")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "make_synthetic", no_work)
        (tmp_path / "afile").write_text("")
        assert cli.main([command, "-o", output]) == 2
        assert capsys.readouterr().err == (f"error: output_dir {output}: afile "
                                           "is not a directory\n")

    @pytest.mark.parametrize("error, message", [
        pytest.param(MemoryError("Unable to allocate 14.6 TiB for an array"),
                     "Unable to allocate 14.6 TiB for an array", id="numpy-message"),
        pytest.param(MemoryError(), "MemoryError", id="bare"),
    ])
    def test_out_of_memory_exits_3(self, tmp_path, monkeypatch, capsys, error, message):
        # a stand-in raises it: a real huge allocation may not fail fast on a
        # machine that overcommits memory
        def too_large(*args):
            raise error

        monkeypatch.setattr(cli, "make_synthetic", too_large)
        out = tmp_path / "run"
        assert cli.main(["train", "--output", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_config_file_not_utf8_exits_2_naming_it(self, tmp_path, monkeypatch, capsys):
        # a decode error is a bad input file, as a JSON syntax error is
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "bin.json"
        path.write_bytes(b"\xff\xfe\x00bad")
        assert cli.main(["train", "--config", str(path)]) == 2
        assert f"config file {path} is not valid JSON" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_negative_seed_flag_names_the_key(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(["train", "--seed", "-1", "--output", str(out)]) == 2
        assert "channel.seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_lr_flag_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(["train", "--lr", "nan", "--output", str(out)]) == 2
        assert "lr must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_num_bins_bound_is_named(self, tmp_path, capsys):
        out = tmp_path / "run"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"protocol": {"num_bins": protocol.MAX_NUM_BINS + 1},
                                    "output_dir": str(out)}))
        assert cli.main(["calibrate", "--config", str(path)]) == 2
        assert f"num_bins must lie in [1, {protocol.MAX_NUM_BINS}]" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_field_is_named(self, tmp_path, capsys):
        out = tmp_path / "run"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"training": {"epochs": 2.5}, "output_dir": str(out)}))
        assert cli.main(["train", "--config", str(path)]) == 2
        assert "training.epochs must be an integer, got 2.5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad, key", [
        pytest.param({"training": {"lr": True}}, "training.lr", id="lr"),
        pytest.param({"training": {"loss_weight": True}}, "training.loss_weight",
                     id="loss-weight"),
        pytest.param({"channel": {"snr_db": True}}, "channel.snr_db", id="snr-db"),
        pytest.param({"protocol": {"delta": True}}, "delta", id="delta"),
        pytest.param({"protocol": {"grid": {"start": True, "stop": 1.0, "step": 0.1}}},
                     "protocol.grid.start", id="grid-start"),
        pytest.param({"protocol": {"grid": {"start": 0.0, "stop": True, "step": 0.1}}},
                     "protocol.grid.stop", id="grid-stop"),
        pytest.param({"protocol": {"grid": {"start": 0.0, "stop": 1.0, "step": True}}},
                     "protocol.grid.step", id="grid-step"),
    ])
    def test_boolean_float_field_is_named(self, tmp_path, capsys, bad, key):
        # true is not 1.0: a boolean where a number belongs exits 2
        out = tmp_path / "run"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**bad, "output_dir": str(out)}))
        assert cli.main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{key} must be a number" in err and "True" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["training.lr", "training.loss_weight", "channel.snr_db",
                                     "protocol.delta", "protocol.grid.start",
                                     "protocol.grid.stop", "protocol.grid.step"])
    def test_integer_too_large_for_a_float_is_named(self, tmp_path, capsys, key):
        # float() of a 401-digit integer overflows; the key is named, exit 2
        out = tmp_path / "run"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**nested(key, 10 ** 400), "output_dir": str(out)}))
        assert cli.main(["train", "--config", str(path)]) == 2
        assert (f"{key} must be a number, got an integer of 401 digits"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("training.lr", "0.001"), ("training.loss_weight", "0.5"), ("channel.snr_db", "10"),
        ("protocol.grid.start", "0"), ("protocol.grid.stop", "1"), ("protocol.grid.step", "0.1"),
    ])
    def test_numeric_string_float_field_is_named(self, tmp_path, capsys, key, value):
        # a number field takes a JSON number, as an integer field does
        out = tmp_path / "run"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**nested(key, value), "output_dir": str(out)}))
        assert cli.main(["train", "--config", str(path)]) == 2
        assert f"{key} must be a number, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "calibrate"])
    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize("key", INT_FIELDS)
    def test_integer_field_is_named(self, tmp_path, capsys, command, key, value):
        # every integer field is checked, so none is read outside validate_config
        out = tmp_path / "run"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**nested(key, value), "output_dir": str(out)}))
        assert cli.main([command, "--config", str(path)]) == 2
        assert f"{key} must be an integer, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--nc", "--epochs", "--batch-size", "--lr",
                                      "--loss-weight"])
    def test_only_train_takes_model_flags(self, capsys, flag):
        # calibrate and evaluate take the model from the bundle
        cli.build_parser().parse_args(["train", flag, "1"])
        for command in ("calibrate", "evaluate"):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, flag, "1"])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_integral_float_fields_are_accepted(self):
        cfg = json.loads(json.dumps(cli.DEFAULT_CONFIG))
        cfg["output_dir"] = "unused"
        cfg["arch"] = {"nc": 2.0, "nc1": 3.0, "nc2": 4.0, "decoder_hidden": 5.0}
        cfg["dataset"]["num_classes"] = 4.0
        cfg["training"]["epochs"] = 3.0
        run = cli.validate_config(cfg)
        # ArchitectureConfig takes only integers, so these arrive converted
        assert dataclasses.astuple(run.arch) == (2, 3, 4, 4, 5)
        assert dataclasses.astuple(run.wide_arch) == (7, 7, 7, 4, 5)
        assert all(type(v) is int for v in dataclasses.astuple(run.arch))
        assert run.training.epochs == 3

    def test_wide_baseline_spends_both_rounds_budgets(self, tmp_path):
        cfg = json.loads(json.dumps(RUN_CONFIG))
        cfg["arch"] = {"nc": 2, "nc1": 4}
        cfg["training"]["epochs"] = 0
        cfg["output_dir"] = str(tmp_path / "run")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(path), "--mode", "both"]) == 0
        out = tmp_path / "run"
        assert sorted(p.name for p in out.iterdir()) == ["mrmtl", "srstl_nc4", "srstl_nc6"]
        wide = json.loads((out / "srstl_nc6" / "bundle.json").read_text())
        assert wide["architecture"]["nc"] == 6

    def test_srstl_mode_trains_only_the_round_one_baseline(self, tmp_path):
        cfg = json.loads(json.dumps(RUN_CONFIG))
        cfg["arch"] = {"nc": 2, "nc1": 4}
        cfg["training"]["epochs"] = 0
        cfg["output_dir"] = str(tmp_path / "run")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(path), "--mode", "srstl"]) == 0
        out = tmp_path / "run"
        assert [p.name for p in out.iterdir()] == ["srstl_nc4"]
        manifest = json.loads((out / "srstl_nc4" / "bundle.json").read_text())
        assert (manifest["mode"], manifest["architecture"]["nc1"]) == ("srstl", 4)

    def test_class_count_comes_from_the_dataset(self, tmp_path, capsys):
        # a stale arch.num_classes is ignored like any other unused key
        cfg = json.loads(json.dumps(RUN_CONFIG))
        cfg["dataset"]["num_classes"] = 3
        cfg["arch"]["num_classes"] = 5
        cfg["output_dir"] = str(tmp_path / "run")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(path)]) == 0
        assert cli.main(["evaluate", "--config", str(path), "--delta", "0.5"]) == 0
        manifest = json.loads((tmp_path / "run" / "mrmtl" / "bundle.json").read_text())
        assert manifest["architecture"]["num_classes"] == 3
        header = (tmp_path / "run" / "report" / "confusion_round1.csv").read_text()
        assert header.splitlines()[0] == "true_class,class_0,class_1,class_2"


class TestCalibrateCommand:
    def test_writes_calibration_json(self, trained_run, capsys):
        code = cli.main(["calibrate", "--config", str(trained_run["config"])])
        assert code == 0
        out = capsys.readouterr().out
        assert "delta_star" in out
        path = trained_run["out"] / "calibration.json"
        doc = json.loads(path.read_text())
        assert doc["available"] is True
        mid = (doc["mean_conf_correct"] + doc["mean_conf_incorrect"]) / 2.0
        assert doc["delta_star"] == mid
        assert sum(doc["histogram_correct"]) == doc["n_correct"]
        assert sum(doc["histogram_incorrect"]) == doc["n_incorrect"]

    def test_exit_2_without_bundle(self, tmp_path, capsys):
        cfg = dict(RUN_CONFIG)
        cfg["output_dir"] = str(tmp_path / "empty")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["calibrate", "--config", str(path)]) == 2
        assert "no trained bundle" in capsys.readouterr().err


class TestEvaluateCommand:
    def _evaluate(self, trained_run, tmp_path, *extra):
        argv = ["evaluate", "--config", str(trained_run["config"]),
                "--bundle", str(trained_run["out"] / "mrmtl"),
                "-o", str(tmp_path)] + list(extra)
        return cli.main(argv), tmp_path / "report"

    def test_delta_zero_matches_round1_head(self, trained_run, tmp_path, capsys):
        code, report_dir = self._evaluate(trained_run, tmp_path, "--delta", "0")
        assert code == 0
        doc = json.loads((report_dir / "report.json").read_text())
        p = doc["protocol"]
        assert p["escalation_rate"] == 0.0
        assert p["accuracy"] == doc["mrmtl"]["round1_accuracy"]
        assert p["avg_delay"] == doc["mrmtl"]["nc1"]

    def test_delta_above_one_matches_round2_head(self, trained_run, tmp_path, capsys):
        code, report_dir = self._evaluate(trained_run, tmp_path, "--delta", "1.01")
        assert code == 0
        doc = json.loads((report_dir / "report.json").read_text())
        p = doc["protocol"]
        assert p["escalation_rate"] == 1.0
        assert p["accuracy"] == doc["mrmtl"]["round2_accuracy"]
        assert p["avg_delay"] == doc["mrmtl"]["nc1"] + doc["mrmtl"]["nc2"]

    def test_auto_delta_uses_calibration_midpoint(self, trained_run, tmp_path, capsys):
        code, report_dir = self._evaluate(trained_run, tmp_path, "--delta", "auto")
        assert code == 0
        doc = json.loads((report_dir / "report.json").read_text())
        assert doc["calibration"]["available"] is True
        assert doc["protocol"]["delta"] == doc["calibration"]["delta_star"]

    def test_full_artifact_set(self, trained_run, tmp_path, capsys):
        code, report_dir = self._evaluate(trained_run, tmp_path, "--delta", "0.5")
        assert code == 0
        for name in ("report.json", "traces.csv", "sweep.csv", "confusion_round1.csv",
                     "confusion_round2.csv", "calibration.json", *SWEEP_CHARTS):
            assert (report_dir / name).is_file(), name

    def test_sweep_rows_and_charts(self, trained_run, tmp_path, capsys):
        code, report_dir = self._evaluate(trained_run, tmp_path, "--delta", "0.5")
        assert code == 0
        rows = read_sweep_csv(report_dir / "sweep.csv")
        assert len(rows) == 11
        assert [r["delta"] for r in rows] == [round(0.1 * i, 10) for i in range(11)]
        delays = [r["avg_delay"] for r in rows]
        assert all(b >= a for a, b in zip(delays, delays[1:]))
        for name in SWEEP_CHARTS:
            assert (report_dir / name).is_file(), name

    def test_exit_2_on_malformed_grid(self, trained_run, tmp_path, capsys):
        code, report_dir = self._evaluate(trained_run, tmp_path, "--grid", "0:1")
        assert code == 2
        assert not report_dir.exists()

    def test_determinism_across_runs(self, trained_run, tmp_path, capsys):
        code_a, dir_a = self._evaluate(trained_run, tmp_path / "a", "--delta", "auto")
        code_b, dir_b = self._evaluate(trained_run, tmp_path / "b", "--delta", "auto")
        assert code_a == code_b == 0
        for name in ("traces.csv", "sweep.csv", "confusion_round1.csv",
                     "confusion_round2.csv", "calibration.json"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name
        doc_a = json.loads((dir_a / "report.json").read_text())
        doc_b = json.loads((dir_b / "report.json").read_text())
        doc_a.pop("generated_at")
        doc_b.pop("generated_at")
        # output_dir differs by construction; everything else must match
        doc_a["config"].pop("output_dir")
        doc_b["config"].pop("output_dir")
        assert doc_a == doc_b

    @pytest.mark.parametrize("split", ["test", "train"])
    def test_auto_delta_encodes_each_split_once(self, trained_run, tmp_path, monkeypatch,
                                                capsys, split):
        # calibrate_threshold leaves its Round-1 symbols for evaluate_rounds,
        # so a test split calibrated on is not encoded a second time
        rows = []
        load_bundle = cli.load_bundle

        def counting_load(path):
            model, manifest = load_bundle(path)
            forward = model.encoder1.forward

            def counting(x, *args, **kwargs):
                rows.append(x.shape[0])
                return forward(x, *args, **kwargs)

            monkeypatch.setattr(model.encoder1, "forward", counting)
            return model, manifest

        monkeypatch.setattr(cli, "load_bundle", counting_load)
        cfg = {**trained_run["cfg"],
               "protocol": {**RUN_CONFIG["protocol"], "calibration_split": split}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = cli.main(["evaluate", "--config", str(path), "--delta", "auto",
                         "--bundle", str(trained_run["out"] / "mrmtl"),
                         "-o", str(tmp_path / "out")])
        assert code == 0
        ds = validate_config(load_run_config(ns(config=str(path)))).load_dataset()
        assert sum(rows) == len(ds.test) + (len(ds.train) if split == "train" else 0)

    def test_report_echoes_the_evaluated_bundle(self, tmp_path, capsys):
        # the run config's arch and training defaults did not build this bundle
        out = tmp_path / "run"
        assert cli.main(["train", "--nc", "2", "--epochs", "0", "-o", str(out)]) == 0
        assert cli.main(["evaluate", "--delta", "0.5", "--seed", "5", "-o", str(out)]) == 0
        manifest = json.loads((out / "mrmtl" / "bundle.json").read_text())
        config = json.loads((out / "report" / "report.json").read_text())["config"]
        assert config["arch"] == manifest["architecture"]
        assert config["arch"]["nc"] == 2
        assert config["training"] == manifest["training"]
        assert config["training"]["epochs"] == 0
        assert config["channel"]["seed"] == 5

    def test_exit_2_on_srstl_bundle(self, trained_run, tmp_path, capsys):
        code, _ = self._evaluate(trained_run, tmp_path, "--delta", "0",
                                 "--bundle", str(trained_run["out"] / "srstl_nc2"))
        assert code == 2
        assert "mrmtl" in capsys.readouterr().err

    def test_exit_2_on_bad_delta(self, trained_run, tmp_path, capsys):
        code, _ = self._evaluate(trained_run, tmp_path, "--delta", "5")
        assert code == 2

    def test_bundle_recording_deterministic_still_loads(self, trained_run, tmp_path,
                                                        capsys):
        # bundles written before the knob went away record training.deterministic
        bundle = tmp_path / "bundle"
        shutil.copytree(trained_run["out"] / "mrmtl", bundle)
        manifest = json.loads((bundle / "bundle.json").read_text())
        manifest["training"]["deterministic"] = True
        (bundle / "bundle.json").write_text(json.dumps(manifest))
        code_a, dir_a = self._evaluate(trained_run, tmp_path / "a", "--delta", "0.5",
                                       "--bundle", str(bundle))
        code_b, dir_b = self._evaluate(trained_run, tmp_path / "b", "--delta", "0.5")
        assert code_a == code_b == 0
        for name in ("traces.csv", "sweep.csv", "confusion_round2.csv"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


class TestCorruptBundle:
    """Damaged bundle inputs are input problems: exit 2 with a clear message."""

    def _evaluate_copy(self, trained_run, tmp_path, corrupt):
        bundle = tmp_path / "bundle"
        shutil.copytree(trained_run["out"] / "mrmtl", bundle)
        corrupt(bundle)
        return cli.main(["evaluate", "--config", str(trained_run["config"]),
                         "--bundle", str(bundle), "-o", str(tmp_path / "out"),
                         "--delta", "0"])

    def test_exit_2_on_truncated_checkpoint(self, trained_run, tmp_path, capsys):
        def corrupt(bundle):
            path = bundle / "encoder1.ckpt"
            path.write_bytes(path.read_bytes()[:-16])

        assert self._evaluate_copy(trained_run, tmp_path, corrupt) == 2
        assert "truncated tensor" in capsys.readouterr().err

    def test_exit_2_on_checkpoint_trailing_bytes(self, trained_run, tmp_path, capsys):
        def corrupt(bundle):
            path = bundle / "decoder2.ckpt"
            path.write_bytes(path.read_bytes() + bytes(64))

        assert self._evaluate_copy(trained_run, tmp_path, corrupt) == 2
        assert "trailing bytes" in capsys.readouterr().err

    def test_exit_2_on_corrupt_manifest(self, trained_run, tmp_path, capsys):
        def corrupt(bundle):
            path = bundle / "bundle.json"
            path.write_text(path.read_text()[:-20])

        assert self._evaluate_copy(trained_run, tmp_path, corrupt) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_exit_2_on_manifest_contradicting_checkpoints(self, trained_run, tmp_path,
                                                          capsys):
        def corrupt(bundle):
            path = bundle / "bundle.json"
            manifest = json.loads(path.read_text())
            manifest["architecture"]["nc1"] += 2
            path.write_text(json.dumps(manifest))

        assert self._evaluate_copy(trained_run, tmp_path, corrupt) == 2
        err = capsys.readouterr().err
        assert "encoder1.ckpt has output width" in err and "nc1=" in err

    def test_exit_2_on_manifest_contradicting_decoder_hidden(self, trained_run, tmp_path,
                                                             capsys):
        def corrupt(bundle):
            path = bundle / "bundle.json"
            manifest = json.loads(path.read_text())
            manifest["architecture"]["decoder_hidden"] = 64
            path.write_text(json.dumps(manifest))

        assert self._evaluate_copy(trained_run, tmp_path, corrupt) == 2
        err = capsys.readouterr().err
        assert "decoder1.ckpt has hidden width 2" in err and "decoder_hidden=64" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda tensors: tensors[:-1], "omits tensors"),
        (lambda tensors: tensors + tensors[-1:], "listed twice"),
    ], ids=["omitted", "duplicated"])
    def test_exit_2_on_checkpoint_tensor_list(self, trained_run, tmp_path, capsys,
                                              edit, message):
        def corrupt(bundle):
            edit_checkpoint_tensors(bundle / "decoder1.ckpt", edit)

        assert self._evaluate_copy(trained_run, tmp_path, corrupt) == 2
        assert message in capsys.readouterr().err


    @pytest.mark.parametrize("part, edit, message", [
        # the head written without its activation once loaded as a ReLU head
        ("encoder1", lambda h: h["architecture"]["layers"][-1].pop("activation"),
         r"encoder1.ckpt: malformed checkpoint header: dense layer config: "
         r"missing keys \['activation'\]"),
        ("decoder1", lambda h: h["architecture"]["layers"].__setitem__(1, 5),
         "decoder1.ckpt: malformed checkpoint header: layer config must be a JSON object"),
        ("decoder2", lambda h: h["architecture"].update(layers={"a": 1}),
         "decoder2.ckpt: malformed checkpoint header: layer config must be a JSON object"),
        ("encoder2", lambda h: h["tensors"][0].update(name=["layer0.b"]),
         "encoder2.ckpt: malformed checkpoint header: tensor name must be a string"),
        ("decoder1", lambda h: h["tensors"][0].update(name={}),
         "decoder1.ckpt: malformed checkpoint header: tensor name must be a string"),
        # True == 1 == 1.0, so an equality test alone lets both through
        ("encoder1", lambda h: h.update(format_version=True),
         "encoder1.ckpt: unsupported format_version True"),
        ("decoder2", lambda h: h.update(format_version=1.0),
         "decoder2.ckpt: unsupported format_version 1.0"),
    ], ids=["missing-layer-key", "layer-not-an-object", "layers-an-object",
            "tensor-name-a-list", "tensor-name-a-dict", "version-true", "version-float"])
    def test_exit_2_on_malformed_checkpoint_header(self, trained_run, tmp_path, capsys,
                                                   part, edit, message):
        def corrupt(bundle):
            edit_checkpoint_header(bundle / f"{part}.ckpt", edit)

        assert self._evaluate_copy(trained_run, tmp_path, corrupt) == 2
        assert re.search(message, capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.update(mode=["mrmtl"]), r"bundle.json: unknown bundle mode \['mrmtl'\]"),
        (lambda m: m.update(mode={}), "bundle.json: unknown bundle mode {}"),
        (lambda m: m["architecture"].update(nc=2.0, nc1=2.0, nc2=2.0),
         "bundle.json is malformed: .*nc must be an integer, got 2.0"),
        (lambda m: m["architecture"].update(num_classes=10.0),
         "bundle.json is malformed: .*num_classes must be an integer, got 10.0"),
        (lambda m: m["architecture"].update(decoder_hidden=2.0),
         "bundle.json is malformed: .*decoder_hidden must be an integer, got 2.0"),
        (lambda m: m.update(format_version=True),
         "bundle.json: unsupported bundle version True"),
        (lambda m: m.update(format_version=1.0),
         r"bundle.json: unsupported bundle version 1\.0"),
    ], ids=["mode-a-list", "mode-a-dict", "float-widths", "float-num-classes",
            "float-decoder-hidden", "version-true", "version-float"])
    def test_exit_2_on_malformed_manifest_field(self, trained_run, tmp_path, capsys,
                                                edit, message):
        def corrupt(bundle):
            path = bundle / "bundle.json"
            manifest = json.loads(path.read_text())
            edit(manifest)
            path.write_text(json.dumps(manifest))

        assert self._evaluate_copy(trained_run, tmp_path, corrupt) == 2
        assert re.search(message, capsys.readouterr().err)
        assert not (tmp_path / "out").exists()


class TestBundleDatasetMismatch:
    """A bundle that cannot read the configured dataset exits 2, naming both
    sides, before any inference or write."""

    @pytest.fixture(scope="class")
    def four_class_bundle(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("four_class")
        cfg = json.loads(json.dumps(RUN_CONFIG))
        cfg["dataset"]["num_classes"] = 4
        cfg["training"]["epochs"] = 0
        cfg["output_dir"] = str(root / "run")
        path = root / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(path)]) == 0
        return root / "run" / "mrmtl"

    @staticmethod
    def _run(command, bundle, tmp_path, dataset):
        cfg = json.loads(json.dumps(RUN_CONFIG))
        cfg["dataset"].update(dataset)
        cfg["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        extra = ["--delta", "0.5"] if command == "evaluate" else []
        return cli.main([command, "--config", str(path), "--bundle", str(bundle)] + extra)

    @pytest.fixture
    def no_inference(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("inference ran")

        monkeypatch.setattr(protocol, "calibrate_threshold", refuse)
        monkeypatch.setattr(protocol, "evaluate_rounds", refuse)

    @pytest.mark.parametrize("command", ["calibrate", "evaluate"])
    @pytest.mark.parametrize("num_classes", [10, 3])
    def test_class_count_mismatch_exits_2(self, four_class_bundle, tmp_path, capsys,
                                          no_inference, command, num_classes):
        code = self._run(command, four_class_bundle, tmp_path, {"num_classes": num_classes})
        assert code == 2
        err = capsys.readouterr().err
        assert "in 4 classes" in err and f"in {num_classes}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["calibrate", "evaluate"])
    def test_image_shape_mismatch_exits_2(self, tmp_path, capsys, no_inference, command):
        bundle = save_bundle(small_mrmtl(), tmp_path / "small", ArchitectureConfig(nc=4),
                             ChannelConfig("awgn", 10.0, 0), TrainConfig(epochs=0), "none")
        assert self._run(command, bundle, tmp_path, {}) == 2
        err = capsys.readouterr().err
        assert "(3, 8, 8) images" in err and "(3, 32, 32) images" in err
        assert not (tmp_path / "out").exists()

    def test_same_shape_other_dataset_gets_the_note(self, four_class_bundle, tmp_path,
                                                    capsys):
        code = self._run("evaluate", four_class_bundle, tmp_path,
                         {"num_classes": 4, "seed": 2})
        assert code == 0
        assert "note: evaluation dataset differs" in capsys.readouterr().out


def _with_protocol(report_text: str, key: str, value) -> str:
    doc = json.loads(report_text)
    doc["protocol"][key] = value
    return json.dumps(doc)


def _with_format_version(report_text: str, value) -> str:
    doc = json.loads(report_text)
    doc["format_version"] = value
    return json.dumps(doc)


class TestReportCommand:
    def _fresh_report(self, trained_run, tmp_path):
        code = cli.main(["evaluate", "--config", str(trained_run["config"]),
                         "--bundle", str(trained_run["out"] / "mrmtl"),
                         "-o", str(tmp_path), "--delta", "0.5"])
        assert code == 0
        return tmp_path / "report"

    def test_consistent_report_passes(self, trained_run, tmp_path, capsys):
        report_dir = self._fresh_report(trained_run, tmp_path)
        assert cli.main(["report", "--dir", str(report_dir)]) == 0
        assert "consistent" in capsys.readouterr().out

    def test_tampered_traces_fail(self, trained_run, tmp_path, capsys):
        report_dir = self._fresh_report(trained_run, tmp_path)
        lines = (report_dir / "traces.csv").read_text().splitlines()
        header = lines[0].split(",")
        true_i = header.index("true_label")
        final_i = header.index("final_pred")
        for k in range(1, len(lines)):
            cells = lines[k].split(",")
            if cells[true_i] == cells[final_i]:
                cells[final_i] = str((int(cells[final_i]) + 1) % 10)
                lines[k] = ",".join(cells)
                break
        else:
            pytest.skip("no correct sample to corrupt")
        (report_dir / "traces.csv").write_text("\n".join(lines) + "\n")
        assert cli.main(["report", "--dir", str(report_dir)]) == 3
        assert "MISMATCH" in capsys.readouterr().out

    def test_exit_2_on_missing_dir(self, tmp_path, capsys):
        assert cli.main(["report", "--dir", str(tmp_path / "nope")]) == 2

    def test_sample_count_mismatch_fails(self, trained_run, tmp_path, capsys):
        # every metric still agrees; only the count differs
        report_dir = self._fresh_report(trained_run, tmp_path)
        path = report_dir / "report.json"
        doc = json.loads(path.read_text())
        n = doc["protocol"]["num_samples"]
        doc["protocol"]["num_samples"] = n + 1
        path.write_text(json.dumps(doc))
        assert cli.main(["report", "--dir", str(report_dir)]) == 3
        out, err = capsys.readouterr()
        assert "MISMATCH" not in out
        assert f"{path} has {n + 1} samples, {report_dir / 'traces.csv'} has {n}" in err

    @pytest.mark.parametrize("name, tamper", [
        pytest.param("report.json", lambda text: json.dumps({"schema": 1}),
                     id="report-without-protocol"),
        pytest.param("report.json", lambda text: text[: len(text) // 2],
                     id="report-not-json"),
        pytest.param("report.json", lambda text: _with_protocol(text, "accuracy", "x"),
                     id="report-non-numeric"),
        pytest.param("report.json", lambda text: _with_protocol(text, "num_samples", 80.0),
                     id="report-float-num-samples"),
        pytest.param("report.json", lambda text: _with_format_version(text, 2),
                     id="report-version-2"),
        pytest.param("report.json", lambda text: _with_format_version(text, True),
                     id="report-version-true"),
        pytest.param("report.json", lambda text: _with_format_version(text, 1.0),
                     id="report-version-float"),
        pytest.param("traces.csv", lambda text: text.replace("true_label", "label", 1),
                     id="traces-wrong-columns"),
        pytest.param("traces.csv", lambda text: text.replace("\n0,", "\nzero,", 1),
                     id="traces-non-numeric"),
        pytest.param("traces.csv", lambda text: text.splitlines()[0] + "\n",
                     id="traces-header-only"),
        pytest.param("traces.csv", lambda text: text + text.split("\n", 1)[1],
                     id="traces-rows-duplicated"),
    ])
    def test_exit_2_on_malformed_input(self, trained_run, tmp_path, capsys, name, tamper):
        report_dir = self._fresh_report(trained_run, tmp_path)
        path = report_dir / name
        path.write_text(tamper(path.read_text()))
        assert cli.main(["report", "--dir", str(report_dir)]) == 2
        assert name in capsys.readouterr().err
