import json
import re
from pathlib import Path

import numpy as np
import pytest

from quantmatch.adapters import Adapter
from quantmatch.cli import load_spec, main

TINY_CONFIG = """
[experiment]
name = tiny

[dataset]
kind = two_moons
seed = 3
n = 60
noise_sigma = 0.03

[corruption]
kind = rotation
angle_deg = 180

[adapter]
kind = affine
init_rotation_deg = 45

[feature_map]
kind = identity

[train]
epochs = 10
batch_size = 60
learning_rate = 0.3
momentum = 0.9
reference_count = 20
seed = 5
full_batch = true
wasserstein_every = 5
"""


TWO_MOONS = "kind = two_moons\nseed = 3\nn = 60\nnoise_sigma = 0.03"


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return path


class TestRun:
    def test_writes_outputs_and_exits_zero(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 0
        assert (out / "trace.csv").is_file()
        assert (out / "summary.json").is_file()
        assert (out / "source.csv").is_file()
        assert (out / "target.csv").is_file()
        assert (out / "adapted.csv").is_file()
        summary = json.loads((out / "summary.json").read_text())
        for key in ("config", "final_metrics", "adapter_params", "flags", "runtime_ms"):
            assert key in summary
        assert set(summary["final_metrics"]) == {"quantile_loss", "paired_mse", "wasserstein2"}
        assert "mse_plateau" in summary["flags"]

    def test_trace_row_per_epoch(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(tiny_config), "--out", str(out)])
        rows = (out / "trace.csv").read_text().strip().splitlines()
        assert rows[0].split(",")[0] == "epoch"
        assert len(rows) == 1 + 11  # header + epochs 0..10

    def test_rerun_is_byte_identical(self, tiny_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(tiny_config), "--out", str(out1)])
        main(["run", "--config", str(tiny_config), "--out", str(out2)])
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    def test_seed_override_changes_reference_draw(self, tiny_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(tiny_config), "--out", str(out1)])
        main(["run", "--config", str(tiny_config), "--out", str(out2), "--seed", "77"])
        s1 = json.loads((out1 / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        assert s1["config"]["train"]["seed"] == 5
        assert s2["config"]["train"]["seed"] == 77

    def test_missing_config_exits_2_with_json(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "config"

    def test_bad_train_value_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG.replace("learning_rate = 0.3", "learning_rate = fast"))
        assert main(["run", "--config", str(bad)]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "config"

    def test_semantic_config_violation_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG.replace("reference_count = 20", "reference_count = 1000"))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "config"

    def test_zero_wasserstein_every_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG.replace("wasserstein_every = 5", "wasserstein_every = 0"))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "config"

    @pytest.mark.parametrize(
        "old, new, named",
        [
            (TWO_MOONS, "kind = six_blobs\nseed = 3\ncounts = 80,82,84", "bad value in [dataset]: six_blobs needs exactly 6 class counts"),
            ("kind = affine", "kind = affin", "'affin'"),
            ("[feature_map]\nkind = identity", "[feature_map]\nkind = identity\nout_dim = 3", "bad value in [feature_map]: identity feature map cannot change dimension"),
            ("angle_deg = 180\n", "", "[corruption] angle_deg"),
            ("epochs = 10", "epochs = 10\nepochs = 11", "'epochs'"),
            ("reference_count = 20", "reference_count = 21", "count 21"),
            ("full_batch = true", "full_batch = ture", "[train] full_batch"),
            ("learning_rate = 0.3", "learning_rate = nan", "learning_rate"),
            ("learning_rate = 0.3", "learning_rate = inf", "learning_rate"),
            ("init_rotation_deg = 45", "init_rotation_deg = nan", "bad value in [adapter]: init_rotation_deg must be finite"),
            ("noise_sigma = 0.03", "noise_sigma = -1", "bad value in [dataset]: two_moons needs a finite noise_sigma"),
            ("noise_sigma = 0.03", "noise_sigma = nan", "noise_sigma"),
            ("[feature_map]\nkind = identity", "[feature_map]\nkind = fixed_mlp\nout_dim = 0", "bad value in [feature_map]: out_dim must be >= 1, got 0"),
            ("[feature_map]\nkind = identity", "[feature_map]\nkind = fixed_mlp\nhidden = -5", "bad value in [feature_map]: hidden must be >= 0, got -5"),
            (TWO_MOONS, "kind = six_blobs\nseed = 3\ncounts = 80.7,82,84,86,88,90", "[dataset] counts"),
            ("kind = two_moons", "kind = six_blobs", "[dataset] n"),
            ("kind = rotation\nangle_deg = 180", "kind = linear\nmatrix = -1,0,0,-1\nsigma = 0.1", "[corruption] sigma"),
            ("kind = rotation\nangle_deg = 180", "kind = linear\nmatrix = 1,0,0", "[corruption] matrix"),
            ("batch_size = 60", "batch_size =", "[train] batch_size"),
            ("[train]", "[output]\ndir =\n\n[train]", "[output] dir"),
            ("name = tiny", "name =", "[experiment] name"),
            ("kind = affine", "kind = affine\nhidden = -5", "[adapter] hidden"),
            ("kind = affine", "kind = affine\nseed = 0", "[adapter] seed"),
            ("kind = affine", "kind = identity\nhidden = 4", "[adapter] hidden"),
            ("kind = affine", "kind = mlp1", "[adapter] init_rotation_deg"),
            ("[feature_map]\nkind = identity", "[feature_map]\nkind = fixed_affine\nhidden = 4", "[feature_map] hidden"),
            ("[feature_map]\nkind = identity", "[feature_map]\nkind = identity\nseed = 1", "[feature_map] seed"),
        ],
        ids=[
            "three_blob_counts",
            "unknown_adapter",
            "identity_changes_dim",
            "rotation_without_angle",
            "duplicate_key",
            "references_not_split_by_classes",
            "misspelt_full_batch",
            "nan_learning_rate",
            "infinite_learning_rate",
            "nan_init_rotation",
            "negative_noise_sigma",
            "nan_noise_sigma",
            "zero_feature_out_dim",
            "negative_feature_hidden",
            "fractional_count",
            "six_blobs_given_n",
            "linear_given_sigma",
            "non_square_matrix",
            "empty_batch_size",
            "empty_output_dir",
            "empty_experiment_name",
            "hidden_with_affine",
            "seed_with_affine",
            "hidden_with_identity_adapter",
            "init_rotation_with_mlp1",
            "hidden_with_fixed_affine",
            "seed_with_identity_feature_map",
        ],
    )
    def test_config_mistake_exits_2(self, tmp_path, capsys, old, new, named):
        assert old in TINY_CONFIG
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG.replace(old, new))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "config"
        assert named in payload["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line", ["", "batch_size = 0\n"], ids=["missing", "zero"])
    def test_missing_or_zero_batch_size_means_all_points(self, tmp_path, line):
        path = tmp_path / "c.cfg"
        path.write_text(TINY_CONFIG.replace("batch_size = 60\n", line))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert json.loads((tmp_path / "o" / "summary.json").read_text())["config"]["train"]["batch_size"] == 60

    @pytest.mark.parametrize("value, expected", [("Yes", True), ("on", True), ("0", False), ("OFF", False)])
    def test_full_batch_boolean_spellings(self, tmp_path, value, expected):
        path = tmp_path / "c.cfg"
        path.write_text(TINY_CONFIG.replace("full_batch = true", f"full_batch = {value}"))
        assert load_spec(path).train.full_batch is expected

    def test_adapted_csv_needs_no_extra_forward(self, tiny_config, tmp_path, monkeypatch):
        rows = []
        forward = Adapter.forward_cloud

        def counting_forward(self, x):
            rows.append(x.shape[0])
            return forward(self, x)

        monkeypatch.setattr(Adapter, "forward_cloud", counting_forward)
        assert main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "o")]) == 0
        assert rows == [60] * (10 + 1)  # one per record: epochs + the pre-training record

    def test_unknown_key_exits_2_and_names_it(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG.replace("learning_rate = 0.3", "learning_rat = 0.5\nwasserstein_max_size = 64\nreg_weight = 0.0"))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "config"
        assert "[train] learning_rat" in payload["message"]
        assert "[train] wasserstein_max_size" in payload["message"]
        assert "[train] reg_weight" in payload["message"]

    def test_unknown_section_exits_2_and_names_it(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG + "\n[trian]\nepochs = 3\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "config"
        assert "[trian]" in payload["message"]

    def test_divergence_stops_and_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG.replace("learning_rate = 0.3", "learning_rate = 1e6"))
        out = tmp_path / "o"
        assert main(["run", "--config", str(bad), "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "diverged"
        assert payload["epoch"] >= 1 and payload["spread_ratio"] > 1e3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["flags"]["diverged"] is True
        assert summary["flags"]["mse_plateau"] is False
        rows = (out / "trace.csv").read_text().splitlines()
        assert len(rows) == 1 + payload["epoch"]  # header plus the records before the stop

    # Final values of the tiny config in full batch and in bank mode; rtol=1e-9
    # catches a changed formula but lets ulp-level kernel changes through.
    @pytest.mark.parametrize(
        "edits, loss, mse, params",
        [
            (
                {},
                0.0061477481503612146,
                3.696804373422038,
                [0.7051738005873043, -0.8090461054628236, 0.5456259589395132,
                 0.9766072808366885, 0.005520454761451033, -0.011807611357381552],
            ),
            (
                {"epochs = 10": "epochs = 3", "batch_size = 60": "batch_size = 16", "full_batch = true": "full_batch = false"},
                0.0038806895492278226,
                3.7544800627370134,
                [0.6919379466744051, -0.846183129350616, 0.48932257548114566,
                 1.0534429916818882, -0.005471191631626394, -0.019047396767877554],
            ),
        ],
        ids=["full_batch", "bank"],
    )
    def test_final_values_are_pinned(self, tmp_path, edits, loss, mse, params):
        text = TINY_CONFIG
        for old, new in edits.items():
            text = text.replace(old, new)
        path = tmp_path / "c.cfg"
        path.write_text(text)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        np.testing.assert_allclose(summary["final_metrics"]["quantile_loss"], loss, rtol=1e-9)
        np.testing.assert_allclose(summary["final_metrics"]["paired_mse"], mse, rtol=1e-9)
        np.testing.assert_allclose(summary["adapter_params"], params, rtol=1e-9)

    def test_config_echoed_into_summary(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(tiny_config), "--out", str(out)])
        cfg = json.loads((out / "summary.json").read_text())["config"]
        assert cfg["train"]["epochs"] == 10
        assert cfg["train"]["momentum"] == 0.9
        assert cfg["dataset"]["kind"] == "two_moons"
        assert cfg["dataset"]["n"] == 60  # parsed values, not the raw strings
        assert cfg["corruption"]["angle_deg"] == 180.0
        assert cfg["train"]["snapshot_every"] == 1  # default echoed


class TestVerify:
    def test_variance_suite(self, capsys):
        assert main(["verify", "variance", "--n", "8", "--b", "3"]) == 0
        out = capsys.readouterr().out
        assert "PASS variance" in out

    def test_gradients_suite(self, capsys):
        assert main(["verify", "gradients"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3

    def test_wasserstein_suite(self, capsys):
        assert main(["verify", "wasserstein"]) == 0
        assert "PASS wasserstein[enumeration]" in capsys.readouterr().out

    def test_inverse_map_suite_small(self, capsys):
        assert main(["verify", "inverse-map", "--trials", "10", "--seed", "0"]) == 0
        line = capsys.readouterr().out.strip()
        assert re.fullmatch(r"PASS inverse-map: 10/10 residuals <= 1e-6, worst \S+; [1-9]\d* iterations, 0 on-support snaps, \d+ fallbacks, \d+ step halvings", line)

    def test_minibatch_gradients_suite(self, capsys):
        assert main(["verify", "minibatch-gradients"]) == 0
        out = capsys.readouterr().out
        assert "PASS minibatch-gradients[affine]: 56 batches" in out
        assert "PASS minibatch-gradients[mlp1]: 56 batches" in out

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["inverse-map", "--trials", "-3"], "--trials"),
            (["inverse-map", "--trials", "0"], "--trials"),
            (["variance", "--n", "3", "--b", "5"], "--b"),
            (["variance", "--b", "0"], "--b"),
            (["variance", "--n", "1", "--b", "1"], "--n"),
            (["minibatch-gradients", "--n", "3", "--b", "4"], "--b"),
            (["minibatch-gradients", "--n", "40", "--b", "20"], "C(40, 20)"),
        ],
    )
    def test_bad_suite_arguments_exit_2_before_running(self, argv, named, capsys):
        assert main(["verify", *argv]) == 2
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        error = json.loads(out[0])
        assert error["error"] == "usage"
        assert named in error["message"]

    def test_usage_error_exit_code(self):
        assert main(["verify", "not-a-suite"]) == 2
        assert main([]) == 2


SHIPPED = Path(__file__).resolve().parent.parent / "configs"


class TestShippedConfigs:
    def test_shipped_configs_parse(self):
        for name in ("sixblobs_linear.cfg", "twomoons_flip.cfg"):
            spec = load_spec(SHIPPED / name)
            assert spec.train.epochs >= 1

    def test_twomoons_flip_flags_mse_plateau(self, tmp_path):
        out = tmp_path / "tm"
        code = main(["run", "--config", str(SHIPPED / "twomoons_flip.cfg"), "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["flags"]["mse_plateau"] is True
        ratio = summary["final_metrics"]["wasserstein2"] / summary["initial_metrics"]["wasserstein2"]
        assert ratio < 0.2
