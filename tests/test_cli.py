import json
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
        "old, new",
        [
            ("kind = two_moons", "kind = six_blobs\ncounts = 80,82,84"),
            ("kind = affine", "kind = affin"),
            ("[feature_map]\nkind = identity", "[feature_map]\nkind = identity\nout_dim = 3"),
            ("angle_deg = 180\n", ""),
            ("epochs = 10", "epochs = 10\nepochs = 11"),
            ("reference_count = 20", "reference_count = 21"),
            ("full_batch = true", "full_batch = ture"),
        ],
        ids=[
            "three_blob_counts",
            "unknown_adapter",
            "identity_changes_dim",
            "rotation_without_angle",
            "duplicate_key",
            "references_not_split_by_classes",
            "misspelt_full_batch",
        ],
    )
    def test_config_mistake_exits_2(self, tmp_path, capsys, old, new):
        assert old in TINY_CONFIG
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG.replace(old, new))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "config"
        assert not (tmp_path / "o").exists()

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
        bad.write_text(TINY_CONFIG.replace("learning_rate = 0.3", "learning_rat = 0.5\nwasserstein_max_size = 64"))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "config"
        assert "[train] learning_rat" in payload["message"]
        assert "[train] wasserstein_max_size" in payload["message"]

    def test_unknown_section_exits_2_and_names_it(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG + "\n[trian]\nepochs = 3\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "config"
        assert "[trian]" in payload["message"]

    def test_config_echoed_into_summary(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(tiny_config), "--out", str(out)])
        cfg = json.loads((out / "summary.json").read_text())["config"]
        assert cfg["train"]["epochs"] == 10
        assert cfg["train"]["momentum"] == 0.9
        assert cfg["dataset"]["kind"] == "two_moons"
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
        assert "10/10" in capsys.readouterr().out

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
