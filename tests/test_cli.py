import importlib
import json
import math
import re
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from quantmatch.adapters import Adapter
from quantmatch import bank as bank_mod, cli, oracles, trainer as trainer_mod
from quantmatch.cli import load_spec, main
from quantmatch.loss import BLOCK_BYTES
from quantmatch.trainer import train

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


def kept_traces(monkeypatch) -> list:
    """The RunTrace of each training that run_experiment starts from now on, in order."""
    traces = []

    def keep_trace(*args, **kwargs):
        adapter, trace = train(*args, **kwargs)
        traces.append(trace)
        return adapter, trace

    monkeypatch.setattr(cli, "train", keep_trace)
    return traces


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

    def test_divergence_to_overflow_raises_no_warning(self, tmp_path, capsys):
        # the adapted cloud's spread overflows to inf, the stop's intended signal; under
        # warnings-as-errors a warning on the way would surface as a RuntimeWarning error
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG.replace("learning_rate = 0.3", "learning_rate = 1e300"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["error"] == "diverged"
        assert payload["spread_ratio"] is None
        assert captured.err == ""

    @pytest.mark.parametrize(
        "old, new, section",
        [
            ("kind = rotation\nangle_deg = 180", "kind = shift\noffset = 1e200, 0", "corruption"),
            ("kind = rotation\nangle_deg = 180", "kind = gaussian_noise\nsigma = 1e200", "corruption"),
            ("kind = rotation\nangle_deg = 180", "kind = linear\nmatrix = 1e200, 0, 0, 1e200", "corruption"),
            ("noise_sigma = 0.03", "noise_sigma = 1e200", "dataset"),
        ],
        ids=["shift", "gaussian_noise", "linear", "dataset_noise"],
    )
    def test_overflowing_cloud_exits_2_before_training(self, tmp_path, capsys, monkeypatch, old, new, section):
        def no_training(*args, **kwargs):
            raise AssertionError("trained on a cloud whose squared distances overflow")

        monkeypatch.setattr(cli, "train", no_training)
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG.replace(old, new))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["error"] == "config"
        assert f"[{section}]" in payload["message"] and "squared distances overflow" in payload["message"]
        assert captured.err == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "section, old, new",
        [
            ("adapter", "kind = affine\n", "kind = mlp1\nhidden = {}\n"),
            ("feature_map", "kind = identity\n", "kind = fixed_mlp\nhidden = {}\n"),
        ],
    )
    def test_oversized_hidden_layer_exits_2_before_building(self, tmp_path, capsys, monkeypatch, section, old, new):
        def no_build(*args, **kwargs):
            raise AssertionError("built an adapter or a feature map")

        text = TINY_CONFIG.replace("init_rotation_deg = 45\n", "")
        bad = tmp_path / "bad.cfg"
        bad.write_text(text.replace(old, new.format(10**8)))
        with monkeypatch.context() as patched:
            patched.setitem(cli.ADAPTERS, "mlp1", no_build)
            patched.setitem(cli.FEATURE_MAPS, "fixed_mlp", no_build)
            tracemalloc.start()
            try:
                code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 2
        assert peak < 8 << 20  # the 60-point dataset, not 60 * 10**8 floats
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "config"
        assert f"[{section}]" in payload["message"] and "hidden = 100000000" in payload["message"]
        assert not (tmp_path / "o").exists()

        # the limit is on n * hidden * 8 bytes: a layer that fits it exactly runs
        monkeypatch.setattr(cli, "MAX_HIDDEN_BYTES", 8 * 60 * 16)
        for hidden, code in ((16, 0), (17, 2)):
            bad.write_text(text.replace(old, new.format(hidden)))
            assert main(["run", "--config", str(bad), "--out", str(tmp_path / f"o{hidden}")]) == code, hidden
            assert (tmp_path / f"o{hidden}").exists() == (code == 0)
        capsys.readouterr()

    @pytest.mark.parametrize("under", [False, True], ids=["a_file", "under_a_file"])
    def test_unusable_output_dir_exits_2_before_training(self, tiny_config, tmp_path, capsys, monkeypatch, under):
        taken = tmp_path / "taken"
        taken.write_text("")

        def no_training(*args, **kwargs):
            raise AssertionError("trained before the output dir was made")

        monkeypatch.setattr(cli, "train", no_training)
        out = taken / "out" if under else taken
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "config"
        assert "[output] dir" in payload["message"]

    @pytest.mark.parametrize("configured", [False, True], ids=["default_dir", "config_dir"])
    def test_empty_out_flag_exits_2_before_any_dir(self, tmp_path, capsys, monkeypatch, configured):
        """An empty --out is an empty [output] dir, not a missing flag: nothing is written where the config points."""
        monkeypatch.chdir(tmp_path)
        text = TINY_CONFIG.replace("[train]", "[output]\ndir = from_config\n\n[train]") if configured else TINY_CONFIG
        (tmp_path / "tiny.cfg").write_text(text)
        assert main(["run", "--config", "tiny.cfg", "--out", ""]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "config"
        assert "[output] dir" in payload["message"]
        assert sorted(path.name for path in tmp_path.iterdir()) == ["tiny.cfg"]

    def test_config_error_in_training_takes_back_the_output_dirs(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG.replace("reference_count = 20", "reference_count = 21"))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "a" / "b")]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "config"
        assert not (tmp_path / "a").exists()

        # any other failure in training takes them back too, and exits 1 with its own type and message
        def fails(*args, **kwargs):
            raise RuntimeError("step failed")

        monkeypatch.setattr(cli, "train", fails)
        (tmp_path / "tiny.cfg").write_text(TINY_CONFIG)
        assert main(["run", "--config", str(tmp_path / "tiny.cfg"), "--out", str(tmp_path / "a" / "b")]) == 1
        assert json.loads(capsys.readouterr().out) == {"error": "RuntimeError", "message": "step failed"}
        assert not (tmp_path / "a").exists()

    def test_aborted_steps_count_steps_not_epochs(self, tmp_path, monkeypatch):
        traces = kept_traces(monkeypatch)
        text = TINY_CONFIG.replace("batch_size = 60", "batch_size = 16").replace("full_batch = true", "full_batch = false")
        path = tmp_path / "c.cfg"
        path.write_text(text.replace("epochs = 10", "epochs = 2"))
        grads = cli.minibatch_point_grads
        calls = []

        def two_nan_batches(*args):
            calls.append(None)
            # the second and third of epoch 1's four batches
            return grads(*args) * (np.nan if len(calls) in (2, 3) else 1.0)

        monkeypatch.setattr("quantmatch.trainer.minibatch_point_grads", two_nan_batches)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 8
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["flags"]["aborted_steps"] == 2
        # two refused batches in one epoch flag its record once
        assert [r.flag for r in traces[0].records] == ["", "nonfinite_grad", ""]

        # full batch: the step of epoch 2 is refused, so the adapter does not move in that epoch
        loss_on_points = cli.quantile_loss_on_points
        steps = []

        def nan_second_step(*args, **kwargs):
            loss, point_grads = loss_on_points(*args, **kwargs)
            if point_grads is not None:
                steps.append(None)
                point_grads = point_grads * (np.nan if len(steps) == 2 else 1.0)
            return loss, point_grads

        monkeypatch.setattr("quantmatch.trainer.quantile_loss_on_points", nan_second_step)
        path.write_text(TINY_CONFIG.replace("epochs = 10", "epochs = 3"))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "f")]) == 0
        assert len(steps) == 3
        summary = json.loads((tmp_path / "f" / "summary.json").read_text())
        assert summary["flags"]["aborted_steps"] == 1
        records = traces[1].records
        assert [r.flag for r in records] == ["", "", "nonfinite_grad", ""]
        assert records[2].quantile_loss == records[1].quantile_loss
        assert records[2].paired_mse == records[1].paired_mse
        assert records[3].quantile_loss != records[2].quantile_loss

    def test_bank_run_bits_do_not_depend_on_the_step_path(self, tmp_path, monkeypatch):
        """A bank run whose steps fit one reference block gives the bits of the same run in blocks of two references, with THREADS at 2."""
        text = TINY_CONFIG.replace("full_batch = true", "full_batch = false\nsnapshot_every = 2")
        path = tmp_path / "c.cfg"
        path.write_text(text.replace("batch_size = 60", "batch_size = 16").replace("epochs = 10", "epochs = 5"))
        runs = []

        def keep_run(*args, **kwargs):
            adapter, trace = train(*args, **kwargs)
            runs.append(([repr(r) for r in trace.records], trace.adapted.tobytes(), adapter.params.tobytes()))
            return adapter, trace

        monkeypatch.setattr(cli, "train", keep_run)
        steps = []
        step = trainer_mod.minibatch_point_grads
        monkeypatch.setattr(trainer_mod, "minibatch_point_grads", lambda yb, *args: steps.append(len(yb)) or step(yb, *args))
        # 60 = 3 * 16 + 12: a short last batch; at (R, d) = (20, 2) each batch fits one block
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "direct")]) == 0
        assert steps[:4] == [16, 16, 16, 12] and len(steps) == 20
        monkeypatch.setattr("quantmatch.loss.BLOCK_BYTES", 1)
        monkeypatch.setattr("quantmatch.loss.THREADS", 2)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "threaded")]) == 0
        assert len(steps) == 2 * 20
        assert runs[1] == runs[0]

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

    def test_trace_csv_text_and_summary_metrics(self, tmp_path, monkeypatch):
        traces = kept_traces(monkeypatch)
        edits = {"epochs = 10": "epochs = 3", "batch_size = 60": "batch_size = 16",
                 "full_batch = true": "full_batch = false", "wasserstein_every = 5": "wasserstein_every = 2"}
        text = TINY_CONFIG
        for old, new in edits.items():
            text = text.replace(old, new)
        path = tmp_path / "c.cfg"
        path.write_text(text)
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        records = traces[0].records
        assert [r.wasserstein2 is None for r in records] == [False, True, False, False]
        # the variance columns follow the W2 cadence after record 0, so record 1 writes them empty
        assert (records[1].crude_var, records[1].control_var) == (None, None)
        assert all(r.crude_var > 0 and r.control_var > 0 for r in records[2:])

        def field(value):
            return "" if value is None else repr(value)

        lines = ["epoch,quantile_loss,paired_mse,wasserstein2,crude_var,control_var,grad_norm"]
        for r in records:
            values = (r.quantile_loss, r.paired_mse, r.wasserstein2, r.crude_var, r.control_var, r.grad_norm)
            lines.append(",".join([f"{r.epoch:d}", *map(field, values)]))
        assert (out / "trace.csv").read_bytes() == "".join(line + "\r\n" for line in lines).encode()

        summary = json.loads((out / "summary.json").read_text())
        for key, r in (("initial_metrics", records[0]), ("final_metrics", records[-1])):
            assert summary[key] == {"quantile_loss": r.quantile_loss, "paired_mse": r.paired_mse, "wasserstein2": r.wasserstein2}

    @pytest.mark.parametrize("where", ["config", "out"])
    def test_percent_in_values_is_literal(self, tmp_path, where):
        out = tmp_path / "100% %(name)s"
        text = TINY_CONFIG.replace("name = tiny", "name = run 100%")
        if where == "config":
            text = text.replace("[train]", f"[output]\ndir = {out}\n\n[train]")
        path = tmp_path / "c.cfg"
        path.write_text(text)
        argv = ["run", "--config", str(path)] + (["--out", str(out)] if where == "out" else [])
        assert main(argv) == 0
        config = json.loads((out / "summary.json").read_text())["config"]
        assert config["name"] == "run 100%"
        assert config["out_dir"] == str(out)

    @pytest.mark.parametrize("default", ["seed = 3", "epochs = 5"])
    def test_default_section_exits_2(self, tmp_path, capsys, default):
        # configparser would copy a [DEFAULT] key into every section that does not set it
        text = (SHIPPED / "sixblobs_linear.cfg").read_text()
        if default == "seed = 3":  # every section left takes a seed, so no key of it is unknown
            text = text.split("[output]")[0].split("\n\n", 1)[1]
            text = text.replace("kind = affine", "kind = mlp1").replace("kind = identity", "kind = fixed_mlp")
        path = tmp_path / "c.cfg"
        path.write_text(f"[DEFAULT]\n{default}\n\n{text}")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"error": "config", "message": "unknown config names: [DEFAULT]"}
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "new",
        [
            "kind = linear\nmatrix = nan, 0, 0, 1",
            "kind = linear\nmatrix = 1e308, 1e308, -1e308, 1e308",
            "kind = rotation\nangle_deg = inf",
            "kind = gaussian_noise\nsigma = 1e308",
            "kind = gaussian_noise\nsigma = nan",
            "kind = linear\nmatrix = 100000000, 100000000, 100000000, 100000000.0000001",
        ],
        ids=["nan_matrix", "overflowing_matrix", "infinite_angle", "overflowing_sigma", "nan_sigma", "rank_one_matrix"],
    )
    def test_corruption_not_finite_overflowing_or_singular_exits_2(self, tmp_path, capsys, new):
        bad = tmp_path / "bad.cfg"
        # six-blobs' coordinates reach 10, so that the matrix of 1e308s overflows its product
        bad.write_text(TINY_CONFIG.replace(TWO_MOONS, "kind = six_blobs\nseed = 3").replace("kind = rotation\nangle_deg = 180", new))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["error"] == "config" and "[corruption]" in payload["message"]
        assert captured.err == ""
        assert not (tmp_path / "o").exists()

    def test_shift_that_absorbs_the_cloud_exits_2_naming_the_corruption(self, tmp_path, capsys):
        """An offset so large that every shifted point rounds to it is the corruption's fault, not a degenerate clean cloud."""
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG.replace("kind = rotation\nangle_deg = 180", "kind = shift\noffset = 1e308, 1e308"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"error": "config", "message": "bad value in [corruption]: the shift corruption maps every point to the same point"}
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "edits",
        [{}, {"batch_size = 60": "batch_size = 16", "full_batch = true": "full_batch = false"}],
        ids=["full_batch", "bank"],
    )
    def test_grad_norm_is_the_norm_of_the_epochs_last_gradient(self, tmp_path, monkeypatch, edits):
        traces = kept_traces(monkeypatch)
        given = []
        sgd_step = trainer_mod.sgd_step

        def recorded(adapter, grads, *args, **kwargs):
            given.append(np.array(grads))
            return sgd_step(adapter, grads, *args, **kwargs)

        monkeypatch.setattr(trainer_mod, "sgd_step", recorded)
        text = TINY_CONFIG.replace("epochs = 10", "epochs = 3")
        for old, new in edits.items():
            text = text.replace(old, new)
        path = tmp_path / "c.cfg"
        path.write_text(text)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        steps = 4 if edits else 1  # per epoch: ceil(60 / 16) batches, or one full batch
        records = traces[0].records
        assert len(given) == 3 * steps and len(records) == 4
        assert records[0].grad_norm == 0.0
        for k in (1, 2, 3):
            assert records[k].grad_norm == float(np.linalg.norm(given[k * steps - 1])), k

    def test_small_well_conditioned_matrix_runs(self, tmp_path):
        # its determinant is 1e-10, but its rows are orthogonal
        path = tmp_path / "c.cfg"
        path.write_text(TINY_CONFIG.replace("kind = rotation\nangle_deg = 180", "kind = linear\nmatrix = 0.00001, 0, 0, 0.00001"))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(TINY_CONFIG.replace("name = tiny", "name = caf\xe9").encode("latin-1"))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "config"
        assert payload["message"].startswith("malformed config: ") and "utf-8" in payload["message"]
        assert not (tmp_path / "o").exists()

    def test_config_with_byte_order_mark_runs(self, tiny_config, tmp_path, capsys):
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + tiny_config.read_bytes())
        assert main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "plain")]) == 0
        assert main(["run", "--config", str(bom), "--out", str(tmp_path / "bom")]) == 0
        assert (tmp_path / "bom" / "trace.csv").read_bytes() == (tmp_path / "plain" / "trace.csv").read_bytes()
        capsys.readouterr()
        bom.write_bytes(b"\xef\xbb\xbf" + TINY_CONFIG.replace("name = tiny", "name = caf\xe9").encode("latin-1"))
        assert main(["run", "--config", str(bom), "--out", str(tmp_path / "latin")]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "config"

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

    def test_variance_suite_makes_one_index_pass_per_cloud(self, capsys, monkeypatch):
        calls = []
        index_averages = bank_mod.index_averages
        monkeypatch.setattr(bank_mod, "index_averages", lambda *args: calls.append(args[0]) or index_averages(*args))
        assert main(["verify", "variance"]) == 0
        assert len(calls) == 2

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
        assert re.fullmatch(r"PASS inverse-map: 10/10 residuals <= 1e-6, worst \S+; [1-9]\d* iterations, 0 on-support snaps, \d+ Weiszfeld steps", line)

    def test_minibatch_gradients_suite(self, capsys):
        assert main(["verify", "minibatch-gradients"]) == 0
        out = capsys.readouterr().out
        assert "PASS minibatch-gradients[affine]: 56 batches" in out
        assert "PASS minibatch-gradients[mlp1]: 56 batches" in out

    def test_minibatch_gradients_suite_threaded_step(self, capsys, monkeypatch):
        """Blocks of two references, with THREADS at 2, print the lines of one block with THREADS at 1."""
        args = ["verify", "minibatch-gradients", "--n", "10", "--b", "4"]
        lines = []
        for threads, budget in ((1, BLOCK_BYTES), (2, 1)):
            monkeypatch.setattr("quantmatch.loss.THREADS", threads)
            monkeypatch.setattr("quantmatch.loss.BLOCK_BYTES", budget)
            assert main(args) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1]
        assert lines[0].count("PASS minibatch-gradients") == 2

    def test_gradients_suite_fails_on_a_wrong_gradient(self, capsys, monkeypatch):
        # 0.1% off: the check divides the error by max |numeric gradient|
        chain = cli._chain_param_grad
        monkeypatch.setattr(cli, "_chain_param_grad", lambda *args: chain(*args) * (1 + 1e-3))
        assert main(["verify", "gradients"]) == 1
        out = capsys.readouterr().out
        assert "FAIL gradients[affine]" in out
        assert "FAIL gradients[mlp1]" in out

    def test_gradients_suite_fails_on_an_all_zero_numeric_gradient(self, capsys, monkeypatch):
        # zero analytic and numeric gradients agree, but check nothing
        monkeypatch.setattr(cli, "_chain_param_grad", lambda adapter, *args: np.zeros(adapter.n_params))
        monkeypatch.setattr(cli.oracles, "finite_diff_grad", lambda fn, theta: np.zeros_like(theta))
        assert main(["verify", "gradients"]) == 1
        out = capsys.readouterr().out
        assert "FAIL gradients[affine]: max relative error inf" in out
        assert "FAIL gradients[mlp1]: max relative error inf" in out

    def test_minibatch_gradients_suite_fails_on_a_wrong_batch_gradient(self, capsys, monkeypatch):
        grads = cli.minibatch_point_grads
        monkeypatch.setattr(cli, "minibatch_point_grads", lambda *args: grads(*args) * (1 + 1e-9))
        assert main(["verify", "minibatch-gradients"]) == 1
        out = capsys.readouterr().out
        assert "FAIL minibatch-gradients[affine]" in out
        assert "FAIL minibatch-gradients[mlp1]" in out

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

    def test_enumeration_limit_exits_2_without_counting_the_batches(self, capsys):
        start = time.perf_counter()
        assert main(["verify", "variance", "--n", "1000000000", "--b", "500000000"]) == 2
        assert time.perf_counter() - start < 0.5
        error = json.loads(capsys.readouterr().out)
        assert error == {"error": "usage", "message": "C(1000000000, 500000000) batches exceed the enumeration limit 1000000"}

    def test_usage_error_exit_code(self):
        assert main(["verify", "not-a-suite"]) == 2
        assert main([]) == 2


@pytest.mark.parametrize(
    "argv, raising",
    [
        pytest.param(["run", "--config", "any.cfg"], "run_experiment", id="run"),
        pytest.param(["verify", "variance"], "verify_variance", id="verify"),
    ],
)
def test_exception_exits_1_with_its_type_name(argv, raising, tmp_path, capsys, monkeypatch):
    """Any exception but a ConfigError, in either command, prints one JSON line naming its type and exits 1."""
    (tmp_path / "any.cfg").write_text(TINY_CONFIG)
    monkeypatch.chdir(tmp_path)

    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, raising, boom)
    assert main(argv) == 1
    assert capsys.readouterr().out == '{"error": "RuntimeError", "message": "boom"}\n'


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


SEED_SECTIONS = ("dataset", "corruption", "adapter", "feature_map", "train")


def with_seed(section: str, value) -> str:
    """TINY_CONFIG with `seed = value` in the section, in place of any seed it has."""
    text = TINY_CONFIG.replace("seed = 3\n", "").replace("seed = 5\n", "")
    return text.replace(f"[{section}]\n", f"[{section}]\nseed = {value}\n")


class TestSeeds:
    """A seed outside [0, 2**64), which SplitMix64 would reduce onto one inside, exits 2 before anything is made."""

    @pytest.mark.parametrize("section", SEED_SECTIONS)
    @pytest.mark.parametrize("value", [-1, 2**64, 2**64 + 7])
    def test_config_seed_out_of_range_exits_2(self, tmp_path, capsys, section, value):
        bad = tmp_path / "bad.cfg"
        bad.write_text(with_seed(section, value))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "config"
        assert payload["message"] == f"bad value for [{section}] seed: a seed must be in [0, 2**64), got {value}"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section", SEED_SECTIONS)
    @pytest.mark.parametrize("value", [0, 2**64 - 1])
    def test_config_seed_at_the_ends_of_the_range_reads(self, tmp_path, section, value):
        path = tmp_path / "c.cfg"
        path.write_text(with_seed(section, value))
        spec = load_spec(path)
        assert (spec.train.seed if section == "train" else getattr(spec, section)["seed"]) == value

    @pytest.mark.parametrize("value", ["-3", str(2**64)])
    def test_run_seed_flag_out_of_range_exits_2_before_any_dir(self, tiny_config, tmp_path, capsys, value):
        assert main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "o"), "--seed", value]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "config"
        assert "--seed" in payload["message"] and "[0, 2**64)" in payload["message"]
        assert not (tmp_path / "o").exists()

    def test_run_seed_flag_at_the_top_of_the_range_reads(self, tiny_config):
        assert load_spec(tiny_config, seed_override=2**64 - 1).train.seed == 2**64 - 1

    @pytest.mark.parametrize("suite", ["wasserstein", "gradients", "variance"])
    @pytest.mark.parametrize("value", ["-1", str(2**64)])
    def test_verify_seed_flag_out_of_range_exits_2(self, capsys, suite, value):
        assert main(["verify", suite, "--seed", value]) == 2
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        error = json.loads(out[0])
        assert error["error"] == "usage"
        assert error["message"] == f"--seed: a seed must be in [0, 2**64), got {value}"


class InlinePool:
    """Stands in for the W2 helper's pool: each call runs at its submit, on the calling thread."""

    def __init__(self, max_workers=None):
        pass

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def run_outputs(path, out) -> tuple:
    """trace.csv's bytes and summary.json less its runtime and output dir, of one `quantmatch run`."""
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    del summary["runtime_ms"], summary["config"]["out_dir"]
    return (out / "trace.csv").read_bytes(), summary


class TestW2Helper:
    """Exact W2 runs on one helper thread beside training; the outputs are those of inline calls."""

    BANK = {"full_batch = true": "full_batch = false", "batch_size = 60": "batch_size = 16"}

    def config(self, tmp_path, edits=None, every=5):
        text = TINY_CONFIG.replace("wasserstein_every = 5", f"wasserstein_every = {every}")
        for old, new in (edits or {}).items():
            text = text.replace(old, new)
        path = tmp_path / "c.cfg"
        path.write_text(text)
        return path

    @pytest.mark.parametrize("every", [1, 2])
    @pytest.mark.parametrize("bank", [False, True], ids=["full_batch", "bank"])
    def test_helper_changes_no_byte(self, tmp_path, monkeypatch, bank, every):
        path = self.config(tmp_path, self.BANK if bank else None, every)
        threads = set()
        w2 = oracles.wasserstein2
        monkeypatch.setattr(oracles, "wasserstein2", lambda a, b: threads.add(threading.get_ident()) or w2(a, b))
        helper = run_outputs(path, tmp_path / "helper")
        assert threads and threading.get_ident() not in threads
        monkeypatch.setattr(trainer_mod, "ThreadPoolExecutor", InlinePool)
        threads.clear()
        assert run_outputs(path, tmp_path / "inline") == helper
        assert threads == {threading.get_ident()}

    def test_each_record_has_the_w2_of_its_cloud(self, tmp_path, monkeypatch):
        traces = kept_traces(monkeypatch)
        clouds = []
        evaluate = trainer_mod.evaluate_epoch

        def keep_cloud(adapted, source_feats, *args, **kwargs):
            clouds.append((adapted.copy(), source_feats))
            return evaluate(adapted, source_feats, *args, **kwargs)

        monkeypatch.setattr(trainer_mod, "evaluate_epoch", keep_cloud)
        run_outputs(self.config(tmp_path, every=3), tmp_path / "o")
        records = traces[0].records
        assert len(records) == len(clouds) == 11
        for rec, (cloud, source) in zip(records, clouds):
            expected = oracles.wasserstein2(cloud, source).distance if rec.epoch in (0, 3, 6, 9, 10) else None
            assert rec.wasserstein2 == expected

    @pytest.mark.parametrize("case", ["normal", "diverged", "step_raises", "oversize"])
    def test_no_thread_outlives_train(self, tmp_path, monkeypatch, capsys, case):
        edits = {
            "normal": {},
            "diverged": {"learning_rate = 0.3": "learning_rate = 1e6"},
            "step_raises": {},
            # n = 600 > MAX_EXACT_SIZE: W2 is skipped and no helper starts
            "oversize": {"n = 60": "n = 600", "batch_size = 60": "batch_size = 600"},
        }[case]
        traces = kept_traces(monkeypatch)
        before = threading.active_count()
        during = []
        step = trainer_mod.sgd_step

        def counting_step(*args):
            during.append(threading.active_count())
            if case == "step_raises" and len(during) == 3:
                raise RuntimeError("step failed")
            return step(*args)

        monkeypatch.setattr(trainer_mod, "sgd_step", counting_step)
        code = main(["run", "--config", str(self.config(tmp_path, edits, every=1)), "--out", str(tmp_path / "o")])
        assert threading.active_count() == before
        assert set(during) == {before if case == "oversize" else before + 1}
        if case == "step_raises":
            assert code == 1
            assert json.loads(capsys.readouterr().out) == {"error": "RuntimeError", "message": "step failed"}
        else:
            assert code == (1 if case == "diverged" else 0)
            records = traces[0].records
            assert all((r.wasserstein2 is None) == (case == "oversize") for r in records)

    def test_queued_plans_are_cancelled_when_training_raises(self, tmp_path, monkeypatch, capsys):
        release = threading.Event()
        calls = []
        w2 = oracles.wasserstein2

        def held_w2(a, b):
            calls.append(None)
            assert release.wait(timeout=60)
            return w2(a, b)

        class HeldPool(ThreadPoolExecutor):
            def shutdown(self, wait=True, cancel_futures=False):
                # cancel (or not) while the first plan still runs, then let it finish
                super().shutdown(wait=False, cancel_futures=cancel_futures)
                release.set()
                super().shutdown(wait=wait)

        steps = []
        step = trainer_mod.sgd_step

        def failing_step(*args):
            steps.append(None)
            if len(steps) == 3:
                raise RuntimeError("step failed")
            return step(*args)

        monkeypatch.setattr(oracles, "wasserstein2", held_w2)
        monkeypatch.setattr(trainer_mod, "ThreadPoolExecutor", HeldPool)
        monkeypatch.setattr(trainer_mod, "sgd_step", failing_step)
        before = threading.active_count()
        # epochs 0-2 queue their plans and epoch 3's step raises while the first plan runs
        assert main(["run", "--config", str(self.config(tmp_path, every=1)), "--out", str(tmp_path / "o")]) == 1
        assert json.loads(capsys.readouterr().out) == {"error": "RuntimeError", "message": "step failed"}
        assert threading.active_count() == before
        assert len(calls) == 1

    def test_failing_w2_surfaces_from_train_and_main(self, tmp_path, monkeypatch, capsys):
        path = self.config(tmp_path, every=1)
        calls = []
        w2 = oracles.wasserstein2

        def failing_w2(a, b):
            calls.append(None)
            if len(calls) == 2:
                raise ValueError("the second plan failed")
            return w2(a, b)

        monkeypatch.setattr(oracles, "wasserstein2", failing_w2)
        before = threading.active_count()
        with pytest.raises(ValueError, match="^the second plan failed$"):
            cli.run_experiment(load_spec(path, out_override=tmp_path / "train"))
        assert threading.active_count() == before
        payloads = []
        for pool in (ThreadPoolExecutor, InlinePool):
            monkeypatch.setattr(trainer_mod, "ThreadPoolExecutor", pool)
            calls.clear()
            assert main(["run", "--config", str(path), "--out", str(tmp_path / pool.__name__)]) == 1
            payloads.append(json.loads(capsys.readouterr().out))
            assert threading.active_count() == before
        assert payloads == [{"error": "ValueError", "message": "the second plan failed"}] * 2

    def test_waiting_clouds_stay_within_the_budget(self, tmp_path, monkeypatch):
        cloud_bytes = 60 * 2 * 8  # one adapted two-moons cloud
        monkeypatch.setattr("quantmatch.loss.BLOCK_BYTES", 3 * cloud_bytes)
        lock = threading.Lock()
        waiting, peak = [0], [0]

        class CountingPool(ThreadPoolExecutor):
            def submit(self, fn, *args):
                with lock:
                    waiting[0] += 1
                    peak[0] = max(peak[0], waiting[0])
                return super().submit(fn, *args)

        w2 = oracles.wasserstein2

        def slow_w2(a, b):
            time.sleep(0.02)
            plan = w2(a, b)
            with lock:
                waiting[0] -= 1  # before its future is done, so the count here never exceeds train's
            return plan

        monkeypatch.setattr(trainer_mod, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setattr(oracles, "wasserstein2", slow_w2)
        traces = kept_traces(monkeypatch)
        run_outputs(self.config(tmp_path, every=1), tmp_path / "o")
        assert peak[0] == 3  # the queue fills to the budget and no further
        assert all(r.wasserstein2 is not None for r in traces[0].records)


def tail_ratio(records) -> float:
    """The median paired MSE over the last tenth of the records (rounded up), over the first record's."""
    tail = records[-math.ceil(len(records) / 10) :]
    return float(np.median([r.paired_mse for r in tail])) / records[0].paired_mse


class TestBankFit:
    """The memory-bank six-blobs run fits end to end, and fails to without its control variate or a fresh snapshot.

    The run is perfbench's bank_sixblobs workload (the shipped six-blobs
    config with b = 32, one refresh an epoch, 200 epochs) at the benchmark
    seed; its last record alone is chaotic, so the fit is read from the
    median of the last tenth of the records.
    """

    BOUND = 1e-3

    @staticmethod
    def spec(tmp_path, monkeypatch, seed):
        monkeypatch.syspath_prepend(str(SHIPPED.parent / "perfbench"))
        workloads = importlib.import_module("workloads")
        return load_spec(workloads.write_config(SHIPPED.parent, "bank_sixblobs", seed, tmp_path / "bank.cfg", tmp_path / "out"))

    # at seed 18 the last record reads 2.6e-3 of the first, 30 times the tail median (8.7e-5)
    @pytest.mark.parametrize("seed", [0, 18])
    def test_tail_ratio_and_its_negative_controls(self, tmp_path, monkeypatch, seed):
        spec = self.spec(tmp_path, monkeypatch, seed)
        assert (spec.train.batch_size, spec.train.snapshot_every, spec.train.epochs) == (32, 1, 200)
        traces = kept_traces(monkeypatch)
        assert cli.run_experiment(spec) == 0
        assert cli.run_experiment(replace(spec, train=replace(spec.train, snapshot_every=10**9))) == 0
        # the batch mean alone, in place of the control-variate estimate
        monkeypatch.setattr(trainer_mod, "control_variate_estimate", lambda bank, current, snapshot, block: current)
        assert cli.run_experiment(spec) == 0
        as_is, stale, crude = (tail_ratio(trace.records) for trace in traces)
        assert len(traces[0].records) == 201
        assert as_is <= self.BOUND, as_is
        assert stale > self.BOUND, stale
        assert crude > self.BOUND, crude
