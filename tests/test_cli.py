import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rss_atlas import autoencoder as ae
from rss_atlas import cli
from rss_atlas import dataset as dsm
from rss_atlas import experiment as ex
from rss_atlas import gp_map
from rss_atlas import localization as loc
from rss_atlas.errors import GpFitError


N_APS = 12


def tiny_config(out_dir, seed=3):
    """Small, fast experiment: N_APS APs, short trajectory, few epochs."""
    return {
        "seed": seed,
        "output_dir": str(out_dir),
        "dataset": {
            "synth": {
                "area": [60, 40],
                "n_aps": N_APS,
                "shadowing_std_dbm": 3.0,
                "shadowing_correlation_length_m": 2.0,
                "sample_spacing_m": 2.0,
            }
        },
        "split": {"test_fraction": 0.25, "mode": "random"},
        "gp_grid": {
            "length_scales": [5, 10],
            "signal_variances": [0.5, 1.0],
            "noise_variances": [0.05, 0.1],
        },
        "evaluation": {"cell_size": 2.0, "sigma_m": 10.0, "raster_indices": [0]},
        "ae_train": {
            "latent_dim": 4, "hidden_dim": 10, "epochs": 60, "batch_size": 16,
        },
        "compressors": [
            {"kind": "identity"},
            {"kind": "pca", "latent_dim": 4},
            {
                "kind": "distance_ae",
                "train": {"latent_dim": 4, "hidden_dim": 10, "epochs": 60, "batch_size": 16},
            },
        ],
    }


def write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


class TestSynthCommand:
    def test_writes_csv(self, tmp_path):
        cfg = write_config(tmp_path, tiny_config(tmp_path / "out"))
        out = tmp_path / "survey.csv"
        assert cli.main(["synth", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["x", "y"] and len(header) == 14
        ds = dsm.load_csv(out)
        assert ds.n == len(lines) - 1

    def test_missing_out_dir_no_partial_file(self, tmp_path):
        cfg = write_config(tmp_path, tiny_config(tmp_path / "out"))
        out = tmp_path / "nosuchdir" / "survey.csv"
        assert cli.main(["synth", "--config", cfg, "--out", str(out)]) != 0
        assert not out.exists()
        assert not out.parent.exists()

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, tiny_config(tmp_path / "out"))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert cli.main(["synth", "--config", cfg, "--out", str(a)]) == 0
        assert cli.main(["synth", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, tiny_config(tmp_path / "out"))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        cli.main(["synth", "--config", cfg, "--out", str(a)])
        cli.main(["synth", "--config", cfg, "--seed", "99", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_bad_config_exit_code(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert cli.main(["synth", "--config", str(p), "--out", str(tmp_path / "x.csv")]) == 1


class TestTrainCommand:
    def test_identity_only(self, tmp_path):
        doc = tiny_config(tmp_path / "out")
        doc["compressors"] = [{"kind": "identity"}]
        cfg = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", cfg]) == 0
        outdir = tmp_path / "out"
        assert (outdir / "pipeline_input.json").exists()
        assert (outdir / "train.csv").exists()
        assert (outdir / "manifest.json").exists()
        # The normalization stats follow from train.csv.
        assert not (outdir / "norm_stats.json").exists()

    def test_ae_training_writes_report(self, tmp_path):
        doc = tiny_config(tmp_path / "out")
        # 16 training rows: 8-row batches leave room for 2 held-out rows.
        doc["compressors"][2]["train"]["batch_size"] = 8
        cfg = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", cfg]) == 0
        outdir = tmp_path / "out"
        report = (outdir / "train_report_distance_ae.csv").read_text().splitlines()
        assert report[0] == "epoch,reconstruction,sparsity,distance,heldout_mse"
        assert len(report) == 61
        # A held-out check every 10 epochs; the other cells are empty.
        checked = [line.split(",")[4] != "" for line in report[1:]]
        assert [e for e, c in enumerate(checked, 1) if c] == list(range(10, 61, 10))
        summary = (outdir / "training_summary.csv").read_text().splitlines()
        assert summary[0] == "label,kind,latent_dim,final_rmse,final_rmse_dbm,epochs,best_epoch"
        row = dict(zip(summary[0].split(","), summary[3].split(",")))
        assert row["label"] == "distance_ae" and row["epochs"] == "60"
        assert int(row["best_epoch"]) in range(10, 61, 10)

    def test_rerun_identical_models(self, tmp_path):
        doc = tiny_config(tmp_path / "out")
        cfg = write_config(tmp_path, doc)
        cli.main(["train", "--config", cfg])
        first = (tmp_path / "out" / "pipeline_distance_ae.json").read_bytes()
        cli.main(["train", "--config", cfg])
        second = (tmp_path / "out" / "pipeline_distance_ae.json").read_bytes()
        assert first == second


class TestEvaluateCommand:
    @pytest.fixture()
    def trained_dir(self, tmp_path):
        doc = tiny_config(tmp_path / "out")
        cfg = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", cfg]) == 0
        return cfg, tmp_path / "out"

    def test_summary_lists_all_pipelines(self, trained_dir):
        cfg, outdir = trained_dir
        assert cli.main(["evaluate", "--config", cfg]) == 0
        summary = (outdir / "summary.csv").read_text().splitlines()
        assert summary[0] == "label,mean_kl,mean_argmax_error_m"
        assert len(summary) == 4
        assert (outdir / "field_input_0000.pgm").exists()

    def test_missing_model_file_named(self, tmp_path, trained_dir):
        cfg, outdir = trained_dir
        os.remove(outdir / "pipeline_pca4.json")
        code = cli.main(["evaluate", "--config", cfg])
        assert code == 2

    def test_raster_index_out_of_range(self, tmp_path, trained_dir):
        cfg, outdir = trained_dir
        doc = json.loads(Path(cfg).read_text())
        doc["evaluation"]["raster_indices"] = [10_000]
        cfg2 = write_config(tmp_path, doc, name="cfg2.json")
        assert cli.main(["evaluate", "--config", cfg2]) == 1

    def test_rasters_come_from_the_scoring_pass(self, tmp_path, trained_dir, monkeypatch):
        cfg, outdir = trained_dir
        doc = json.loads(Path(cfg).read_text())
        doc["evaluation"]["raster_indices"] = [0, 3]
        cfg2 = write_config(tmp_path, doc, name="cfg2.json")
        built = []
        init = loc.FieldBuilder.__init__

        def counting_init(self, pipeline, grid):
            built.append(pipeline.label)
            init(self, pipeline, grid)

        monkeypatch.setattr(loc.FieldBuilder, "__init__", counting_init)
        assert cli.main(["evaluate", "--config", cfg2]) == 0
        assert built == ["input", "pca4", "distance_ae"]
        monkeypatch.undo()

        train, stats = dsm.normalize(dsm.load_csv(outdir / "train.csv"))
        test = dsm.apply_normalization(dsm.load_csv(outdir / "test.csv"), stats)
        grid = loc.Grid.cover(np.vstack([train.X, test.X]), 2.0, 2)
        expected = tmp_path / "expected.pgm"
        for label in built:
            doc = json.loads((outdir / f"pipeline_{label}.json").read_text())
            pipe = ex.pipeline_from_dict(doc, label, train)
            builder = loc.FieldBuilder(pipe, grid)
            for idx in (0, 3):
                loc.save_field_pgm(builder.field_for(test.Z[idx]), expected)
                assert (outdir / f"field_{label}_{idx:04d}.pgm").read_bytes() == expected.read_bytes()

    def test_corrupt_pipeline_is_reported_before_any_is_scored(self, trained_dir, monkeypatch, capsys):
        """Every pipeline is loaded before the first FieldBuilder, so a corrupt
        last file fails the run before any grid table is built."""
        cfg, outdir = trained_dir
        bad = outdir / "pipeline_distance_ae.json"
        bad.write_text('{"format_version": 1, "gp": ')
        built = []
        init = loc.FieldBuilder.__init__

        def counting_init(self, pipeline, grid):
            built.append(pipeline.label)
            init(self, pipeline, grid)

        monkeypatch.setattr(loc.FieldBuilder, "__init__", counting_init)
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert built == []
        assert len(err.splitlines()) == 1 and str(bad) in err
        assert "Traceback" not in err
        assert not list(outdir.glob("eval_*.csv"))
        assert not (outdir / "summary.csv").exists()
        assert not list(outdir.glob("*.tmp"))

    @pytest.mark.parametrize("stored", ["input", "a,b"])
    def test_stored_label_renames_nothing(self, trained_dir, stored):
        """A label left in a pipeline file names no output: the config names them all."""
        cfg, outdir = trained_dir
        path = outdir / "pipeline_pca4.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "label": stored}))
        assert cli.main(["evaluate", "--config", cfg]) == 0
        labels = ["input", "pca4", "distance_ae"]
        assert sorted(p.name for p in outdir.glob("eval_*.csv")) == sorted(f"eval_{l}.csv" for l in labels)
        rows = [line.split(",") for line in (outdir / "summary.csv").read_text().splitlines()[1:]]
        assert [cells[0] for cells in rows] == labels
        assert all(len(cells) == 3 for cells in rows)

    def test_summary_mean_matches_per_point_csv(self, trained_dir):
        cfg, outdir = trained_dir
        cli.main(["evaluate", "--config", cfg])
        summary = {
            line.split(",")[0]: float(line.split(",")[1])
            for line in (outdir / "summary.csv").read_text().splitlines()[1:]
        }
        for label in ("input", "pca4", "distance_ae"):
            rows = (outdir / f"eval_{label}.csv").read_text().splitlines()[1:]
            kls = [float(r.split(",")[3]) for r in rows if not r.startswith("mean")]
            assert abs(summary[label] - float(np.mean(kls))) < 1e-12


class TestCompareCommand:
    def test_five_ranked_rows(self, tmp_path, capsys):
        doc = tiny_config(tmp_path / "out")
        doc["evaluation"]["raster_indices"] = []
        cfg = write_config(tmp_path, doc)
        assert cli.main(["compare", "--config", cfg]) == 0
        ranking = (tmp_path / "out" / "ranking.csv").read_text().splitlines()
        assert ranking[0] == "rank,label,mean_kl,mean_argmax_error_m"
        assert len(ranking) == 6
        labels = {line.split(",")[1] for line in ranking[1:]}
        assert labels == {"input", "pca30", "pca10", "sparse_ae", "distance_ae"}
        # stdout lists the ranking in ranking.csv's order.
        printed = [line.split(": ")[0] for line in capsys.readouterr().out.splitlines()]
        assert printed == [f"{rank}. {label}" for rank, label, _, _ in (r.split(",") for r in ranking[1:])]

    def test_rerun_ranking_identical(self, tmp_path):
        doc = tiny_config(tmp_path / "out")
        doc["evaluation"]["raster_indices"] = []
        cfg = write_config(tmp_path, doc)
        cli.main(["compare", "--config", cfg])
        first = (tmp_path / "out" / "ranking.csv").read_bytes()
        cli.main(["compare", "--config", cfg])
        assert (tmp_path / "out" / "ranking.csv").read_bytes() == first


def test_config_validation_errors(tmp_path):
    doc = tiny_config(tmp_path / "out")
    doc["dataset"] = {}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["train", "--config", cfg]) == 1


def test_seed_override_of_non_object_config(tmp_path, capsys):
    """--seed on a config whose JSON is not an object is a config error, not a traceback."""
    cfg = write_config(tmp_path, [1])
    assert cli.main(["train", "--config", cfg, "--seed", "3"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "the config must be a JSON object, got list" in err


def identity_config(out_dir):
    doc = tiny_config(out_dir)
    doc["compressors"] = [{"kind": "identity"}]
    return doc


TRAINED_LABELS = ("input", "pca4", "distance_ae")


def trained_config(out_dir):
    """tiny_config with a 3-epoch distance_ae: the pipelines TRAINED_LABELS."""
    doc = tiny_config(out_dir)
    doc["compressors"][2]["train"]["epochs"] = 3
    return doc


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    cfg = write_config(root, trained_config(root / "out"))
    assert cli.main(["train", "--config", cfg]) == 0
    return root / "out"


def _bad_config(doc, out):
    doc["dataset"] = {}
    return "train"


def _missing_csv(doc, out):
    doc["dataset"] = {"csv": str(out / "no_such_survey.csv")}
    return "train"


def _corrupt_pipeline_json(doc, out):
    (out / "pipeline_input.json").write_text('{"format_version": 6, "hyperparams": ')
    return "evaluate"


def _edit_pipeline(label, edit):
    """Evaluate every trained pipeline after `edit` has changed the document of `label`."""
    def setup(doc, out):
        path = out / f"pipeline_{label}.json"
        pipe = json.loads(path.read_text())
        edit(pipe)
        path.write_text(json.dumps(pipe))
        doc["compressors"] = trained_config(out)["compressors"]
        return "evaluate"
    return setup


def _earlier_format(version):
    """A pipeline document as format 2 or 3 wrote it: a label, the latent stats
    and a GP holding its training locations and its solved weights W (2) or
    its targets Y (3), for an identity pipeline of the trained run's width."""
    def edit(pipe):
        d = N_APS
        rows = {"X_train": [[0.0, 0.0], [1.0, 0.0]], "W" if version == 2 else "Y": [[0.0] * d] * 2}
        pipe.update(format_version=version, label="input", latent_mean=[0.0] * d,
                    latent_std=[1.0] * d, gp={"hyperparams": pipe.pop("hyperparams"), **rows})
    return edit


def _overflowing_number(label, edit):
    """_edit_pipeline where `edit` puts the string "1e400" in place of a number,
    which the file then holds as the bare number 1e400 (a double's range ends
    near 1.8e308)."""
    def setup(doc, out):
        command = _edit_pipeline(label, edit)(doc, out)
        path = out / f"pipeline_{label}.json"
        path.write_text(path.read_text().replace('"1e400"', "1e400"))
        return command
    return setup


def _drop_last_test_column(doc, out):
    path = out / "test.csv"
    lines = [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    return "evaluate"


def _swap_first_test_columns(doc, out):
    """Swap the ap000 and ap001 columns of test.csv, header and data."""
    path = out / "test.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()]
    for cells in rows:
        cells[2], cells[3] = cells[3], cells[2]
    path.write_text("\n".join(",".join(cells) for cells in rows) + "\n")
    return "evaluate"


def _ae_model(edit):
    return lambda pipe: edit(pipe["compressor"]["model"])


def _unknown_evaluation_key(doc, out):
    doc["evaluation"]["kl_direction"] = "estimated-to-ideal"
    return "evaluate"


def _underflowing_test_row(doc, out):
    path = out / "test.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[2] = "-1e300"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return "evaluate"


def _overflowing_latents(*labels):
    """Evaluate `labels` once train.csv's ap000 column is constant and pca4
    weighs that AP by 1e200 around a mean of 0.

    Normalized, the training rows read exactly 0 on ap000, so pca4's
    training latents stay finite and its map is rebuilt as usual; but test
    point 0 reads about 1 there, so its pca4 latents are near 1e200 and
    their squared distances to the grid's means overflow.
    """
    def setup(doc, out):
        test_value = float((out / "test.csv").read_text().splitlines()[1].split(",")[2])
        path = out / "train.csv"
        rows = [line.split(",") for line in path.read_text().splitlines()]
        for cells in rows[1:]:
            cells[2] = repr(test_value / 2)  # a physical RSS that test point 0 does not read
        path.write_text("\n".join(",".join(cells) for cells in rows) + "\n")

        def weigh_ap000(pipe):
            model = pipe["compressor"]["model"]
            model["mean"][0] = 0.0
            model["components"][0] = [1e200] * len(model["components"][0])

        _edit_pipeline("pca4", weigh_ap000)(doc, out)
        by_label = dict(zip(TRAINED_LABELS, trained_config(out)["compressors"]))
        doc["compressors"] = [by_label[label] for label in labels]
        return "evaluate"
    return setup


def _tx_power_above_0_dbm(doc, out):
    doc["dataset"]["synth"]["tx_power_dbm"] = 10.0
    return "train"


def _gp_grid_value(axis, value):
    def setup(doc, out):
        doc["gp_grid"][axis] = value
        return "train"
    return setup


def _evaluation_value(key, value):
    def setup(doc, out):
        doc["evaluation"][key] = value
        return "evaluate"
    return setup


def _unknown_gp_grid_key(doc, out):
    doc["gp_grid"]["noise_variance"] = [0.5]
    return "train"


def _ae_train_value(key, value):
    def setup(doc, out):
        doc["ae_train"][key] = value
        return "train"
    return setup


def _set(*path, value, command="train"):
    """Set doc[path[0]]...[path[-1]] = value; a missing section is created."""
    def setup(doc, out):
        section = doc
        for key in path[:-1]:
            section = section.setdefault(key, {})
        section[path[-1]] = value
        return command
    return setup


def _compressors(*entries):
    def setup(doc, out):
        doc["compressors"] = list(entries)
        return "train"
    return setup


def _argv(*args):
    """Run the CLI with exactly these arguments; "{cfg}" stands for the config path."""
    def setup(doc, out):
        return list(args)
    return setup


def _autoencoder_pipeline(format_version):
    """Store an autoencoder in a pipeline file of `format_version`."""
    def setup(doc, out):
        path = out / "pipeline_input.json"
        pipe = json.loads(path.read_text())
        params = ae.init_params(12, ae.TrainConfig(latent_dim=4, hidden_dim=10))
        pipe["format_version"] = format_version
        pipe["compressor"] = {"kind": "autoencoder", "model": ae.params_to_dict(params)}
        path.write_text(json.dumps(pipe))
        return "evaluate"
    return setup


def _format_4_autoencoder(pipe):
    """An autoencoder pipeline as format 4 wrote it: its input and latent widths,
    a pair of hidden widths and (some of) the training config."""
    model = pipe["compressor"]["model"]
    h, d = np.shape(model["enc_hidden"]["weights"])
    model.update(input_dim=d, latent_dim=len(model["enc_out"]["weights"]), hidden_dims=[h, h],
                 train_config={"hidden_dim": h, "adam_beta1": 0.9, "bn_momentum": 0.9})
    pipe["format_version"] = 4


def _format_5_identity(pipe):
    """An identity pipeline as format 5 wrote it: with its input width."""
    pipe["compressor"]["input_dim"] = N_APS
    pipe["format_version"] = 5


def _config_bytes(data):
    """Run train from a config file holding the bytes `data`."""
    def setup(doc, out):
        path = out.parent / "raw.json"
        path.write_bytes(data)
        return ["train", "--config", str(path)]
    return setup


def _output_dir_is_a_file(doc, out):
    doc["output_dir"] = str(out / "train.csv")
    return "compare"


def _synth_out_is_a_directory(doc, out):
    (out / "survey").mkdir()
    return ["synth", "--config", "{cfg}", "--out", str(out / "survey")]


FAILURES = {
    "bad_config": (_bad_config, 1, "config error"),
    "tx_power_above_0_dbm": (_tx_power_above_0_dbm, 1, "tx_power_dbm"),
    "unknown_evaluation_key": (_unknown_evaluation_key, 1, "kl_direction"),
    "infinite_signal_variance": (
        _gp_grid_value("signal_variances", [float("inf")]), 1, "signal_variance must be finite"
    ),
    "nan_noise_variance": (
        _gp_grid_value("noise_variances", [0.05, float("nan")]), 1, "noise_variance must be finite"
    ),
    "infinite_length_scale": (
        _gp_grid_value("length_scales", [5, float("inf")]), 1, "length_scale must be finite"
    ),
    "empty_gp_grid_axis": (
        _gp_grid_value("length_scales", []), 1, "gp_grid.length_scales is empty"
    ),
    "unknown_gp_grid_key": (_unknown_gp_grid_key, 1, "unknown gp_grid fields: ['noise_variance']"),
    "nan_cell_size": (_evaluation_value("cell_size", float("nan")), 1, "evaluation.cell_size"),
    "nan_sigma_m": (_evaluation_value("sigma_m", float("nan")), 1, "evaluation.sigma_m"),
    "negative_margin_cells": (_evaluation_value("margin_cells", -5), 1, "evaluation.margin_cells"),
    # A grid of about 6e16 x 4e16 cells: one axis alone asks for hundreds of PiB,
    # more than 2^57 bytes and so past any address space; the allocation fails
    # before a byte is taken.
    "unallocatable_grid": (
        _evaluation_value("cell_size", 1e-15), 1, "config error: not enough memory: Unable to allocate"
    ),
    # Sizes past what numpy can index (2^63 bytes) fail before any array is made.
    "grid_past_an_array": (
        _evaluation_value("cell_size", 1e-20), 1, "config error: not enough memory: Unable to allocate the grid"
    ),
    "grid_margin_past_an_array": (
        _evaluation_value("margin_cells", 10**18), 1, "not enough memory: Unable to allocate the grid of 2e+18"
    ),
    "trajectory_past_an_array": (
        _set("dataset", "synth", "sample_spacing_m", value=1e-20), 1,
        "config error: not enough memory: Unable to allocate the trajectory",
    ),
    "area_past_an_array": (
        _set("dataset", "synth", "area", value=[1e300, 40]), 1,
        "config error: not enough memory: Unable to allocate the trajectory",
    ),
    "survey_past_an_array": (
        _set("dataset", "synth", "n_aps", value=10**18), 1,
        "config error: not enough memory: Unable to allocate the survey",
    ),
    "autoencoder_layer_past_an_array": (
        _compressors({"kind": "distance_ae", "train": {"hidden_dim": 10**18}}), 1,
        "config error: not enough memory: Unable to allocate an autoencoder layer of 1e+18 x 12 doubles",
    ),
    "nan_lambda_d": (_ae_train_value("lambda_d", float("nan")), 1, "lambda_d must be finite"),
    "negative_lambda_r": (_ae_train_value("lambda_r", -1), 1, "config error: lambda_r must be >= 0, got -1"),
    "infinite_learning_rate": (
        _ae_train_value("learning_rate", float("inf")), 1, "learning_rate must be finite"
    ),
    "adam_beta1_above_1": (_ae_train_value("adam_beta1", 1.5), 1, "unknown ae_train fields: ['adam_beta1']"),
    "zero_adam_eps": (_ae_train_value("adam_eps", 0.0), 1, "unknown ae_train fields: ['adam_eps']"),
    "distance_mode_key": (_ae_train_value("distance_mode", "squared"), 1, "distance_mode"),
    "fractional_epochs": (_ae_train_value("epochs", 2.5), 1, "epochs must be an integer"),
    "boolean_epochs": (_ae_train_value("epochs", True), 1, "epochs must be a number"),
    "boolean_lambda_d": (_ae_train_value("lambda_d", False), 1, "lambda_d must be a number"),
    "too_few_fit_rows": (
        _compressors({"kind": "sparse_ae", "train": {"batch_size": 17}}), 2,
        "16 rows are fewer than batch_size=17",
    ),
    "fractional_n_aps": (_set("dataset", "synth", "n_aps", value=2.5), 1, "synth.n_aps must be an integer"),
    "boolean_n_aps": (_set("dataset", "synth", "n_aps", value=True), 1, "synth.n_aps must be a number"),
    "zero_n_aps": (_set("dataset", "synth", "n_aps", value=0), 1, "config error: synth.n_aps must be >= 1, got 0"),
    "nan_sample_spacing": (
        _set("dataset", "synth", "sample_spacing_m", value=float("nan")), 1,
        "synth.sample_spacing_m must be finite",
    ),
    "nan_area": (_set("dataset", "synth", "area", value=[float("nan"), 40]), 1, "synth.area must be finite"),
    "infinite_shadowing_std": (
        _set("dataset", "synth", "shadowing_std_dbm", value=float("inf")), 1,
        "synth.shadowing_std_dbm must be finite",
    ),
    "fractional_pca_latent_dim": (
        _compressors({"kind": "pca", "latent_dim": 2.5}), 1, "latent_dim must be an integer"
    ),
    "negative_seed": (_set("seed", value=-1), 1, "seed must be >= 0"),
    "fractional_seed": (_set("seed", value=2.5), 1, "seed must be an integer"),
    "fractional_raster_index": (
        _set("evaluation", "raster_indices", value=[1.5], command="evaluate"), 1,
        "evaluation.raster_indices must be an integer",
    ),
    "repeated_raster_index": (
        _set("evaluation", "raster_indices", value=[3, 0, 3, 1, 0], command="evaluate"), 1,
        "evaluation.raster_indices lists [0, 3] more than once",
    ),
    "unknown_top_level_key": (_set("sede", value=3), 1, "unknown top-level fields: ['sede']"),
    "unknown_dataset_key": (_set("dataset", "cvs", value="x.csv"), 1, "unknown dataset fields: ['cvs']"),
    "unknown_split_key": (
        _set("split", "test_fracton", value=0.5), 1, "unknown split fields: ['test_fracton']"
    ),
    "unknown_compressor_key": (
        _compressors({"kind": "identity", "latnet_dim": 3}), 1, "unknown compressor fields: ['latnet_dim']"
    ),
    "ae_train_seed": (_ae_train_value("seed", 42), 1, "unknown ae_train fields: ['seed']"),
    "train_block_seed": (
        _compressors({"kind": "distance_ae", "train": {"seed": 42}}), 1, "unknown train fields: ['seed']"
    ),
    "sparse_ae_lambda_d": (
        _compressors({"kind": "sparse_ae", "train": {"lambda_d": 0.1}}), 1, "sparse_ae takes no lambda_d"
    ),
    "duplicate_label": (
        _compressors({"kind": "identity", "label": "input"},
                     {"kind": "pca", "latent_dim": 3, "label": "input"}),
        1, "duplicate compressor labels: ['input']",
    ),
    "unsafe_label": (
        _compressors({"kind": "identity", "label": "a,b"}), 1, "compressor label must match"
    ),
    "missing_config_option": (_argv("train"), 1, "the following arguments are required: --config"),
    "non_integer_seed_option": (
        _argv("train", "--config", "{cfg}", "--seed", "abc"), 1, "argument --seed: invalid int value"
    ),
    "unknown_subcommand": (_argv("frobnicate", "--config", "{cfg}"), 1, "invalid choice: 'frobnicate'"),
    "config_is_a_directory": (lambda doc, out: ["train", "--config", str(out)], 1, "/out: Is a directory"),
    "config_not_utf8": (
        _config_bytes(b'{"seed": 3, "output_dir": "\xff"}'), 1,
        "raw.json: 'utf-8' codec can't decode byte 0xff",
    ),
    "config_not_an_object": (
        _config_bytes(b"[1, 2]"), 1, "raw.json: the config must be a JSON object, got list",
    ),
    "empty_output_dir": (_set("output_dir", value=""), 2, "cannot create output directory ''"),
    "evaluate_empty_output_dir": (
        _set("output_dir", value="", command="evaluate"), 2,
        "output directory '' is not an existing directory; run train first",
    ),
    "output_dir_is_a_file": (_output_dir_is_a_file, 2, "train.csv': File exists"),
    "synth_out_is_a_directory": (_synth_out_is_a_directory, 2, "survey: Is a directory"),
    "missing_csv": (_missing_csv, 2, "no_such_survey.csv"),
    "corrupt_pipeline_json": (_corrupt_pipeline_json, 2, "pipeline_input.json"),
    "v1_pipeline": (
        _edit_pipeline("input", lambda p: p.update(format_version=1)), 2,
        "pipeline_input.json: unsupported pipeline format_version 1 (expected 6; rerun train",
    ),
    "v1_autoencoder_pipeline": (
        _autoencoder_pipeline(1), 2,
        "pipeline_input.json: unsupported pipeline format_version 1 (expected 6; rerun train",
    ),
    "v2_pipeline": (
        _edit_pipeline("input", _earlier_format(2)), 2,
        "pipeline_input.json: unsupported pipeline format_version 2 (expected 6; rerun train",
    ),
    "v3_pipeline": (
        _edit_pipeline("input", _earlier_format(3)), 2,
        "pipeline_input.json: unsupported pipeline format_version 3 (expected 6; rerun train",
    ),
    "v4_autoencoder_pipeline": (
        _edit_pipeline("distance_ae", _format_4_autoencoder), 2,
        "pipeline_distance_ae.json: unsupported pipeline format_version 4 (expected 6; rerun train",
    ),
    "v5_pipeline": (
        _edit_pipeline("input", _format_5_identity), 2,
        "pipeline_input.json: unsupported pipeline format_version 5 (expected 6; rerun train",
    ),
    "nonpositive_length_scale": (
        _edit_pipeline("input", lambda p: p["hyperparams"].update(length_scale=0.0)), 2,
        "pipeline_input.json: length_scale must be >= 1e-150",
    ),
    "pca_mean_short": (
        _edit_pipeline("pca4", lambda p: p["compressor"]["model"]["mean"].pop()), 2,
        "pipeline_pca4.json: PCA mean, components, eigenvalues have shapes",
    ),
    "pca_eigenvalues_short": (
        _edit_pipeline("pca4", lambda p: p["compressor"]["model"]["eigenvalues"].pop()), 2,
        "pipeline_pca4.json: PCA mean, components, eigenvalues have shapes",
    ),
    "ae_biases_short": (
        _edit_pipeline("distance_ae", _ae_model(lambda m: m["enc_hidden"]["biases"].pop())), 2,
        "pipeline_distance_ae.json: enc_hidden.biases has shape",
    ),
    "ae_bn_running_var_short": (
        _edit_pipeline("distance_ae", _ae_model(lambda m: m["dec_hidden"]["bn_running_var"].pop())), 2,
        "pipeline_distance_ae.json: dec_hidden.bn_running_var has shape",
    ),
    "ae_hidden_layer_without_batchnorm": (
        _edit_pipeline("distance_ae", _ae_model(lambda m: m.update(enc_hidden={
            key: m["enc_hidden"][key] for key in ("weights", "biases")
        }))), 2, "pipeline_distance_ae.json: enc_hidden.bn_gamma has shape None",
    ),
    "ae_hidden_dim_disagrees": (
        _edit_pipeline("distance_ae", _ae_model(lambda m: [row.pop() for row in m["dec_hidden"]["weights"]])),
        2, "pipeline_distance_ae.json: dec_hidden.weights has shape (10, 3), expected (10, 4)",
    ),
    "ae_weights_not_a_matrix": (
        _edit_pipeline("distance_ae", _ae_model(lambda m: m["enc_hidden"].update(weights=m["enc_hidden"]["weights"][0]))),
        2, "pipeline_distance_ae.json: enc_hidden.weights has shape (12,), expected a matrix",
    ),
    "ae_head_weights_a_number": (
        _edit_pipeline("distance_ae", _ae_model(lambda m: m["enc_out"].update(weights=0.5))),
        2, "pipeline_distance_ae.json: enc_out.weights has shape (), expected a matrix",
    ),
    "test_csv_missing_ap": (_drop_last_test_column, 2, "test.csv does not fit"),
    "test_csv_aps_reordered": (
        _swap_first_test_columns, 2,
        "train.csv: AP column 0 is 'ap001' in the test file and 'ap000' in the train file",
    ),
    "nan_in_pca_components": (
        _edit_pipeline("pca4", lambda p: p["compressor"]["model"]["components"][0].__setitem__(0, float("nan"))),
        2, "pipeline_pca4.json: non-finite number NaN",
    ),
    "nan_in_ae_weights": (
        _edit_pipeline("distance_ae", _ae_model(lambda m: m["enc_hidden"]["weights"][0].__setitem__(0, float("nan")))),
        2, "pipeline_distance_ae.json: non-finite number NaN",
    ),
    "infinity_in_pca_mean": (
        _edit_pipeline("pca4", lambda p: p["compressor"]["model"]["mean"].__setitem__(0, float("inf"))), 2,
        "pipeline_pca4.json: non-finite number Infinity",
    ),
    "overflow_in_pca_components": (
        _overflowing_number("pca4", lambda p: p["compressor"]["model"]["components"][0].__setitem__(0, "1e400")),
        2, "pipeline_pca4.json: number 1e400 overflows a double",
    ),
    "overflow_in_ae_biases": (
        _overflowing_number("distance_ae", _ae_model(lambda m: m["enc_hidden"]["biases"].__setitem__(0, "1e400"))),
        2, "pipeline_distance_ae.json: number 1e400 overflows a double",
    ),
    "huge_int_in_ae_weights": (
        _edit_pipeline("distance_ae", _ae_model(lambda m: m["enc_hidden"]["weights"][0].__setitem__(0, 10**400))),
        2, "pipeline_distance_ae.json: corrupt or unreadable artifact",
    ),
    "underflowing_test_row": (_underflowing_test_row, 2, "not physical"),
    "overflowing_latent_std": (_overflowing_latents("pca4"), 3, "pipeline pca4: test point 0"),
    "overflowing_latent_std_of_a_later_pipeline": (
        _overflowing_latents(*TRAINED_LABELS), 3, "numerical failure: pipeline pca4: test point 0: ",
    ),
}


@pytest.mark.parametrize("case", list(FAILURES))
def test_failure_contract(case, tmp_path, trained_run, capsys):
    """Each failure class maps to its exit code with one stderr line and no partial file."""
    setup, code, fragment = FAILURES[case]
    out = tmp_path / "out"
    shutil.copytree(trained_run, out)
    doc = identity_config(out)
    command = setup(doc, out)
    cfg = write_config(tmp_path, doc)
    if isinstance(command, str):
        argv = [command, "--config", cfg]
    else:
        argv = [arg.format(cfg=cfg) for arg in command]
    capsys.readouterr()
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert fragment in err
    assert not list(out.glob("*.tmp"))
    assert not list(out.glob("eval_*.csv")) and not (out / "summary.csv").exists()


def test_stored_pipeline_holds_no_width(trained_run):
    """A stored autoencoder is its four layers and an identity compressor only its
    kind: every width is read from the weights or from train.csv."""
    model = json.loads((trained_run / "pipeline_distance_ae.json").read_text())["compressor"]["model"]
    assert list(model) == ["enc_hidden", "enc_out", "dec_hidden", "dec_out"]
    assert np.shape(model["enc_hidden"]["weights"]) == (10, N_APS)
    assert np.shape(model["enc_out"]["weights"]) == (4, 10)
    identity = json.loads((trained_run / "pipeline_input.json").read_text())["compressor"]
    assert identity == {"kind": "identity"}


def test_unfactorable_map_loads_and_fails_in_evaluate(tmp_path, trained_run, monkeypatch, capsys):
    """A pipeline file is read without factoring its map; a map whose Gram
    matrix cannot be factored fails where the grid precompute makes the
    factor, with exit 3, one stderr line and no eval or summary file."""
    out = tmp_path / "out"
    shutil.copytree(trained_run, out)

    def refuse(K, hp):
        raise GpFitError("covariance matrix is not positive definite")

    monkeypatch.setattr(gp_map, "_cholesky_with_jitter", refuse)
    train, _ = dsm.normalize(dsm.load_csv(out / "train.csv"))
    pipe = ex._load_artifact(
        str(out / "pipeline_input.json"), lambda doc: ex.pipeline_from_dict(doc, "input", train)
    )
    assert pipe.gp.n > 0
    cfg = ex.config_from_dict(identity_config(out))
    with pytest.raises(GpFitError, match="not positive definite"):
        ex.run_evaluate(cfg)
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", write_config(tmp_path, identity_config(out))]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == ["numerical failure: pipeline input: covariance matrix is not positive definite"]
    assert not list(out.glob("eval_*.csv")) and not (out / "summary.csv").exists()


def _module_env():
    """Environment in which `python -m rss_atlas.cli` imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_overflow_exit_prints_one_stderr_line(tmp_path, trained_run):
    """Outside pytest's capture numpy would print its overflow warning before the error."""
    out = tmp_path / "out"
    shutil.copytree(trained_run, out)
    doc = identity_config(out)
    _overflowing_latents("pca4")(doc, out)
    cfg = write_config(tmp_path, doc)
    proc = subprocess.run(
        [sys.executable, "-m", "rss_atlas.cli", "evaluate", "--config", cfg],
        capture_output=True, text=True, env=_module_env(), timeout=120,
    )
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1
    assert "test point 0" in proc.stderr


def test_divergence_exit_prints_one_stderr_line(tmp_path):
    """A diverging autoencoder exits 3 with the error line and no numpy warning."""
    doc = tiny_config(tmp_path / "out")
    doc["ae_train"]["learning_rate"] = 1e160
    doc["ae_train"]["epochs"] = 3
    cfg = write_config(tmp_path, doc)
    proc = subprocess.run(
        [sys.executable, "-m", "rss_atlas.cli", "compare", "--config", cfg],
        capture_output=True, text=True, env=_module_env(), timeout=300,
    )
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1
    assert "non-finite training loss at epoch" in proc.stderr


def test_module_entry_point_prints_no_warning():
    """`python -m rss_atlas.cli` runs without runpy's double-import warning."""
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "rss_atlas.cli", "--help"],
        capture_output=True, text=True, env=_module_env(), timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "compare" in proc.stdout


def a8_config(out_dir, compressors):
    """A8's survey, GP grid, evaluation and ae_train settings (tests/test_acceptance.py)."""
    return {
        "seed": 5,
        "output_dir": str(out_dir),
        "dataset": {"synth": {"area": [60, 40], "n_aps": 12, "shadowing_std_dbm": 3.0,
                              "shadowing_correlation_length_m": 1.0, "sample_spacing_m": 2.0}},
        "split": {"test_fraction": 0.25, "mode": "random"},
        "gp_grid": {"length_scales": [5, 10], "signal_variances": [0.5, 1.0], "noise_variances": [0.05, 0.1]},
        "evaluation": {"cell_size": 2.0, "sigma_m": 10.0},
        "ae_train": {"latent_dim": 4, "hidden_dim": 10, "epochs": 40, "batch_size": 16},
        "compressors": compressors,
    }


def _extreme_rows():
    """(config path, value) for every config number at its extremes.

    The numeric fields of each config dataclass, read with fields(): a
    float at 1e-300 and 1e300, and at -1e300 where it has no lower bound;
    an int at 10**18. A GP hyperparameter is set as a one-value gp_grid axis.
    """
    sections = [
        (("dataset", "synth"), dsm.SynthEnvConfig, ""),
        (("evaluation",), ex.EvaluationSpec, ""),
        (("gp_grid",), gp_map.GpHyperparams, "s"),
        (("ae_train",), ae.TrainConfig, ""),
    ]
    rows = []
    for path, cls, suffix in sections:
        for f in dataclasses.fields(cls):
            if f.type == "int" and f.name != "seed":  # no train section sets a seed
                rows.append((path + (f.name + suffix,), 10**18))
            elif f.type == "float":
                values = [1e-300, 1e300] + ([] if {"gt", "ge"} & set(f.metadata) else [-1e300])
                rows += [(path + (f.name + suffix,), value) for value in values]
    rows += [(("seed",), 10**18), (("split", "test_fraction"), 1e-300), (("split", "test_fraction"), 1e300)]
    return [pytest.param(path, value, id=f"{'.'.join(path[-2:])}={value}") for path, value in rows]


@pytest.mark.parametrize("path,value", _extreme_rows())
def test_config_number_at_an_extreme(path, value, tmp_path, capsys):
    """train then evaluate exit 0-3 with at most one stderr line and leave no
    non-finite CSV cell, whatever number a config field holds."""
    out = tmp_path / "out"
    doc = a8_config(out, [{"kind": "distance_ae"}] if path[0] == "ae_train" else [{"kind": "identity"}])
    section = doc
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = [value] if path[0] == "gp_grid" else value
    cfg = write_config(tmp_path, doc)
    for command in ("train", "evaluate"):
        capsys.readouterr()
        code = cli.main([command, "--config", cfg])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3) and len(err.splitlines()) <= 1, err
        assert "Traceback" not in err
        if code:
            break
    for csv in out.glob("*.csv"):
        for line in csv.read_text().splitlines()[1:]:
            for cell in line.split(","):
                try:
                    number = float(cell)
                except ValueError:
                    continue
                assert np.isfinite(number), f"{csv.name}: {line}"
