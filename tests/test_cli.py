import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rss_atlas import cli
from rss_atlas import dataset as dsm
from rss_atlas import experiment as ex
from rss_atlas import localization as loc


def tiny_config(out_dir, seed=3):
    """Small, fast experiment: 12 APs, short trajectory, few epochs."""
    return {
        "seed": seed,
        "output_dir": str(out_dir),
        "dataset": {
            "synth": {
                "area": [60, 40],
                "n_aps": 12,
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
        assert (outdir / "norm_stats.json").exists()
        assert (outdir / "manifest.json").exists()

    def test_ae_training_writes_report(self, tmp_path):
        doc = tiny_config(tmp_path / "out")
        cfg = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", cfg]) == 0
        outdir = tmp_path / "out"
        report = (outdir / "train_report_distance_ae.csv").read_text().splitlines()
        assert report[0] == "epoch,reconstruction,sparsity,distance"
        assert len(report) == 61
        summary = (outdir / "training_summary.csv").read_text()
        assert "distance_ae" in summary

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

        train = dsm.load_csv(outdir / "train.csv")
        test = dsm.apply_normalization(dsm.load_csv(outdir / "test.csv"), dsm.normalize(train)[1])
        grid = loc.Grid.cover(np.vstack([train.X, test.X]), 2.0, 2)
        expected = tmp_path / "expected.pgm"
        for label in built:
            pipe = ex.pipeline_from_dict(json.loads((outdir / f"pipeline_{label}.json").read_text()))
            builder = loc.FieldBuilder(pipe, grid)
            for idx in (0, 3):
                loc.save_field_pgm(builder.field_for(test.Z[idx]), expected)
                assert (outdir / f"field_{label}_{idx:04d}.pgm").read_bytes() == expected.read_bytes()

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
    def test_five_ranked_rows(self, tmp_path):
        doc = tiny_config(tmp_path / "out")
        doc["evaluation"]["raster_indices"] = []
        cfg = write_config(tmp_path, doc)
        assert cli.main(["compare", "--config", cfg]) == 0
        ranking = (tmp_path / "out" / "ranking.csv").read_text().splitlines()
        assert ranking[0] == "rank,label,mean_kl,mean_argmax_error_m"
        assert len(ranking) == 6
        labels = {line.split(",")[1] for line in ranking[1:]}
        assert labels == {"input", "pca30", "pca10", "sparse_ae", "distance_ae"}

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


def identity_config(out_dir):
    doc = tiny_config(out_dir)
    doc["compressors"] = [{"kind": "identity"}]
    return doc


@pytest.fixture(scope="module")
def trained_identity(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    cfg = write_config(root, identity_config(root / "out"))
    assert cli.main(["train", "--config", cfg]) == 0
    return root / "out"


def _bad_config(doc, out):
    doc["dataset"] = {}
    return "train"


def _missing_csv(doc, out):
    doc["dataset"] = {"csv": str(out / "no_such_survey.csv")}
    return "train"


def _corrupt_pipeline_json(doc, out):
    (out / "pipeline_input.json").write_text('{"format_version": 1, "gp": ')
    return "evaluate"


def _v1_pipeline(doc, out):
    path = out / "pipeline_input.json"
    pipe = json.loads(path.read_text())
    pipe["gp"]["format_version"] = 1
    path.write_text(json.dumps(pipe))
    return "evaluate"


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


def _overflowing_latent_std(doc, out):
    path = out / "pipeline_input.json"
    pipe = json.loads(path.read_text())
    pipe["latent_std"] = [1e-300] * len(pipe["latent_std"])
    path.write_text(json.dumps(pipe))
    return "evaluate"


def _tx_power_above_0_dbm(doc, out):
    doc["dataset"]["synth"]["tx_power_dbm"] = 10.0
    return "train"


FAILURES = {
    "bad_config": (_bad_config, 1, "config error"),
    "tx_power_above_0_dbm": (_tx_power_above_0_dbm, 1, "tx_power_dbm"),
    "unknown_evaluation_key": (_unknown_evaluation_key, 1, "kl_direction"),
    "missing_csv": (_missing_csv, 2, "no_such_survey.csv"),
    "corrupt_pipeline_json": (_corrupt_pipeline_json, 2, "pipeline_input.json"),
    "v1_pipeline": (_v1_pipeline, 2, "format_version"),
    "underflowing_test_row": (_underflowing_test_row, 2, "not physical"),
    "overflowing_latent_std": (_overflowing_latent_std, 3, "test point 0"),
}


@pytest.mark.parametrize("case", list(FAILURES))
def test_failure_contract(case, tmp_path, trained_identity, capsys):
    """Each failure class maps to its exit code with one stderr line and no partial file."""
    setup, code, fragment = FAILURES[case]
    out = tmp_path / "out"
    shutil.copytree(trained_identity, out)
    doc = identity_config(out)
    command = setup(doc, out)
    cfg = write_config(tmp_path, doc)
    capsys.readouterr()
    assert cli.main([command, "--config", cfg]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert fragment in err
    assert not list(out.glob("*.tmp"))


def _module_env():
    """Environment in which `python -m rss_atlas.cli` imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_overflow_exit_prints_one_stderr_line(tmp_path, trained_identity):
    """Outside pytest's capture numpy would print its overflow warning before the error."""
    out = tmp_path / "out"
    shutil.copytree(trained_identity, out)
    _overflowing_latent_std(None, out)
    cfg = write_config(tmp_path, identity_config(out))
    proc = subprocess.run(
        [sys.executable, "-m", "rss_atlas.cli", "evaluate", "--config", cfg],
        capture_output=True, text=True, env=_module_env(), timeout=120,
    )
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1
    assert "test point 0" in proc.stderr


def test_module_entry_point_prints_no_warning():
    """`python -m rss_atlas.cli` runs without runpy's double-import warning."""
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "rss_atlas.cli", "--help"],
        capture_output=True, text=True, env=_module_env(), timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "compare" in proc.stdout
