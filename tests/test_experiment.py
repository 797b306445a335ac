import copy
import dataclasses
import functools
import json
import math
import operator
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rss_atlas import autoencoder as ae
from rss_atlas import dataset as dsm
from rss_atlas import experiment as ex
from rss_atlas import gp_map, localization as loc, pca
from rss_atlas.errors import ConfigError, DataError, NumericalError, RssAtlasError


@pytest.fixture(scope="module")
def train_norm(small_survey_normalized):
    return small_survey_normalized[0]


KINDS = ["identity", "pca", "autoencoder"]


@pytest.fixture(scope="module")
def small_norm(train_norm):
    """The first 60 rows of the normalized survey."""
    return dsm.SurveyDataset(
        X=train_norm.X[:60], Z=train_norm.Z[:60], ap_ids=train_norm.ap_ids, normalized=True
    )


@pytest.fixture(scope="module")
def pipeline_docs(small_norm):
    """A trained pipeline document of each compressor kind, as train writes it."""
    cfg = ae.TrainConfig(latent_dim=4, hidden_dim=8, epochs=3, batch_size=16, seed=2)
    comps = {
        "identity": loc.IdentityCompressor(small_norm.m),
        "pca": loc.PcaCompressor(pca.fit(small_norm.Z, 4)),
        "autoencoder": loc.AutoencoderCompressor(ae.train(small_norm, cfg)[0]),
    }
    grid = [gp_map.GpHyperparams(1.0, 10.0, 0.05)]
    return {
        kind: json.loads(json.dumps(ex.pipeline_to_dict(ex.build_pipeline(kind, comp, small_norm, grid))))
        for kind, comp in comps.items()
    }


class TestConfigParsing:
    def test_minimal_synth_config(self):
        cfg = ex.config_from_dict(
            {"seed": 1, "output_dir": "out", "dataset": {"synth": {"n_aps": 5}}}
        )
        assert cfg.synth.n_aps == 5
        assert len(cfg.gp_grid) == 45  # default 5 x 3 x 3 grid

    def test_area_without_waypoints_gets_serpentine(self):
        cfg = ex.config_from_dict(
            {"seed": 1, "output_dir": "o", "dataset": {"synth": {"area": [100, 60]}}}
        )
        assert len(cfg.synth.waypoints) >= 4

    def test_both_sources_rejected(self):
        with pytest.raises(ConfigError):
            ex.config_from_dict(
                {"seed": 1, "output_dir": "o",
                 "dataset": {"synth": {}, "csv": "x.csv"}}
            )

    def test_no_source_rejected(self):
        with pytest.raises(ConfigError):
            ex.config_from_dict({"seed": 1, "output_dir": "o", "dataset": {}})

    def test_unknown_compressor_kind(self):
        with pytest.raises(ConfigError):
            ex.config_from_dict(
                {"seed": 1, "output_dir": "o", "dataset": {"synth": {}},
                 "compressors": [{"kind": "umap"}]}
            )

    def test_unknown_synth_field(self):
        with pytest.raises(ConfigError, match="unknown synth"):
            ex.config_from_dict(
                {"seed": 1, "output_dir": "o", "dataset": {"synth": {"n_access": 3}}}
            )

    @pytest.mark.parametrize("key", ["kl_direction", "cell_sise"])
    def test_unknown_evaluation_field(self, key):
        with pytest.raises(ConfigError, match=f"unknown evaluation fields: \\['{key}'\\]"):
            ex.config_from_dict(
                {"seed": 1, "output_dir": "o", "dataset": {"synth": {}},
                 "evaluation": {"cell_size": 2.0, key: "estimated-to-ideal"}}
            )

    @pytest.mark.parametrize("axis", ["length_scales", "signal_variances", "noise_variances"])
    def test_empty_gp_grid_axis(self, axis):
        grid = {"length_scales": [5], "signal_variances": [1.0], "noise_variances": [0.1], axis: []}
        with pytest.raises(ConfigError, match=f"gp_grid.{axis} is empty"):
            ex.config_from_dict(
                {"seed": 1, "output_dir": "o", "dataset": {"synth": {}}, "gp_grid": grid}
            )

    def test_unknown_gp_grid_field(self):
        grid = {"length_scales": [5], "signal_variances": [1.0], "noise_variances": [0.1],
                "noise_variance": [0.5]}
        with pytest.raises(ConfigError, match="unknown gp_grid fields: \\['noise_variance'\\]"):
            ex.config_from_dict(
                {"seed": 1, "output_dir": "o", "dataset": {"synth": {}}, "gp_grid": grid}
            )

    @pytest.mark.parametrize("key,value", [
        ("cell_size", math.nan), ("cell_size", math.inf), ("cell_size", 0.0),
        ("sigma_m", math.nan), ("sigma_m", -1.0), ("margin_cells", -5),
    ])
    def test_evaluation_values_checked(self, key, value):
        with pytest.raises(ConfigError, match=f"evaluation.{key} must be"):
            ex.config_from_dict(
                {"seed": 1, "output_dir": "o", "dataset": {"synth": {}},
                 "evaluation": {key: value}}
            )

    def test_malformed_values_become_config_errors(self):
        with pytest.raises(ConfigError):
            ex.config_from_dict(
                {"seed": 1, "output_dir": "o", "dataset": {"synth": {}},
                 "gp_grid": {"length_scales": [5]}}
            )

    def test_missing_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            ex.config_from_dict({"output_dir": "o", "dataset": {"synth": {}}})


# Values for the fields that have no default; every other field keeps its default.
_REQUIRED = {
    gp_map.GpHyperparams: {"signal_variance": 1.0, "length_scale": 1.0},
    ex.ExperimentConfig: {"seed": 0, "output_dir": "o", "csv_path": "s.csv"},
}
# (class, field, rejected value, accepted value, message): one row per bound.
# The accepted value is the bound itself where the bound is closed.
_BOUND_ROWS = [
    (gp_map.GpHyperparams, "signal_variance", 0.0, 1e-12, "signal_variance must be > 0, got 0.0"),
    (gp_map.GpHyperparams, "length_scale", 0.0, 1e-150, "length_scale must be >= 1e-150, got 0.0"),
    (gp_map.GpHyperparams, "length_scale", 1.01e150, 1e150, "length_scale must be <= 1e+150, got 1.01e+150"),
    (gp_map.GpHyperparams, "noise_variance", -1e-12, 0.0, "noise_variance must be >= 0, got -1e-12"),
    (ae.TrainConfig, "latent_dim", 0, 1, "latent_dim must be >= 1, got 0"),
    (ae.TrainConfig, "hidden_dim", 0, 1, "hidden_dim must be >= 1, got 0"),
    (ae.TrainConfig, "lambda_r", -1, 0.0, "lambda_r must be >= 0, got -1"),
    (ae.TrainConfig, "lambda_d", -1e-12, 0.0, "lambda_d must be >= 0, got -1e-12"),
    (ae.TrainConfig, "batch_size", 1, 2, "batch_size must be >= 2, got 1"),
    (ae.TrainConfig, "epochs", -1, 0, "epochs must be >= 0, got -1"),
    (ae.TrainConfig, "epochs", 1_000_001, 1_000_000, "epochs must be <= 1e+06, got 1000001"),
    (ae.TrainConfig, "learning_rate", 0.0, 1e-12, "learning_rate must be > 0, got 0.0"),
    (ae.TrainConfig, "dropout_rate", -1e-12, 0.0, "dropout_rate must be >= 0, got -1e-12"),
    (ae.TrainConfig, "dropout_rate", 1.0, 0.999, "dropout_rate must be < 1, got 1.0"),
    (ae.TrainConfig, "seed", -1, 0, "seed must be >= 0, got -1"),
    (dsm.SynthEnvConfig, "n_aps", 0, 1, "synth.n_aps must be >= 1, got 0"),
    (dsm.SynthEnvConfig, "tx_power_dbm", 1e-12, 0.0, "synth.tx_power_dbm must be <= 0, got 1e-12"),
    (dsm.SynthEnvConfig, "path_loss_exponent", 1.499, 1.5, "synth.path_loss_exponent must be >= 1.5, got 1.499"),
    (dsm.SynthEnvConfig, "path_loss_exponent", 6.001, 6.0, "synth.path_loss_exponent must be <= 6, got 6.001"),
    (dsm.SynthEnvConfig, "reference_distance_m", 0.0, 1e-12, "synth.reference_distance_m must be > 0, got 0.0"),
    (dsm.SynthEnvConfig, "shadowing_std_dbm", -1e-12, 0.0, "synth.shadowing_std_dbm must be >= 0, got -1e-12"),
    (dsm.SynthEnvConfig, "shadowing_correlation_length_m", 0.0, 1e-150,
     "synth.shadowing_correlation_length_m must be >= 1e-150, got 0.0"),
    (dsm.SynthEnvConfig, "shadowing_correlation_length_m", 1.01e150, 1e150,
     "synth.shadowing_correlation_length_m must be <= 1e+150, got 1.01e+150"),
    (dsm.SynthEnvConfig, "floor_dbm", -174.001, -174.0, "synth.floor_dbm must be >= -174, got -174.001"),
    (dsm.SynthEnvConfig, "sample_spacing_m", 0.0, 1e-12, "synth.sample_spacing_m must be > 0, got 0.0"),
    (ex.EvaluationSpec, "cell_size", 0.0, 1e-150, "evaluation.cell_size must be >= 1e-150, got 0.0"),
    (ex.EvaluationSpec, "cell_size", 1.01e150, 1e150, "evaluation.cell_size must be <= 1e+150, got 1.01e+150"),
    (ex.EvaluationSpec, "sigma_m", 0.0, 1e-150, "evaluation.sigma_m must be >= 1e-150, got 0.0"),
    (ex.EvaluationSpec, "sigma_m", 1.01e150, 1e150, "evaluation.sigma_m must be <= 1e+150, got 1.01e+150"),
    (ex.EvaluationSpec, "margin_cells", -1, 0, "evaluation.margin_cells must be >= 0, got -1"),
    (ex.ExperimentConfig, "seed", -1, 0, "seed must be >= 0, got -1"),
    (ex.ExperimentConfig, "test_fraction", 0.0, 1e-12, "test_fraction must be > 0, got 0.0"),
    (ex.ExperimentConfig, "test_fraction", 1.0, 0.999, "test_fraction must be < 1, got 1.0"),
]


class TestBounds:
    @pytest.mark.parametrize("cls,name,rejected,accepted,message", _BOUND_ROWS,
                             ids=[f"{row[0].__name__}.{row[1]}={row[2]}" for row in _BOUND_ROWS])
    def test_bound(self, cls, name, rejected, accepted, message):
        with pytest.raises(ConfigError) as info:
            cls(**{**_REQUIRED.get(cls, {}), name: rejected})
        assert str(info.value) == message
        assert getattr(cls(**{**_REQUIRED.get(cls, {}), name: accepted}), name) == accepted

    @pytest.mark.parametrize("cls", [gp_map.GpHyperparams, ae.TrainConfig, dsm.SynthEnvConfig,
                                     ex.EvaluationSpec, ex.ExperimentConfig], ids=lambda cls: cls.__name__)
    def test_every_number_declares_its_bounds(self, cls):
        """A numeric config field states its range on itself, and each bound has a row above."""
        for f in dataclasses.fields(cls):
            if f.type in ("int", "float"):
                rows = [row for row in _BOUND_ROWS if row[:2] == (cls, f.name)]
                assert f.metadata, f"{cls.__name__}.{f.name} declares no bound"
                assert len(rows) == len(f.metadata), f"{cls.__name__}.{f.name}"


README = Path(__file__).resolve().parents[1] / "README.md"


class TestReadme:
    def test_minimal_config_parses(self):
        """The README's "Minimal config" block is a config the parser accepts."""
        readme = README.read_text(encoding="utf-8")
        block = readme.split("Minimal config:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
        cfg = ex.config_from_dict(json.loads(block))
        assert [spec.label for spec in cfg.compressors] == ["input", "pca10", "distance_ae"]

    def test_format_version_matches(self):
        """The README names the pipeline format version the code writes."""
        found = re.findall(r"`format_version` \((\d+)\)", README.read_text(encoding="utf-8"))
        assert found == [str(ex.PIPELINE_FORMAT_VERSION)]


class TestTrainResolution:
    @staticmethod
    def _parse(compressors, ae_train=None, seed=7):
        doc = {"seed": seed, "output_dir": "o", "dataset": {"synth": {}}, "compressors": compressors}
        if ae_train is not None:
            doc["ae_train"] = ae_train
        return ex.config_from_dict(doc)

    def test_train_block_overrides_ae_train_key_by_key(self):
        cfg = self._parse([{"kind": "distance_ae", "train": {"latent_dim": 5}}], {"epochs": 300})
        train = cfg.compressors[0].train
        assert (train.epochs, train.latent_dim) == (300, 5)
        assert train.hidden_dim == ae.TrainConfig().hidden_dim

    def test_sparse_ae_with_train_block_has_no_distance_term(self):
        cfg = self._parse([{"kind": "sparse_ae", "train": {"epochs": 10}}])
        assert cfg.compressors[0].train.lambda_d == 0.0
        assert cfg.compressors[0].train.epochs == 10

    @pytest.mark.parametrize("train", [{}, {"epochs": 5}])
    def test_parser_and_compare_resolve_alike(self, train):
        """One rule: a train block only replaces its own keys of what compare trains."""
        entries = [{"kind": kind, "train": train} for kind in ("sparse_ae", "distance_ae")]
        cfg = self._parse(entries, {"epochs": 5, "latent_dim": 3})
        compare = ex.default_compare_compressors(cfg)[3:]
        assert [spec.train for spec in cfg.compressors] == [spec.train for spec in compare]
        assert [spec.train.seed for spec in compare] == [9, 10]


class TestCompareSpecs:
    def test_standard_five_labels(self):
        cfg = ex.config_from_dict(
            {"seed": 4, "output_dir": "o", "dataset": {"synth": {}}}
        )
        specs = ex.default_compare_compressors(cfg)
        assert [s.label for s in specs] == [
            "input", "pca30", "pca10", "sparse_ae", "distance_ae",
        ]
        sparse = specs[3].train
        assert sparse.lambda_d == 0.0
        assert specs[4].train.lambda_d == cfg.ae_train.lambda_d


def assert_same_map(got, want):
    """Two pipelines hold the same map bit for bit: training rows, targets,
    latent stats and hyperparameters."""
    assert np.array_equal(got.gp.X_train, want.gp.X_train)
    assert np.array_equal(got.gp.Y, want.gp.Y)
    assert np.array_equal(got.latent_mean, want.latent_mean)
    assert np.array_equal(got.latent_std, want.latent_std)
    assert got.gp.hyperparams == want.gp.hyperparams


class TestPipelineSerialization:
    @pytest.mark.parametrize("kind", ["identity", "pca", "autoencoder"])
    def test_roundtrip(self, kind, train_norm):
        if kind == "identity":
            comp = loc.IdentityCompressor(train_norm.m)
        elif kind == "pca":
            comp = loc.PcaCompressor(pca.fit(train_norm.Z, 4))
        else:
            cfg = ae.TrainConfig(latent_dim=4, hidden_dim=8, epochs=3, batch_size=16, seed=2)
            params, _ = ae.train(train_norm, cfg)
            comp = loc.AutoencoderCompressor(params)
        grid = [gp_map.GpHyperparams(1.0, 10.0, 0.05)]
        pipe = ex.build_pipeline("p", comp, train_norm, grid)
        doc = json.loads(json.dumps(ex.pipeline_to_dict(pipe)))
        back = ex.pipeline_from_dict(doc, "p", train_norm)
        assert back.label == "p"
        z = train_norm.Z[:3]
        assert np.array_equal(back.encode(z), pipe.encode(z))
        assert_same_map(back, pipe)

    def test_version_check(self, train_norm):
        with pytest.raises(DataError, match="format_version"):
            ex.pipeline_from_dict({"format_version": 0}, "p", train_norm)

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_format_version(self, kind, pipeline_docs):
        """The pipeline document carries the file's only format version, the
        hyperparameters and the compressor, and no training data."""
        doc = pipeline_docs[kind]
        assert doc["format_version"] == ex.PIPELINE_FORMAT_VERSION == 6
        assert json.dumps(doc).count("format_version") == 1
        assert list(doc) == ["format_version", "hyperparams", "compressor"]
        assert set(doc["hyperparams"]) == {"signal_variance", "length_scale", "noise_variance"}

    @pytest.mark.parametrize("kind", KINDS)
    def test_earlier_format_rejected(self, kind, pipeline_docs, small_norm):
        """A format 3 file, which also stored a label, the latent stats and the
        GP's training rows, says to rerun train."""
        doc = copy.deepcopy(pipeline_docs[kind])
        d = 4 if kind != "identity" else small_norm.m
        doc.update(format_version=3, label=kind, latent_mean=[0.0] * d, latent_std=[1.0] * d)
        doc["gp"] = {"hyperparams": doc.pop("hyperparams"), "X_train": small_norm.X.tolist(),
                     "Y": [[0.0] * d] * small_norm.n}
        with pytest.raises(DataError, match=r"format_version 3 \(expected 6; rerun train"):
            ex.pipeline_from_dict(doc, kind, small_norm)


class TestAtomicWrite:
    def test_missing_directory_leaves_nothing(self, tmp_path):
        target = tmp_path / "no" / "such" / "file.txt"
        with pytest.raises(DataError):
            ex.atomic_write_text(str(target), "data")
        assert not target.parent.exists()

    def test_write_then_replace(self, tmp_path):
        target = tmp_path / "f.txt"
        ex.atomic_write_text(str(target), "one")
        ex.atomic_write_text(str(target), "two")
        assert target.read_text() == "two"
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_write_keeps_old_file_and_no_temp(self, tmp_path):
        target = tmp_path / "f.txt"
        ex.atomic_write_text(str(target), "one")
        with pytest.raises(UnicodeEncodeError):
            ex.atomic_write_text(str(target), "lone surrogate \ud800")
        assert target.read_text() == "one"
        assert not list(tmp_path.glob("*.tmp"))


    def test_fsyncs_file_before_rename_and_directory_after(self, tmp_path, monkeypatch):
        target = tmp_path / "f.txt"
        target.write_text("old")
        seen = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            seen.append(target.read_text())
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        ex.atomic_write_text(str(target), "new")
        assert seen == ["old", "new"]


class TestWriteJson:
    def test_bytes_equal_json_dumps(self, tmp_path, pipeline_docs):
        target = tmp_path / "p.json"
        for doc in pipeline_docs.values():
            ex._write_json(str(target), doc)
            assert target.read_text() == json.dumps(doc, indent=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_keeps_old_file_and_no_temp(self, tmp_path, bad):
        # The bad number sits deep in the document, after more text than one
        # buffer holds, so the temp file has been written to when it is met.
        target = tmp_path / "f.json"
        target.write_bytes(b"old bytes")
        doc = {"a": [float(i) for i in range(20_000)], "b": {"c": [[0.5, bad]]}}
        with pytest.raises(NumericalError, match="f.json: Out of range float"):
            ex._write_json(str(target), doc)
        assert target.read_bytes() == b"old bytes"
        assert not list(tmp_path.glob("*.tmp"))

    def test_text_is_never_held_whole(self, tmp_path):
        """Writing a 400 x 100 matrix of doubles, 0.95 MB of text, holds a small fraction of it."""
        doc = {"rows": np.random.default_rng(0).normal(size=(400, 100)).tolist()}
        text_bytes = len(json.dumps(doc, indent=1))

        def traced_peak(call):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                call()
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        # json.dumps holds every chunk and then the joined text: 4.5x the
        # text here. The streamed write held about 48 kB (0.05x), the text layer's
        # pending chunks, whatever the document's size.
        assert traced_peak(lambda: json.dumps(doc, indent=1)) > 2 * text_bytes
        assert traced_peak(lambda: ex._write_json(str(tmp_path / "p.json"), doc)) < text_bytes / 8


class TestManifest:
    def test_contents(self, tmp_path):
        cfg = ex.config_from_dict(
            {"seed": 2, "output_dir": str(tmp_path), "dataset": {"synth": {}}}
        )
        manifest = ex.Manifest(cfg)
        manifest.stage("one")
        manifest.artifact(str(tmp_path / "a.csv"))
        manifest.write(str(tmp_path))
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["seed"] == 2
        assert doc["artifacts"] == ["a.csv"]
        assert "one" in doc["stage_seconds"]
        assert len(doc["config_hash"]) == 64

    def test_compare_writes_one_manifest_for_both_commands(self, tmp_path, monkeypatch):
        doc = {
            "seed": 4, "output_dir": str(tmp_path),
            "dataset": {"synth": {"area": [60, 60], "n_aps": 12, "sample_spacing_m": 1.5}},
            "gp_grid": {"length_scales": [5, 10], "signal_variances": [1.0],
                        "noise_variances": [0.1]},
            "evaluation": {"cell_size": 2.0},
            "ae_train": {"latent_dim": 4, "hidden_dim": 8, "epochs": 2, "batch_size": 16},
        }
        writes = []
        write = dsm.atomic_write

        def recording_write(path, write_to):
            writes.append(os.path.basename(path))
            write(path, write_to)

        # Every artifact, text or JSON, is written through dataset.atomic_write.
        monkeypatch.setattr(dsm, "atomic_write", recording_write)
        ex.run_compare(ex.config_from_dict(doc))
        assert writes.count("manifest.json") == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        labels = ["input", "pca30", "pca10", "sparse_ae", "distance_ae"]
        assert list(manifest["stage_seconds"]) == (
            ["dataset"] + [f"train:{label}" for label in labels]
            + ["gp_search", "write", "load", "evaluate", "report", "rank"]
        )
        assert manifest["artifacts"][:3] == ["train.csv", "test.csv", "pipeline_input.json"]
        assert manifest["artifacts"][-2:] == ["summary.csv", "ranking.csv"]
        for label in labels:
            assert f"pipeline_{label}.json" in manifest["artifacts"]
            assert f"eval_{label}.csv" in manifest["artifacts"]

    def test_hash_stable_for_equal_config(self):
        doc = {"seed": 2, "output_dir": "o", "dataset": {"synth": {}}}
        a = ex.config_hash(ex.config_from_dict(doc))
        b = ex.config_hash(ex.config_from_dict(json.loads(json.dumps(doc))))
        assert a == b


# Leaves a config field may hold: right and wrong types, edge numbers.
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6),
    st.floats(-1e4, 1e4), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.text(max_size=8), st.sampled_from(["random", "block", "identity", "pca", "distance_ae"]),
)
_JSONISH = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _schema_doc():
    """Dicts shaped like an experiment config whose values are arbitrary."""
    def fields(names):
        return st.dictionaries(st.sampled_from(names), _JSONISH, max_size=len(names))

    synth = fields(["area", "n_aps", "floor_dbm", "waypoints", "sample_spacing_m",
                    "path_loss_exponent", "shadowing_correlation_length_m", "extra"])
    train = fields(["latent_dim", "epochs", "lambda_d", "distance_mode", "seed", "extra"])
    compressor = st.fixed_dictionaries({}, optional={
        "kind": _JSONISH, "latent_dim": _JSONISH, "extra": _JSONISH,
        "label": st.sampled_from(["input", "pca3", "a,b", "", "../x"]) | _JSONISH,
        "train": train | _JSONISH,
    }) | _JSONISH
    return st.fixed_dictionaries(
        {"seed": st.integers(0, 100) | _JSONISH, "output_dir": st.just("out") | _JSONISH},
        optional={
            "dataset": st.fixed_dictionaries(
                {}, optional={"synth": synth, "csv": _JSONISH, "extra": _JSONISH}
            ) | _JSONISH,
            "split": fields(["test_fraction", "mode", "extra"]) | _JSONISH,
            "evaluation": fields(["cell_size", "sigma_m", "margin_cells", "raster_indices"]) | _JSONISH,
            "gp_grid": fields(["length_scales", "signal_variances", "noise_variances"]) | _JSONISH,
            "ae_train": train | _JSONISH,
            "compressors": st.lists(compressor, max_size=3) | _JSONISH,
            "extra": _JSONISH,
        },
    )


class TestConfigFuzz:
    @given(st.one_of(_schema_doc(), _JSONISH))
    @example({"seed": 0, "output_dir": "out", "dataset": {"synth": {"waypoints": {"": None}}}})
    @settings(max_examples=300, deadline=None)
    def test_value_or_package_error(self, doc):
        try:
            ex.config_from_dict(doc)
        except RssAtlasError:
            pass


def _array_paths(doc, path=()) -> list[tuple]:
    """Key paths of every list (an array of the model) in a pipeline document."""
    if isinstance(doc, list):
        return [path]
    if isinstance(doc, dict):
        return [p for key, value in doc.items() for p in _array_paths(value, path + (key,))]
    return []


_ARRAY_MUTATIONS = {
    "unchanged": lambda a: a,
    "drop_last": lambda a: a[:-1],  # an entry, or a matrix's row
    "add_column": lambda a: [row + [0.0] if isinstance(row, list) else [row, 0.0] for row in a],
    "empty": lambda a: [],
    "scalar": lambda a: 1.0,
}


class TestPipelineFuzz:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_rejected_or_scores(self, pipeline_docs, small_norm, data):
        """One mutated array: pipeline_from_dict raises a package error, or the pipeline scores a row."""
        # An identity document holds no array.
        doc = copy.deepcopy(pipeline_docs[data.draw(st.sampled_from(["pca", "autoencoder"]))])
        *keys, last = data.draw(st.sampled_from(_array_paths(doc)))
        parent = functools.reduce(operator.getitem, keys, doc)
        parent[last] = _ARRAY_MUTATIONS[data.draw(st.sampled_from(list(_ARRAY_MUTATIONS)))](parent[last])
        try:
            pipe = ex.pipeline_from_dict(doc, "p", small_norm)
        except RssAtlasError:
            return
        row = dsm.SurveyDataset(
            X=small_norm.X[:1], Z=small_norm.Z[:1], ap_ids=small_norm.ap_ids, normalized=True
        )
        grid = loc.Grid.cover(small_norm.X, 10.0, 0)
        [result] = loc.evaluate([pipe], row, grid, 10.0)
        assert np.isfinite(result.mean_kl)


class TestBuildPipeline:
    def test_latent_standardization(self, train_norm):
        comp = loc.PcaCompressor(pca.fit(train_norm.Z, 3))
        pipe = ex.build_pipeline("p", comp, train_norm, [gp_map.GpHyperparams(1.0, 10.0, 0.05)])
        latents = pipe.encode(train_norm.Z)
        assert np.abs(latents.mean(axis=0)).max() < 1e-9
        assert np.abs(latents.std(axis=0) - 1.0).max() < 1e-9

    def test_run_train_matches_one_pipeline_at_a_time(self, tmp_path):
        """The shared search writes the bytes a separate search per compressor gives."""
        doc = {
            "seed": 5, "output_dir": str(tmp_path),
            "dataset": {"synth": {"area": [60, 60], "n_aps": 12, "sample_spacing_m": 1.5}},
            "gp_grid": {"length_scales": [10, 2, 5], "signal_variances": [0.5, 1.0],
                        "noise_variances": [0.01, 0.1]},
            "compressors": [
                {"kind": "identity"},
                {"kind": "pca", "latent_dim": 3},
                {"kind": "distance_ae",
                 "train": {"latent_dim": 3, "hidden_dim": 8, "epochs": 5, "batch_size": 16}},
            ],
        }
        cfg = ex.config_from_dict(doc)
        labels = ex.run_train(cfg)
        full = ex.obtain_dataset(cfg)
        train_raw, _ = dsm.split(full, cfg.test_fraction, cfg.seed + 1, cfg.split_mode)
        train_norm, _ = dsm.normalize(train_raw)
        for spec, label in zip(cfg.compressors, labels):
            comp, _ = ex.build_compressor(spec, train_norm)
            alone = ex.build_pipeline(label, comp, train_norm, cfg.gp_grid)
            want = json.dumps(ex.pipeline_to_dict(alone), indent=1)
            assert (tmp_path / f"pipeline_{label}.json").read_text() == want
        stages = json.loads((tmp_path / "manifest.json").read_text())["stage_seconds"]
        assert list(stages) == ["dataset", "train:input", "train:pca3", "train:distance_ae",
                                "gp_search", "write"]

    def test_evaluate_rebuilds_the_trained_maps_bit_for_bit(self, tmp_path, monkeypatch):
        """The maps run_evaluate rebuilds from train.csv and the pipeline files
        are the ones build_pipelines made in memory (A8's survey)."""
        doc = {
            "seed": 5, "output_dir": str(tmp_path),
            "dataset": {"synth": {"area": [60, 40], "n_aps": 12, "shadowing_std_dbm": 3.0,
                                  "shadowing_correlation_length_m": 1.0, "sample_spacing_m": 2.0}},
            "split": {"test_fraction": 0.25, "mode": "random"},
            "gp_grid": {"length_scales": [5, 10], "signal_variances": [0.5, 1.0],
                        "noise_variances": [0.05, 0.1]},
            "evaluation": {"cell_size": 2.0},
            "compressors": [
                {"kind": "identity"},
                {"kind": "pca", "latent_dim": 4},
                {"kind": "distance_ae",
                 "train": {"latent_dim": 4, "hidden_dim": 10, "epochs": 5, "batch_size": 16}},
            ],
        }
        built, rebuilt = [], []
        build, load = ex.build_pipelines, ex.pipeline_from_dict

        def recording_build(*args):
            built.extend(build(*args))
            return built

        def recording_load(*args):
            rebuilt.append(load(*args))
            return rebuilt[-1]

        monkeypatch.setattr(ex, "build_pipelines", recording_build)
        monkeypatch.setattr(ex, "pipeline_from_dict", recording_load)
        cfg = ex.config_from_dict(doc)
        ex.run_train(cfg)
        ex.run_evaluate(cfg)
        assert [p.label for p in rebuilt] == [p.label for p in built] == ["input", "pca4", "distance_ae"]
        for got, want in zip(rebuilt, built):
            assert_same_map(got, want)

    def test_pca_dim_clipped_to_ap_count(self, train_norm):
        spec = ex.CompressorSpec(kind="pca", latent_dim=500)
        comp, _ = ex.build_compressor(spec, train_norm)
        assert comp.latent_dim == train_norm.m
