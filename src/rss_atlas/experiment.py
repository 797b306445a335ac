"""Experiment orchestration: configs, pipeline training, runs, manifests.

Commands write every artifact through a temp-file-plus-rename so a
failing run leaves nothing half-written. All randomness derives from the
experiment seed, so reruns with the same config are byte-identical
except for wall-clock entries in the manifest.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import autoencoder as ae
from . import dataset as ds_mod
from . import gp_map
from . import localization as loc
from . import pca as pca_mod
from .dataset import atomic_write_text
from .errors import ConfigError, DataError
from .localization import (
    AutoencoderCompressor,
    Grid,
    IdentityCompressor,
    PcaCompressor,
    Pipeline,
)

PIPELINE_FORMAT_VERSION = 1

# Seed offsets so each stage draws from its own stream.
_SPLIT_SEED_OFFSET = 1
_SPARSE_AE_SEED_OFFSET = 2
_DISTANCE_AE_SEED_OFFSET = 3


def default_gp_grid() -> list[gp_map.GpHyperparams]:
    """Evidence-search grid in normalized output units."""
    grid = []
    for l in (2.0, 5.0, 10.0, 20.0, 40.0):
        for s2 in (0.25, 0.5, 1.0):
            for n2 in (0.01, 0.05, 0.1):
                grid.append(
                    gp_map.GpHyperparams(signal_variance=s2, length_scale=l, noise_variance=n2)
                )
    return grid


@dataclass(frozen=True)
class CompressorSpec:
    kind: str  # identity | pca | sparse_ae | distance_ae
    latent_dim: int | None = None
    train: ae.TrainConfig | None = None
    label: str | None = None

    def resolved_label(self) -> str:
        if self.label:
            return self.label
        if self.kind == "identity":
            return "input"
        if self.kind == "pca":
            return f"pca{self.latent_dim}"
        return self.kind


@dataclass(frozen=True)
class EvaluationSpec:
    cell_size: float = 1.0
    sigma_m: float = 10.0
    margin_cells: int = 2
    raster_indices: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("cell_size", "sigma_m"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"evaluation.{name} must be finite and > 0, got {value}")
        if self.margin_cells < 0:
            raise ConfigError(f"evaluation.margin_cells must be >= 0, got {self.margin_cells}")


@dataclass
class ExperimentConfig:
    seed: int
    output_dir: str
    synth: ds_mod.SynthEnvConfig | None = None
    csv_path: str | None = None
    test_fraction: float = 0.3
    split_mode: str = "random"
    gp_grid: list[gp_map.GpHyperparams] = field(default_factory=default_gp_grid)
    evaluation: EvaluationSpec = field(default_factory=EvaluationSpec)
    compressors: list[CompressorSpec] = field(
        default_factory=lambda: [CompressorSpec(kind="identity")]
    )
    ae_train: ae.TrainConfig = field(default_factory=ae.TrainConfig)

    def validate(self) -> None:
        if (self.synth is None) == (self.csv_path is None):
            raise ConfigError("config needs exactly one of dataset.synth or dataset.csv")
        if self.synth is not None:
            self.synth.validate()
        if not self.compressors:
            raise ConfigError("at least one compressor is required")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("split.test_fraction must lie in (0, 1)")
        for spec in self.compressors:
            if spec.kind not in ("identity", "pca", "sparse_ae", "distance_ae"):
                raise ConfigError(f"unknown compressor kind {spec.kind!r}")
            if spec.kind == "pca" and (spec.latent_dim is None or spec.latent_dim < 1):
                raise ConfigError("pca compressor needs a positive latent_dim")


_GP_GRID_AXES = ("length_scales", "signal_variances", "noise_variances")


def _reject_unknown_fields(doc: dict, known, section: str) -> None:
    """A key of a config section that is not in `known` is a ConfigError."""
    extra = set(doc) - set(known)
    if extra:
        raise ConfigError(f"unknown {section} fields: {sorted(extra)}")


def _synth_config_from_dict(doc: dict) -> ds_mod.SynthEnvConfig:
    _reject_unknown_fields(doc, (f.name for f in fields(ds_mod.SynthEnvConfig)), "synth")
    kwargs = dict(doc)
    if "area" in kwargs:
        kwargs["area"] = tuple(float(v) for v in kwargs["area"])
    if "waypoints" in kwargs:
        kwargs["waypoints"] = tuple((float(p[0]), float(p[1])) for p in kwargs["waypoints"])
    elif "area" in kwargs:
        kwargs["waypoints"] = ds_mod.serpentine_waypoints(kwargs["area"])
    return ds_mod.SynthEnvConfig(**kwargs)


def _train_config_from_dict(doc: dict, default_seed: int) -> ae.TrainConfig:
    doc = dict(doc)
    doc.setdefault("seed", default_seed)
    try:
        return ae.TrainConfig(**doc)
    except TypeError as exc:
        raise ConfigError(f"bad train config: {exc}") from None


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Parse and validate a config document; any malformed part is a ConfigError.

    A field of the wrong JSON type surfaces from the parsing code as a
    KeyError, TypeError, ValueError, AttributeError (a list where a section
    dict belongs), IndexError (a waypoint with fewer than two coordinates)
    or OverflowError (an infinite integer field).
    """
    try:
        return _config_from_dict(doc)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, IndexError, OverflowError) as exc:
        raise ConfigError(f"malformed config: {exc!r}") from None


def _config_from_dict(doc: dict) -> ExperimentConfig:
    try:
        seed = int(doc["seed"])
        output_dir = str(doc["output_dir"])
    except KeyError as exc:
        raise ConfigError(f"config missing required field {exc}") from None

    dataset_doc = doc.get("dataset", {})
    synth = None
    csv_path = None
    if "synth" in dataset_doc:
        synth = _synth_config_from_dict(dataset_doc["synth"])
    if "csv" in dataset_doc:
        csv_path = str(dataset_doc["csv"])

    split_doc = doc.get("split", {})
    eval_doc = doc.get("evaluation", {})
    _reject_unknown_fields(eval_doc, (f.name for f in fields(EvaluationSpec)), "evaluation")
    evaluation = EvaluationSpec(
        cell_size=float(eval_doc.get("cell_size", 1.0)),
        sigma_m=float(eval_doc.get("sigma_m", 10.0)),
        margin_cells=int(eval_doc.get("margin_cells", 2)),
        raster_indices=tuple(int(i) for i in eval_doc.get("raster_indices", ())),
    )

    grid_doc = doc.get("gp_grid")
    if grid_doc is None:
        gp_grid = default_gp_grid()
    else:
        _reject_unknown_fields(grid_doc, _GP_GRID_AXES, "gp_grid")
        for axis in _GP_GRID_AXES:
            if not grid_doc[axis]:
                raise ConfigError(f"gp_grid.{axis} is empty")
        gp_grid = [
            gp_map.GpHyperparams(signal_variance=s2, length_scale=l, noise_variance=n2)
            for l in grid_doc["length_scales"]
            for s2 in grid_doc["signal_variances"]
            for n2 in grid_doc["noise_variances"]
        ]

    ae_train = _train_config_from_dict(
        doc.get("ae_train", {}), default_seed=seed + _DISTANCE_AE_SEED_OFFSET
    )

    compressors = []
    for cdoc in doc.get("compressors", [{"kind": "identity"}]):
        kind = cdoc.get("kind")
        train = None
        if "train" in cdoc:
            train = _train_config_from_dict(cdoc["train"], default_seed=seed)
        compressors.append(
            CompressorSpec(
                kind=kind,
                latent_dim=cdoc.get("latent_dim"),
                train=train,
                label=cdoc.get("label"),
            )
        )

    cfg = ExperimentConfig(
        seed=seed,
        output_dir=output_dir,
        synth=synth,
        csv_path=csv_path,
        test_fraction=float(split_doc.get("test_fraction", 0.3)),
        split_mode=str(split_doc.get("mode", "random")),
        gp_grid=gp_grid,
        evaluation=evaluation,
        compressors=compressors,
        ae_train=ae_train,
    )
    cfg.validate()
    return cfg


def load_config(path: str, seed_override: int | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if seed_override is not None:
        # Applied before parsing so derived seeds follow the override.
        doc["seed"] = seed_override
    return config_from_dict(doc)


def config_hash(cfg: ExperimentConfig) -> str:
    # Dataclass reprs are deterministic and cover every field that
    # influences the run.
    return hashlib.sha256(repr(cfg).encode("utf-8")).hexdigest()


def obtain_dataset(cfg: ExperimentConfig) -> ds_mod.SurveyDataset:
    if cfg.synth is not None:
        return ds_mod.synthesize(cfg.synth, cfg.seed)
    return ds_mod.load_csv(cfg.csv_path)


def _ae_train_config(cfg: ExperimentConfig, kind: str) -> ae.TrainConfig:
    """The TrainConfig of an autoencoder spec that has no `train` block.

    It is cfg.ae_train; the sparse AE drops the distance term, and each
    kind trains from its own seed stream.
    """
    if kind == "sparse_ae":
        return replace(cfg.ae_train, lambda_d=0.0, seed=cfg.seed + _SPARSE_AE_SEED_OFFSET)
    return replace(cfg.ae_train, seed=cfg.seed + _DISTANCE_AE_SEED_OFFSET)


def default_compare_compressors(cfg: ExperimentConfig) -> list[CompressorSpec]:
    """The standard five pipelines ranked in the headline comparison."""
    return [
        CompressorSpec(kind="identity", label="input"),
        CompressorSpec(kind="pca", latent_dim=30, label="pca30"),
        CompressorSpec(kind="pca", latent_dim=10, label="pca10"),
    ] + [
        CompressorSpec(kind=kind, train=_ae_train_config(cfg, kind), label=kind)
        for kind in ("sparse_ae", "distance_ae")
    ]


def build_compressor(spec: CompressorSpec, train_norm: ds_mod.SurveyDataset, cfg: ExperimentConfig):
    """Fit the requested compressor kind on normalized training data.

    Returns (compressor, train_report_or_None).
    """
    if spec.kind == "identity":
        return IdentityCompressor(train_norm.m), None
    if spec.kind == "pca":
        # Clip to the AP count so the standard pca30/pca10 baselines stay
        # runnable on small surveys.
        c = min(spec.latent_dim, train_norm.m)
        return PcaCompressor(pca_mod.fit(train_norm.Z, c)), None
    if spec.kind in ("sparse_ae", "distance_ae"):
        train_cfg = spec.train if spec.train is not None else _ae_train_config(cfg, spec.kind)
        params, report = ae.train(train_norm, train_cfg)
        return AutoencoderCompressor(params), report
    raise ConfigError(f"unknown compressor kind {spec.kind!r}")


def build_pipelines(
    items: list[tuple[str, object]],
    train_norm: ds_mod.SurveyDataset,
    gp_grid: list[gp_map.GpHyperparams],
) -> list[Pipeline]:
    """Standardize each compressor's training latents and fit all GP maps in one search.

    `items` are (label, compressor) pairs. The maps share the training
    locations, so one evidence search over `gp_grid` factors each
    candidate once for every pipeline; each map is fitted at its own
    evidence-maximizing candidate.
    """
    targets = []
    for _, compressor in items:
        latents = compressor.encode(train_norm.Z)
        mean = latents.mean(axis=0)
        std = latents.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)
        targets.append((mean, std, (latents - mean) / std))
    models = gp_map.fit_by_evidence(train_norm.X, [Y for _, _, Y in targets], gp_grid)
    return [
        Pipeline(label=label, compressor=compressor, gp=model, latent_mean=mean, latent_std=std)
        for (label, compressor), (mean, std, _), model in zip(items, targets, models)
    ]


def build_pipeline(
    label: str,
    compressor,
    train_norm: ds_mod.SurveyDataset,
    gp_grid: list[gp_map.GpHyperparams],
) -> Pipeline:
    """One pipeline: `build_pipelines` for a single compressor."""
    return build_pipelines([(label, compressor)], train_norm, gp_grid)[0]


def pipeline_to_dict(pipeline: Pipeline) -> dict:
    comp = pipeline.compressor
    if isinstance(comp, IdentityCompressor):
        comp_doc = {"kind": "identity", "input_dim": comp.input_dim}
    elif isinstance(comp, PcaCompressor):
        comp_doc = {"kind": "pca", "model": pca_mod.model_to_dict(comp.model)}
    elif isinstance(comp, AutoencoderCompressor):
        comp_doc = {"kind": "autoencoder", "model": ae.params_to_dict(comp.params)}
    else:
        raise ConfigError(f"cannot serialize compressor {type(comp).__name__}")
    return {
        "format_version": PIPELINE_FORMAT_VERSION,
        "label": pipeline.label,
        "latent_mean": pipeline.latent_mean.tolist(),
        "latent_std": pipeline.latent_std.tolist(),
        "gp": gp_map.model_to_dict(pipeline.gp),
        "compressor": comp_doc,
    }


def pipeline_from_dict(doc: dict) -> Pipeline:
    if doc.get("format_version") != PIPELINE_FORMAT_VERSION:
        raise DataError(f"unsupported pipeline format_version {doc.get('format_version')!r}")
    comp_doc = doc["compressor"]
    kind = comp_doc.get("kind")
    if kind == "identity":
        comp = IdentityCompressor(int(comp_doc["input_dim"]))
    elif kind == "pca":
        comp = PcaCompressor(pca_mod.model_from_dict(comp_doc["model"]))
    elif kind == "autoencoder":
        comp = AutoencoderCompressor(ae.params_from_dict(comp_doc["model"]))
    else:
        raise DataError(f"unknown compressor kind {kind!r} in pipeline file")
    return Pipeline(
        label=str(doc["label"]),
        compressor=comp,
        gp=gp_map.model_from_dict(doc["gp"]),
        latent_mean=np.array(doc["latent_mean"], dtype=float),
        latent_std=np.array(doc["latent_std"], dtype=float),
    )


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=1)


class Manifest:
    """Run metadata written atomically at the end of each command."""

    def __init__(self, cfg: ExperimentConfig):
        self.doc = {
            "config_hash": config_hash(cfg),
            "seed": cfg.seed,
            "stage_seconds": {},
            "artifacts": [],
        }
        self._t0 = time.perf_counter()

    def stage(self, name: str) -> None:
        now = time.perf_counter()
        self.doc["stage_seconds"][name] = now - self._t0
        self._t0 = now

    def artifact(self, path: str) -> None:
        self.doc["artifacts"].append(os.path.basename(path))

    def write(self, output_dir: str) -> None:
        atomic_write_text(os.path.join(output_dir, "manifest.json"), _json_text(self.doc))


def _norm_stats_doc(stats: ds_mod.NormalizationStats) -> dict:
    return {
        "per_ap_mean": stats.per_ap_mean.tolist(),
        "per_ap_std": stats.per_ap_std.tolist(),
        "constant_aps": list(stats.constant_aps),
    }


def _norm_stats_from_doc(doc: dict) -> ds_mod.NormalizationStats:
    return ds_mod.NormalizationStats(
        per_ap_mean=np.array(doc["per_ap_mean"], dtype=float),
        per_ap_std=np.array(doc["per_ap_std"], dtype=float),
        constant_aps=tuple(doc.get("constant_aps", ())),
    )


def _load_artifact(path: str, parse):
    """Parse a JSON artifact written by train; a bad file is a DataError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    except (DataError, ConfigError) as exc:
        raise DataError(f"{path}: {exc}") from None
    except (OSError, ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise DataError(f"{path}: corrupt or unreadable artifact: {exc!r}") from None


def run_synth(cfg: ExperimentConfig, out_path: str) -> None:
    """Synthesize a survey and write it as CSV."""
    if cfg.synth is None:
        raise ConfigError("synth command needs a dataset.synth section")
    ds = ds_mod.synthesize(cfg.synth, cfg.seed)
    ds_mod.save_csv(ds, out_path)


def run_train(cfg: ExperimentConfig, manifest: Manifest | None = None) -> list[str]:
    """Split the survey, build every compressor, fit all GP maps in one search, save artifacts.

    A caller that passes `manifest` writes it; otherwise this writes manifest.json.
    """
    outdir = cfg.output_dir
    os.makedirs(outdir, exist_ok=True)
    own_manifest = manifest is None
    manifest = manifest or Manifest(cfg)

    full = obtain_dataset(cfg)
    train_raw, test_raw = ds_mod.split(full, cfg.test_fraction, cfg.seed + _SPLIT_SEED_OFFSET, cfg.split_mode)
    ds_mod.save_csv(train_raw, os.path.join(outdir, "train.csv"))
    ds_mod.save_csv(test_raw, os.path.join(outdir, "test.csv"))
    manifest.artifact("train.csv")
    manifest.artifact("test.csv")

    train_norm, stats = ds_mod.normalize(train_raw)
    atomic_write_text(
        os.path.join(outdir, "norm_stats.json"), _json_text(_norm_stats_doc(stats))
    )
    manifest.artifact("norm_stats.json")
    manifest.stage("dataset")

    built = []
    for spec in cfg.compressors:
        label = spec.resolved_label()
        compressor, report = build_compressor(spec, train_norm, cfg)
        built.append((spec, label, compressor, report))
        manifest.stage(f"train:{label}")

    pipelines = build_pipelines(
        [(label, comp) for _, label, comp, _ in built], train_norm, cfg.gp_grid
    )
    manifest.stage("gp_search")

    summary_lines = ["label,kind,latent_dim,final_rmse,final_rmse_dbm,epochs"]
    for (spec, label, compressor, report), pipeline in zip(built, pipelines):
        path = os.path.join(outdir, f"pipeline_{label}.json")
        atomic_write_text(path, _json_text(pipeline_to_dict(pipeline)))
        manifest.artifact(path)

        if report is not None:
            rmse_dbm = ae.reconstruction_rmse(compressor.params, train_norm.Z, stats)
            lines = ["epoch,reconstruction,sparsity,distance"]
            for e, (r, s, d) in enumerate(
                zip(report.recon_losses, report.sparsity_losses, report.distance_losses), 1
            ):
                lines.append(f"{e},{r!r},{s!r},{d!r}")
            atomic_write_text(os.path.join(outdir, f"train_report_{label}.csv"), "\n".join(lines) + "\n")
            manifest.artifact(f"train_report_{label}.csv")
            summary_lines.append(
                f"{label},{spec.kind},{compressor.latent_dim},"
                f"{report.final_rmse!r},{rmse_dbm!r},{len(report.recon_losses)}"
            )
        else:
            summary_lines.append(f"{label},{spec.kind},{compressor.latent_dim},,,")

    atomic_write_text(os.path.join(outdir, "training_summary.csv"), "\n".join(summary_lines) + "\n")
    manifest.artifact("training_summary.csv")
    manifest.stage("write")
    if own_manifest:
        manifest.write(outdir)
    return [label for _, label, _, _ in built]


def run_evaluate(cfg: ExperimentConfig, manifest: Manifest | None = None) -> list[loc.EvalResult]:
    """Score saved pipelines on the saved test split; `manifest` as in run_train."""
    outdir = cfg.output_dir
    own_manifest = manifest is None
    manifest = manifest or Manifest(cfg)
    for name in ("train.csv", "test.csv", "norm_stats.json"):
        if not os.path.exists(os.path.join(outdir, name)):
            raise DataError(f"missing artifact {os.path.join(outdir, name)}; run train first")

    train_raw = ds_mod.load_csv(os.path.join(outdir, "train.csv"))
    test_raw = ds_mod.load_csv(os.path.join(outdir, "test.csv"))
    stats = _load_artifact(os.path.join(outdir, "norm_stats.json"), _norm_stats_from_doc)
    test_norm = ds_mod.apply_normalization(test_raw, stats)

    pipelines = []
    for spec in cfg.compressors:
        label = spec.resolved_label()
        path = os.path.join(outdir, f"pipeline_{label}.json")
        if not os.path.exists(path):
            raise DataError(f"missing model file {path}")
        pipelines.append(_load_artifact(path, pipeline_from_dict))
    manifest.stage("load")

    ev = cfg.evaluation
    for idx in ev.raster_indices:
        if not 0 <= idx < test_norm.n:
            raise ConfigError(f"raster index {idx} out of range [0, {test_norm.n})")

    all_points = np.vstack([train_raw.X, test_raw.X])
    grid = Grid.cover(all_points, ev.cell_size, ev.margin_cells)
    results = loc.evaluate(pipelines, test_norm, grid, ev.sigma_m, ev.raster_indices)
    manifest.stage("evaluate")

    summary_lines = ["label,mean_kl,mean_argmax_error_m"]
    for result in results:
        per_point = os.path.join(outdir, f"eval_{result.label}.csv")
        loc.save_eval_csv(result, test_norm, per_point)
        manifest.artifact(per_point)
        summary_lines.append(
            f"{result.label},{result.mean_kl!r},{result.mean_argmax_error_m!r}"
        )
        for idx in ev.raster_indices:
            raster = os.path.join(outdir, f"field_{result.label}_{idx:04d}.pgm")
            loc.save_field_pgm(result.rasters[idx], raster)
            manifest.artifact(raster)
    atomic_write_text(os.path.join(outdir, "summary.csv"), "\n".join(summary_lines) + "\n")
    manifest.artifact("summary.csv")
    manifest.stage("report")
    if own_manifest:
        manifest.write(outdir)
    return results


def run_compare(cfg: ExperimentConfig) -> list[loc.EvalResult]:
    """Train and evaluate the standard five pipelines, rank them, write one manifest."""
    cfg = replace(cfg, compressors=default_compare_compressors(cfg))
    manifest = Manifest(cfg)
    run_train(cfg, manifest)
    results = run_evaluate(cfg, manifest)
    ranked = sorted(results, key=lambda r: r.mean_kl)
    lines = ["rank,label,mean_kl,mean_argmax_error_m"]
    for rank, r in enumerate(ranked, 1):
        lines.append(f"{rank},{r.label},{r.mean_kl!r},{r.mean_argmax_error_m!r}")
    atomic_write_text(os.path.join(cfg.output_dir, "ranking.csv"), "\n".join(lines) + "\n")
    manifest.artifact("ranking.csv")
    manifest.stage("rank")
    manifest.write(cfg.output_dir)
    return results
