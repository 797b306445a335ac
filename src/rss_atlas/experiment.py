"""Experiment orchestration: configs, pipeline training, runs, manifests.

Commands write every artifact through a temp-file-plus-rename so a
failing run leaves nothing half-written. All randomness derives from the
experiment seed, so reruns with the same config are byte-identical
except for wall-clock entries in the manifest.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import re
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import autoencoder as ae
from . import dataset as ds_mod
from . import gp_map
from . import localization as loc
from . import pca as pca_mod
from .dataset import atomic_write_text  # noqa: F401  traced by name: experiment.atomic_write_text
from .errors import SQUARED_LENGTH, ConfigError, DataError, NumericalError, check_number, check_numbers
from .localization import (
    AutoencoderCompressor,
    Grid,
    IdentityCompressor,
    PcaCompressor,
    Pipeline,
)

# The one format version of a pipeline file; it decides how every part is read.
PIPELINE_FORMAT_VERSION = 6

# Seed offsets so each stage draws from its own stream; each autoencoder
# kind trains from the experiment seed plus its own offset.
_SPLIT_SEED_OFFSET = 1
_AE_SEED_OFFSETS = {"sparse_ae": 2, "distance_ae": 3}
_AE_KINDS = tuple(_AE_SEED_OFFSETS)
# A label is a file name part and a CSV cell.
_LABEL = re.compile(r"[A-Za-z0-9_.-]+")
_GP_GRID_AXES = ("length_scales", "signal_variances", "noise_variances")


def _gp_grid(length_scales, signal_variances, noise_variances) -> list[gp_map.GpHyperparams]:
    """Every combination of the three axes, length scale outermost."""
    for axis, values in zip(_GP_GRID_AXES, (length_scales, signal_variances, noise_variances)):
        if not values:
            raise ConfigError(f"gp_grid.{axis} is empty")
    return [
        gp_map.GpHyperparams(signal_variance=s2, length_scale=l, noise_variance=n2)
        for l in length_scales
        for s2 in signal_variances
        for n2 in noise_variances
    ]


def default_gp_grid() -> list[gp_map.GpHyperparams]:
    """Evidence-search grid in normalized output units."""
    return _gp_grid((2.0, 5.0, 10.0, 20.0, 40.0), (0.25, 0.5, 1.0), (0.01, 0.05, 0.1))


@dataclass(frozen=True)
class CompressorSpec:
    """One compressor of an experiment.

    `latent_dim` belongs to pca only; an autoencoder kind carries its
    resolved TrainConfig in `train` instead. `label` names the pipeline's
    files and rows; it defaults to input, pca<latent_dim> or the kind.
    """

    kind: str  # identity | pca | sparse_ae | distance_ae
    latent_dim: int | None = None
    train: ae.TrainConfig | None = None
    label: str | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "pca") + _AE_KINDS:
            raise ConfigError(f"unknown compressor kind {self.kind!r}")
        if self.kind == "pca":
            check_number("pca latent_dim", self.latent_dim, integer=True)
            if self.latent_dim < 1:
                raise ConfigError(f"pca latent_dim must be >= 1, got {self.latent_dim}")
        elif self.latent_dim is not None:
            raise ConfigError(f"{self.kind} takes no latent_dim")
        if (self.train is None) == (self.kind in _AE_KINDS):
            raise ConfigError(f"{self.kind} {'needs a' if self.train is None else 'takes no'} train block")
        if self.label is None:
            default = {"identity": "input", "pca": f"pca{self.latent_dim}"}.get(self.kind, self.kind)
            object.__setattr__(self, "label", default)
        if not (isinstance(self.label, str) and _LABEL.fullmatch(self.label)):
            raise ConfigError(f"compressor label must match [A-Za-z0-9_.-]+, got {self.label!r}")


@dataclass(frozen=True)
class EvaluationSpec:
    cell_size: float = field(default=1.0, metadata=SQUARED_LENGTH)
    sigma_m: float = field(default=10.0, metadata=SQUARED_LENGTH)
    margin_cells: int = field(default=2, metadata={"ge": 0})
    raster_indices: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "raster_indices", tuple(self.raster_indices))
        check_numbers(self, "evaluation.")
        for idx in self.raster_indices:
            check_number("evaluation.raster_indices", idx, integer=True)
        repeated = sorted({idx for idx in self.raster_indices if self.raster_indices.count(idx) > 1})
        if repeated:
            raise ConfigError(f"evaluation.raster_indices lists {repeated} more than once")


@dataclass
class ExperimentConfig:
    seed: int = field(metadata={"ge": 0})
    output_dir: str
    synth: ds_mod.SynthEnvConfig | None = None
    csv_path: str | None = None
    test_fraction: float = field(default=0.3, metadata={"gt": 0, "lt": 1})
    split_mode: str = "random"
    gp_grid: list[gp_map.GpHyperparams] = field(default_factory=default_gp_grid)
    evaluation: EvaluationSpec = field(default_factory=EvaluationSpec)
    compressors: list[CompressorSpec] = field(
        default_factory=lambda: [CompressorSpec(kind="identity")]
    )
    ae_train: ae.TrainConfig = field(default_factory=ae.TrainConfig)

    def __post_init__(self):
        check_numbers(self)
        if (self.synth is None) == (self.csv_path is None):
            raise ConfigError("config needs exactly one of dataset.synth or dataset.csv")
        if not isinstance(self.output_dir, str) or not isinstance(self.csv_path, (str, type(None))):
            raise ConfigError("output_dir and dataset.csv must be strings")
        if self.split_mode not in ds_mod.SPLIT_MODES:
            raise ConfigError(f"split.mode must be one of {ds_mod.SPLIT_MODES}, got {self.split_mode!r}")
        labels = [spec.label for spec in self.compressors]
        if not labels:
            raise ConfigError("at least one compressor is required")
        duplicates = sorted({label for label in labels if labels.count(label) > 1})
        if duplicates:
            raise ConfigError(f"duplicate compressor labels: {duplicates}")


_TOP_LEVEL_KEYS = (
    "seed", "output_dir", "dataset", "split", "evaluation", "gp_grid", "ae_train", "compressors",
)
_SPLIT_FIELDS = {"test_fraction": "test_fraction", "mode": "split_mode"}
_COMPRESSOR_KEYS = ("kind", "latent_dim", "label", "train")
# All randomness derives from the experiment seed, so no train section sets one.
_TRAIN_KEYS = tuple(f.name for f in fields(ae.TrainConfig) if f.name != "seed")


def _section(doc: dict, known, name: str) -> dict:
    """`doc` once each of its keys is in `known`; any other key is a ConfigError naming it."""
    extra = set(doc) - set(known)
    if extra:
        raise ConfigError(f"unknown {name} fields: {sorted(extra)}")
    return doc


def _ae_train_config(cfg: ExperimentConfig, kind: str, train: dict) -> ae.TrainConfig:
    """The TrainConfig of an autoencoder compressor.

    cfg.ae_train with each key its `train` block sets replaced, seeded with
    the experiment seed plus the kind's offset. The sparse AE has no
    distance term, so its lambda_d is 0 and cannot be set.
    """
    _section(train, _TRAIN_KEYS, "train")
    if kind == "sparse_ae":
        if "lambda_d" in train:
            raise ConfigError("sparse_ae takes no lambda_d: it has no distance term")
        train = {**train, "lambda_d": 0.0}
    return replace(cfg.ae_train, **train, seed=cfg.seed + _AE_SEED_OFFSETS[kind])


def _compressor_spec(doc: dict, cfg: ExperimentConfig) -> CompressorSpec:
    kwargs = dict(_section(doc, _COMPRESSOR_KEYS, "compressor"))
    if kwargs.get("kind") in _AE_KINDS:
        kwargs["train"] = _ae_train_config(cfg, kwargs["kind"], kwargs.get("train", {}))
    return CompressorSpec(**kwargs)


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Parse and validate a config document; any malformed part is a ConfigError.

    Every section rejects unknown keys and passes the keys it has to its
    dataclass, which checks itself; defaults live in the dataclasses. A
    field of the wrong JSON type surfaces from the parsing code as a
    KeyError, TypeError, ValueError, AttributeError (a list where a section
    dict belongs), IndexError or OverflowError (a huge integer in a float
    field).
    """
    try:
        return _config_from_dict(doc)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, IndexError, OverflowError) as exc:
        raise ConfigError(f"malformed config: {exc!r}") from None


def _config_from_dict(doc: dict) -> ExperimentConfig:
    _section(doc, _TOP_LEVEL_KEYS, "top-level")
    # A missing seed or output_dir is a TypeError naming it.
    kwargs = {key: doc[key] for key in ("seed", "output_dir") if key in doc}
    dataset = _section(doc.get("dataset", {}), ("synth", "csv"), "dataset")
    if "synth" in dataset:
        synth_doc = _section(dataset["synth"], [f.name for f in fields(ds_mod.SynthEnvConfig)], "synth")
        synth = kwargs["synth"] = ds_mod.SynthEnvConfig(**synth_doc)
        if "area" in synth_doc and "waypoints" not in synth_doc:
            kwargs["synth"] = replace(synth, waypoints=ds_mod.serpentine_waypoints(synth.area))
    if "csv" in dataset:
        kwargs["csv_path"] = dataset["csv"]
    for key, value in _section(doc.get("split", {}), _SPLIT_FIELDS, "split").items():
        kwargs[_SPLIT_FIELDS[key]] = value
    if "evaluation" in doc:
        eval_doc = _section(doc["evaluation"], [f.name for f in fields(EvaluationSpec)], "evaluation")
        kwargs["evaluation"] = EvaluationSpec(**eval_doc)
    if "gp_grid" in doc:
        kwargs["gp_grid"] = _gp_grid(**_section(doc["gp_grid"], _GP_GRID_AXES, "gp_grid"))
    if "ae_train" in doc:
        kwargs["ae_train"] = ae.TrainConfig(**_section(doc["ae_train"], _TRAIN_KEYS, "ae_train"))
    # Checked before the autoencoder seeds derive from cfg.seed.
    cfg = ExperimentConfig(**kwargs)
    if "compressors" in doc:
        cfg = replace(cfg, compressors=[_compressor_spec(c, cfg) for c in doc["compressors"]])
    return cfg


def load_config(path: str, seed_override: int | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: the config must be a JSON object, got {type(doc).__name__}")
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


def default_compare_compressors(cfg: ExperimentConfig) -> list[CompressorSpec]:
    """The standard five pipelines ranked in the headline comparison."""
    return [
        CompressorSpec(kind="identity"),
        CompressorSpec(kind="pca", latent_dim=30),
        CompressorSpec(kind="pca", latent_dim=10),
    ] + [CompressorSpec(kind=kind, train=_ae_train_config(cfg, kind, {})) for kind in _AE_KINDS]


def build_compressor(spec: CompressorSpec, train_norm: ds_mod.SurveyDataset, stats=None):
    """Fit the requested compressor kind on normalized training data.

    Returns (compressor, train_report_or_None); `stats` adds the dBm RMSE
    to an autoencoder's report.
    """
    if spec.kind == "identity":
        return IdentityCompressor(train_norm.m), None
    if spec.kind == "pca":
        # Clip to the AP count so the standard pca30/pca10 baselines stay
        # runnable on small surveys.
        c = min(spec.latent_dim, train_norm.m)
        return PcaCompressor(pca_mod.fit(train_norm.Z, c)), None
    params, report = ae.train(train_norm, spec.train, stats)
    return AutoencoderCompressor(params), report


def latent_targets(compressor, train_norm: ds_mod.SurveyDataset):
    """(mean, std, Y): the compressor's training latents standardized per column.

    Every GP map is fitted on its Y, in train and when evaluate rebuilds
    the map from train.csv, so the two maps agree bit for bit.
    """
    return ds_mod.standardize(compressor.encode(train_norm.Z))


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
    targets = [latent_targets(compressor, train_norm) for _, compressor in items]
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
    """The pipeline's GP hyperparameters and fitted compressor.

    The map's training locations and targets are not stored, nor is any
    width: they follow from train.csv and the compressor (see pipeline_from_dict).
    """
    comp = pipeline.compressor
    if isinstance(comp, IdentityCompressor):
        comp_doc = {"kind": "identity"}
    elif isinstance(comp, PcaCompressor):
        comp_doc = {"kind": "pca", "model": pca_mod.model_to_dict(comp.model)}
    elif isinstance(comp, AutoencoderCompressor):
        comp_doc = {"kind": "autoencoder", "model": ae.params_to_dict(comp.params)}
    else:
        raise ConfigError(f"cannot serialize compressor {type(comp).__name__}")
    return {
        "format_version": PIPELINE_FORMAT_VERSION,
        "hyperparams": asdict(pipeline.gp.hyperparams),
        "compressor": comp_doc,
    }


def pipeline_from_dict(doc: dict, label: str, train_norm: ds_mod.SurveyDataset) -> Pipeline:
    """Rebuild the pipeline `label` from its document and the normalized training rows.

    The map is fitted at the stored hyperparameters on the targets
    `latent_targets` makes, as `build_pipelines` fitted it; an identity
    takes train.csv's width. The label comes from the caller, which named the file.
    """
    if doc.get("format_version") != PIPELINE_FORMAT_VERSION:
        raise DataError(
            f"unsupported pipeline format_version {doc.get('format_version')!r}"
            f" (expected {PIPELINE_FORMAT_VERSION}; rerun train to rewrite the file)"
        )
    comp_doc = doc["compressor"]
    kind = comp_doc.get("kind")
    if kind == "identity":
        comp = IdentityCompressor(train_norm.m)
    elif kind == "pca":
        comp = PcaCompressor(pca_mod.model_from_dict(comp_doc["model"]))
    elif kind == "autoencoder":
        comp = AutoencoderCompressor(ae.params_from_dict(comp_doc["model"]))
    else:
        raise DataError(f"unknown compressor kind {kind!r} in pipeline file")
    mean, std, Y = latent_targets(comp, train_norm)
    model = gp_map.fit(train_norm.X, Y, gp_map.GpHyperparams(**doc["hyperparams"]))
    return Pipeline(label=label, compressor=comp, gp=model, latent_mean=mean, latent_std=std)


def _write_json(path: str, doc: dict) -> None:
    """Stream `doc` as indent-1 JSON into an atomic write, chunk by chunk.

    The bytes equal `json.dumps(doc, indent=1)`, but the text is never held
    whole. A NaN or infinity in `doc` is a NumericalError, raised before
    the target is touched.
    """
    try:
        ds_mod.atomic_write(path, lambda fh: json.dump(doc, fh, indent=1, allow_nan=False))
    except ValueError as exc:
        raise NumericalError(f"{path}: {exc}") from None


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
        _write_json(os.path.join(output_dir, "manifest.json"), self.doc)


def _reject_constant(name: str):
    raise DataError(f"non-finite number {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise DataError(f"number {text} overflows a double")
    return value


def _load_artifact(path: str, parse):
    """Parse a JSON artifact written by train; a bad file is a DataError naming it.

    train never writes NaN or Infinity (see _write_json), so either one here
    is a corrupt file, and so is a number such as 1e400 that parses to one.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh, parse_constant=_reject_constant, parse_float=_finite_float))
    except (DataError, ConfigError) as exc:
        raise DataError(f"{path}: {exc}") from None
    except (OSError, ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise DataError(f"{path}: corrupt or unreadable artifact: {exc!r}") from None


def _check_ap_order(test_ids, train_ids, test_path: str, train_path: str) -> None:
    """The test file's AP columns are the train file's, in the same order.

    The normalization stats and every compressor are indexed by column, so
    a reordered column would be scored against another AP's statistics. A
    column that one file lacks reads as None.
    """
    for k, (test_id, train_id) in enumerate(itertools.zip_longest(test_ids, train_ids)):
        if test_id != train_id:
            raise DataError(
                f"{test_path} does not fit {train_path}: AP column {k} is {test_id!r}"
                f" in the test file and {train_id!r} in the train file"
            )


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
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {outdir!r}: {exc.strerror or exc}") from None
    own_manifest = manifest is None
    manifest = manifest or Manifest(cfg)

    full = obtain_dataset(cfg)
    train_raw, test_raw = ds_mod.split(full, cfg.test_fraction, cfg.seed + _SPLIT_SEED_OFFSET, cfg.split_mode)
    ds_mod.save_csv(train_raw, os.path.join(outdir, "train.csv"))
    ds_mod.save_csv(test_raw, os.path.join(outdir, "test.csv"))
    manifest.artifact("train.csv")
    manifest.artifact("test.csv")

    train_norm, stats = ds_mod.normalize(train_raw)
    manifest.stage("dataset")

    built = []
    for spec in cfg.compressors:
        built.append((spec, *build_compressor(spec, train_norm, stats)))
        manifest.stage(f"train:{spec.label}")

    pipelines = build_pipelines([(spec.label, comp) for spec, comp, _ in built], train_norm, cfg.gp_grid)
    manifest.stage("gp_search")

    summary = []
    for (spec, compressor, report), pipeline in zip(built, pipelines):
        label = spec.label
        path = os.path.join(outdir, f"pipeline_{label}.json")
        _write_json(path, pipeline_to_dict(pipeline))
        manifest.artifact(path)
        trained = [None] * 4  # empty cells for a compressor without a report
        if report is not None:
            path = os.path.join(outdir, f"train_report_{label}.csv")
            losses = zip(report.recon_losses, report.sparsity_losses, report.distance_losses,
                         report.heldout_mse)
            ds_mod.write_csv(path, ["epoch", "reconstruction", "sparsity", "distance", "heldout_mse"],
                             ([e, *loss] for e, loss in enumerate(losses, 1)))
            manifest.artifact(path)
            trained = [report.final_rmse, report.final_rmse_dbm, len(report.recon_losses),
                       report.best_epoch]
        summary.append([label, spec.kind, compressor.latent_dim, *trained])

    ds_mod.write_csv(os.path.join(outdir, "training_summary.csv"),
                     ["label", "kind", "latent_dim", "final_rmse", "final_rmse_dbm", "epochs", "best_epoch"],
                     summary)
    manifest.artifact("training_summary.csv")
    manifest.stage("write")
    if own_manifest:
        manifest.write(outdir)
    return [spec.label for spec in cfg.compressors]


def run_evaluate(cfg: ExperimentConfig, manifest: Manifest | None = None) -> list[loc.EvalResult]:
    """Score saved pipelines on the saved test split; `manifest` as in run_train.

    train.csv is normalized as train normalized it, and each map is rebuilt
    from it and its pipeline file (see pipeline_from_dict). Every pipeline
    is read before any is scored, so a missing or corrupt file is reported
    first; no eval or summary file is written then.
    """
    outdir = cfg.output_dir
    if not os.path.isdir(outdir):
        raise DataError(f"output directory {outdir!r} is not an existing directory; run train first")
    own_manifest = manifest is None
    manifest = manifest or Manifest(cfg)
    for name in ("train.csv", "test.csv"):
        if not os.path.exists(os.path.join(outdir, name)):
            raise DataError(f"missing artifact {os.path.join(outdir, name)}; run train first")

    train_path, test_path = os.path.join(outdir, "train.csv"), os.path.join(outdir, "test.csv")
    train_raw = ds_mod.load_csv(train_path)
    test_raw = ds_mod.load_csv(test_path)
    _check_ap_order(test_raw.ap_ids, train_raw.ap_ids, test_path, train_path)
    train_norm, stats = ds_mod.normalize(train_raw)
    test_norm = ds_mod.apply_normalization(test_raw, stats)

    ev = cfg.evaluation
    for idx in ev.raster_indices:
        if not 0 <= idx < test_norm.n:
            raise ConfigError(f"raster index {idx} out of range [0, {test_norm.n})")

    pipelines = []
    for spec in cfg.compressors:
        path = os.path.join(outdir, f"pipeline_{spec.label}.json")
        if not os.path.exists(path):
            raise DataError(f"missing model file {path}")
        pipelines.append(_load_artifact(path, lambda doc: pipeline_from_dict(doc, spec.label, train_norm)))
    manifest.stage("load")

    all_points = np.vstack([train_raw.X, test_raw.X])
    grid = Grid.cover(all_points, ev.cell_size, ev.margin_cells)
    results = loc.evaluate(pipelines, test_norm, grid, ev.sigma_m, ev.raster_indices)
    manifest.stage("evaluate")

    for result in results:
        per_point = os.path.join(outdir, f"eval_{result.label}.csv")
        loc.save_eval_csv(result, test_norm, per_point)
        manifest.artifact(per_point)
        for idx in ev.raster_indices:
            raster = os.path.join(outdir, f"field_{result.label}_{idx:04d}.pgm")
            loc.save_field_pgm(result.rasters[idx], raster)
            manifest.artifact(raster)
    ds_mod.write_csv(os.path.join(outdir, "summary.csv"), ["label", "mean_kl", "mean_argmax_error_m"],
                     ([r.label, r.mean_kl, r.mean_argmax_error_m] for r in results))
    manifest.artifact("summary.csv")
    manifest.stage("report")
    if own_manifest:
        manifest.write(outdir)
    return results


def run_compare(cfg: ExperimentConfig) -> list[loc.EvalResult]:
    """Train and evaluate the standard five pipelines, write one manifest, and
    return the results ranked by mean KL, lowest first."""
    cfg = replace(cfg, compressors=default_compare_compressors(cfg))
    manifest = Manifest(cfg)
    run_train(cfg, manifest)
    results = run_evaluate(cfg, manifest)
    ranked = sorted(results, key=lambda r: r.mean_kl)
    ds_mod.write_csv(os.path.join(cfg.output_dir, "ranking.csv"),
                     ["rank", "label", "mean_kl", "mean_argmax_error_m"],
                     ([i, r.label, r.mean_kl, r.mean_argmax_error_m] for i, r in enumerate(ranked, 1)))
    manifest.artifact("ranking.csv")
    manifest.stage("rank")
    manifest.write(cfg.output_dir)
    return ranked
