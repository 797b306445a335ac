"""Tests of the benchmark itself, on A8's tiny survey (60 x 40 m, 12 APs, 40 epochs).

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs once untraced and twice traced. The tests check that every
end-to-end and per-layer metric named in BENCHMARK.json is printed with its
unit, that no operation fails, that the layer counts have their expected
bases and repeat exactly, and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import run as bench  # noqa: E402
import worker  # noqa: E402
from rss_atlas import dataset, experiment  # noqa: E402

# Metrics each workload defines beyond the gated set, printed on the details line.
DETAILS = {
    "compare": [
        "wall_s", "op_cpu_p50_ms", "setup_s", "peak_rss_mb", "error_rate",
        *(f"mean_kl.{label}" for label in bench.COMPARE_LABELS),
        "argmax_error_m.distance_ae", "recon_rmse_dbm.distance_ae",
    ],
    "maps_dense": [
        "wall_s", "op_cpu_p50_ms", "setup_s", "peak_rss_mb", "error_rate",
        *(f"mean_kl.{label}" for label in bench.DENSE_LABELS),
    ],
    "localize": [
        "wall_s", "op_cpu_p50_ms", "setup_s", "peak_rss_mb", "error_rate", "query_p50_ms",
        "query_p99_ms", "queries_per_s", "queries", "query_error_m",
        "mean_kl.input", "mean_kl.pca10",
    ],
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def results() -> dict:
    out = {}
    for workload in WORKLOADS:
        for key in ((0, "a"), (1, "a"), (1, "b")):
            proc = run_bench(workload, key[0])
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            out[(workload, *key)] = (json.loads(lines[-2]), json.loads(lines[-1]))
    return out


def tiny_sizes(workload: str) -> tuple[int, int]:
    cfg = experiment.config_from_dict(bench.config_doc(workload, "tiny", 0, "unused"))
    train, test = dataset.split(dataset.synthesize(cfg.synth, 0), cfg.test_fraction, 1)
    return train.n, test.n


def assert_metrics(metrics: dict, spec: list[dict]) -> None:
    assert sorted(metrics) == sorted(m["name"] for m in spec)
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert math.isfinite(metrics[m["name"]]["value"]), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed(results, workload):
    details, result = results[(workload, 0, "a")]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(result["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert details["details"]["error_rate"]["value"] == 0
    for name in DETAILS[workload]:
        assert "unit" in details["details"][name], name
    assert {"nproc", "numpy", "scipy", "blas", "threads", "cpu"} <= set(details["environment"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_printed(results, workload):
    for run in ("a", "b"):
        _, result = results[(workload, 1, run)]
        assert result["correct"] and result["failed"] == 0
        assert_metrics(result["metrics"], SPEC["per_layer"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counts_repeat_exactly(results, workload):
    a = results[(workload, 1, "a")][1]["metrics"]
    b = results[(workload, 1, "b")][1]["metrics"]
    # Byte totals are left out: manifest.json records wall-clock stage times.
    counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    if workload == "localize":
        counted.remove("localization.field_for.calls")  # grows with the query count
    assert {n: a[n]["value"] for n in counted} == {n: b[n]["value"] for n in counted}
    traced = results[(workload, 1, "a")][0]["digests"]
    plain = results[(workload, 0, "a")][0]["digests"]
    assert traced and all(plain[part] == digest for part, digest in traced.items())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_count_bases(results, workload):
    m = {k: v["value"] for k, v in results[(workload, 1, "a")][1]["metrics"].items()}
    n_train, n_test = tiny_sizes(workload)
    grid = len(experiment.config_from_dict(bench.config_doc(workload, "tiny", 0, "x")).gp_grid)
    pipelines = {"compare": 5, "maps_dense": 3, "localize": 2}[workload]
    # One evidence fit per grid candidate plus the final fit, per pipeline.
    assert m["gp_map.fit.calls"] == pipelines * (grid + 1)
    assert m["gp_map.log_marginal_likelihood.calls"] == pipelines * grid
    if workload == "localize":
        assert m["pca.fit.calls"] == 1
        assert m["localization.FieldBuilder.calls"] == pipelines
        assert m["localization.ideal_posterior.calls"] == pipelines * worker.CHECK_QUERIES
        return
    # pca30 and pca10 each fit the same covariance; rasters rebuild every builder.
    assert m["pca.fit.calls"] == 2
    assert m["localization.FieldBuilder.calls"] == 2 * pipelines
    assert m["localization.ideal_posterior.calls"] == pipelines * n_test
    if workload == "compare":
        batch = bench.TINY["ae_train"]["batch_size"]
        batches = n_train // batch + (n_train % batch >= 2)
        assert m["autoencoder.steps"] == 2 * bench.TINY["ae_train"]["epochs"] * batches
    else:
        assert m["autoencoder.steps"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("compare", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_query_stream_never_repeats():
    cfg = experiment.config_from_dict(bench.config_doc("localize", "tiny", 3, "unused"))
    survey = dataset.synthesize(cfg.synth, 3)
    train, stats = dataset.normalize(survey)
    stream = worker.QueryStream(cfg.synth, 3, stats, train.ap_ids)
    X1, Z1 = stream.take(1000)
    X2, Z2 = stream.take(1000)
    X = [tuple(x) for x in X1.tolist() + X2.tolist()]
    assert len(set(X)) == len(X)
    lo, hi = survey.X.min(axis=0), survey.X.max(axis=0)
    assert all(lo[k] - 1e-9 <= x[k] <= hi[k] + 1e-9 for x in X for k in (0, 1))
    X1b, Z1b = worker.QueryStream(cfg.synth, 3, stats, train.ap_ids).take(1000)
    assert (X1b == X1).all() and (Z1b == Z1).all()
