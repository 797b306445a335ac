"""rss-atlas benchmark: run one workload, check its outputs, print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload compare --seed 0 --seconds 10 --trace 0

Workloads (see README.md for why each was chosen):
- `compare`: `rss-atlas compare` on the default synthetic survey.
- `maps_dense`: `rss-atlas train` then `rss-atlas evaluate` with identity,
  pca30 and pca10 on the default environment sampled every 0.8 m.
- `localize`: fit the `input` and `pca10` maps, then a closed loop of one
  client localizing fresh measurements against both maps.

Every job and every set-up runs in a fresh process (perfbench/worker.py), so
one job's RSS high-water mark never leaks into the next. Job workloads
repeat whole jobs until `--seconds` have passed (at least one job);
`localize` spreads its query time over several processes so that set-up is
sampled more than once. The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics` -- the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The line
before it holds the run's details: environment, every metric the workload
defines, counts and output digests.

The benchmark only reads and writes inside the checkout, under
`.perfbench_work/`.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPANS = ROOT / ".perfbench_work" / "spans"   # raw spans of the last traced run

WORKLOADS = ("compare", "maps_dense", "localize")
SETUP_PROBES = 5          # extra import-and-config processes per job workload
LOCALIZE_PROCESSES = 3    # each sets up once, then queries for seconds / 3
COMPARE_EPOCHS = 300      # 2,100 Adam steps per autoencoder on 418 training rows
RUN_BUDGET_S = 170.0      # every worker is killed once the run has used this much
# One BLAS thread: on a few shared cores a second thread spins while it waits
# for the first, so its wall time measures the scheduler more than the program
# (maps_dense, 2 threads: 54-63 CPU-s per 34-42 s job; 1 thread: 30-35 CPU-s
# per 30-37 s job).
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

COMPARE_LABELS = ("input", "pca30", "pca10", "sparse_ae", "distance_ae")
DENSE_LABELS = ("input", "pca30", "pca10")

# A8's survey: 60 x 40 m, 12 APs, 40 epochs. Used by the benchmark's own tests.
TINY = {
    "synth": {"area": [60, 40], "n_aps": 12, "shadowing_std_dbm": 3.0,
              "shadowing_correlation_length_m": 1.0, "sample_spacing_m": 2.0},
    "split": {"test_fraction": 0.25, "mode": "random"},
    "gp_grid": {"length_scales": [5, 10], "signal_variances": [0.5, 1.0],
                "noise_variances": [0.05, 0.1]},
    "cell_size": 2.0,
    "ae_train": {"latent_dim": 4, "hidden_dim": 10, "epochs": 40, "batch_size": 16},
}

# Gated metrics: every workload reports every one of them. An operation is one
# `compare` job, one `train` + `evaluate` pair, or one query against both maps.
# Quality, tail latency and throughput are printed on the details line only:
# see README.md.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# (metric, unit, span, field of tracer.Tracer.aggregate) summed over the
# traced job's processes.
PER_LAYER_SPANS = [
    ("autoencoder.train.s", "s", "autoencoder.train", "s"),
    ("autoencoder.steps", "count", "autoencoder.forward", "extra"),
    ("autoencoder.encode.s", "s", "autoencoder.encode", "s"),
    ("gp_map.select_hyperparams.s", "s", "gp_map.select_hyperparams", "s"),
    ("gp_map.log_marginal_likelihood.calls", "count", "gp_map.log_marginal_likelihood", "calls"),
    ("gp_map.select_hyperparams.edge_hits", "count", "gp_map.select_hyperparams", "extra"),
    ("gp_map.fit.s", "s", "gp_map.fit", "s"),
    ("gp_map.fit.calls", "count", "gp_map.fit", "calls"),
    ("gp_map.predict_batch.s", "s", "gp_map.predict_batch", "s"),
    ("gp_map.predict_batch.cells", "count", "gp_map.predict_batch", "extra"),
    ("localization.FieldBuilder.s", "s", "localization.FieldBuilder", "s"),
    ("localization.FieldBuilder.calls", "count", "localization.FieldBuilder", "calls"),
    ("localization.field_for.s", "s", "localization.field_for", "s"),
    ("localization.field_for.calls", "count", "localization.field_for", "calls"),
    ("localization.ideal_posterior.s", "s", "localization.ideal_posterior", "s"),
    ("localization.ideal_posterior.calls", "count", "localization.ideal_posterior", "calls"),
    ("localization.kl_divergence.s", "s", "localization.kl_divergence", "s"),
    ("localization.evaluate.self_s", "s", "localization.evaluate", "self_s"),
    ("localization.save_eval_csv.s", "s", "localization.save_eval_csv", "s"),
    ("localization.save_field_pgm.s", "s", "localization.save_field_pgm", "s"),
    ("pca.fit.s", "s", "pca.fit", "s"),
    ("pca.fit.calls", "count", "pca.fit", "calls"),
    ("experiment.run_train.self_s", "s", "experiment.run_train", "self_s"),
    ("experiment.run_evaluate.self_s", "s", "experiment.run_evaluate", "self_s"),
    ("experiment.build_pipeline.s", "s", "experiment.build_pipeline", "s"),
    ("experiment.pipeline_to_dict.s", "s", "experiment.pipeline_to_dict", "s"),
    ("experiment.pipeline_from_dict.s", "s", "experiment.pipeline_from_dict", "s"),
    ("experiment.atomic_write_text.s", "s", "experiment.atomic_write_text", "s"),
    ("experiment.atomic_write_text.calls", "count", "experiment.atomic_write_text", "calls"),
    ("experiment.atomic_write_text.bytes", "bytes", "experiment.atomic_write_text", "extra"),
    ("dataset.synthesize.s", "s", "dataset.synthesize", "s"),
    ("dataset.load_csv.s", "s", "dataset.load_csv", "s"),
    ("experiment.load_config.s", "s", "experiment.load_config", "s"),
    ("localization.FieldBuilder.rss_hwm_delta_mb", "MB", "localization.FieldBuilder", "hwm_mb"),
    ("gp_map.select_hyperparams.rss_hwm_delta_mb", "MB", "gp_map.select_hyperparams", "hwm_mb"),
    ("autoencoder.train.rss_hwm_delta_mb", "MB", "autoencoder.train", "hwm_mb"),
    ("experiment.run_train.rss_hwm_delta_mb", "MB", "experiment.run_train", "hwm_mb"),
]
PER_LAYER_DERIVED = {
    "autoencoder.step_ms": "ms",
    "gp_map.evidence_ok_ratio": "ratio",
    "localization.field_for.p50_ms": "ms",
    "experiment.artifact_bytes": "bytes",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}


class CheckError(Exception):
    """A job's outputs are missing or wrong."""


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def config_doc(workload: str, size: str, seed: int, output_dir: str) -> dict:
    """The experiment config of one workload; the CLI reads only this."""
    tiny = size == "tiny"
    synth = dict(TINY["synth"]) if tiny else {}
    doc = {
        "seed": seed,
        "output_dir": output_dir,
        "dataset": {"synth": synth},
        "evaluation": {"cell_size": TINY["cell_size"] if tiny else 1.0, "sigma_m": 10.0},
    }
    if tiny:
        doc["split"] = TINY["split"]
        doc["gp_grid"] = TINY["gp_grid"]
    if workload == "compare":
        doc["evaluation"]["raster_indices"] = [0]
        doc["ae_train"] = TINY["ae_train"] if tiny else {"epochs": COMPARE_EPOCHS}
    elif workload == "maps_dense":
        doc["evaluation"]["raster_indices"] = [0]
        synth["sample_spacing_m"] = 1.0 if tiny else 0.8
        doc["compressors"] = [
            {"kind": "identity"},
            {"kind": "pca", "latent_dim": 30},
            {"kind": "pca", "latent_dim": 10},
        ]
    return doc


def _rows(path: Path) -> list[dict]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))
    except FileNotFoundError:
        raise CheckError(f"missing {path.name}") from None


def _scores(rows: list[dict], labels: tuple[str, ...], source: str) -> dict:
    """mean_kl.<label> and argmax_error_m.<label> from a ranking or summary CSV."""
    if sorted(r["label"] for r in rows) != sorted(labels):
        raise CheckError(f"{source} lists {[r['label'] for r in rows]}, expected {list(labels)}")
    out = {}
    for r in rows:
        kl, err = float(r["mean_kl"]), float(r["mean_argmax_error_m"])
        if not (math.isfinite(kl) and kl >= 0.0 and math.isfinite(err)):
            raise CheckError(f"{source}: {r['label']} has KL {kl!r}, argmax error {err!r}")
        out[f"mean_kl.{r['label']}"] = kl
        out[f"argmax_error_m.{r['label']}"] = err
    return out


def check_compare(out: Path) -> dict:
    """ranking.csv has five finite, non-negative KLs."""
    scores = _scores(_rows(out / "ranking.csv"), COMPARE_LABELS, "ranking.csv")
    summary = {r["label"]: r for r in _rows(out / "training_summary.csv")}
    scores["recon_rmse_dbm.distance_ae"] = float(summary["distance_ae"]["final_rmse_dbm"])
    return scores


def check_maps_dense(out: Path) -> dict:
    """summary.csv has three rows, with finite, non-negative KLs."""
    return _scores(_rows(out / "summary.csv"), DENSE_LABELS, "summary.csv")


def csv_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.glob("*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    """Versions, BLAS, threads, CPU and caches; read-only from /proc and /sys."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "?")
    except OSError:
        env["cpu"] = "?"
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                env[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return env


class Run:
    """One benchmark run: its work directory, its processes and its tally."""

    def __init__(self, args):
        self.args = args
        self.src = ROOT / "src"
        self.work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.work.mkdir(parents=True)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup: list[float] = []
        self.digests: dict[str, str] = {}
        self._n = 0

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(message)
        print(f"perfbench: {message}", file=sys.stderr)

    def fresh(self, prefix: str) -> Path:
        """A new path in the work directory."""
        self._n += 1
        return self.work / f"{prefix}{self._n}"

    def config(self, output_dir: Path, seed: int | None = None) -> str:
        path = self.fresh("config").with_suffix(".json")
        seed = self.args.seed if seed is None else seed
        doc = config_doc(self.args.workload, self.args.size, seed, str(output_dir))
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def spawn(self, kind: str, config: str, trace: bool = False, **spec) -> dict | None:
        """Run one worker process; None (and a problem noted) if it fails."""
        stem = self.fresh("p")
        spec.update(src=str(self.src), kind=kind, config=config, trace=trace,
                    spans_path=str(SPANS / self.args.workload / f"{stem.name}.json"))
        Path(f"{stem}.spec.json").write_text(json.dumps(spec), encoding="utf-8")
        result = Path(f"{stem}.result.json")
        t0 = time.monotonic()
        with open(f"{stem}.log", "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, str(WORKER), f"{stem}.spec.json", str(result)],
                stdout=log, stderr=subprocess.STDOUT, cwd=self.work,
            )
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = "killed at the time budget"
        if code != 0 or not result.exists():
            tail = Path(f"{stem}.log").read_text(errors="replace").strip().splitlines()[-3:]
            self.fail(f"{kind} worker exited with {code}: {' | '.join(tail)}")
            return None
        res = json.loads(result.read_text(encoding="utf-8"))
        res["setup_s"] = res["setup_done"] - t0
        self.setup.append(res["setup_s"])
        return res

    def record_digest(self, part: str, digest: str) -> None:
        """Outputs of one seed must match within the run and across runs."""
        if self.digests.setdefault(part, digest) != digest:
            self.fail(f"{part}: output digest differs between same-seed operations in this run")

    def compare_stored_digests(self) -> None:
        store = ROOT / ".perfbench_work" / "digests.json"
        known = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
        for part, digest in self.digests.items():
            # BLAS results depend on the thread count, so it is part of the key.
            key = f"{self.args.workload}/{self.args.size}/{self.args.seed}/{part}/blas{BLAS_THREADS}"
            if known.setdefault(key, digest) != digest:
                self.fail(f"{part}: output digest differs from an earlier run with seed {self.args.seed}")
        tmp = store.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, store)


def run_job(run: Run, commands: list[list[str]], check, trace: bool) -> dict | None:
    """One CLI job in fresh processes, one per command; None if it failed."""
    run.attempted += 1
    out = run.fresh("out")
    config = run.config(out)
    job = {"op_s": 0.0, "op_cpu_s": 0.0, "layers": [], "import_s": 0.0}
    for cmd in commands:
        res = run.spawn("cli", config, trace, argv=[*cmd, "--config", config])
        if res is None:
            return None
        if res["exit"] != 0:
            run.fail(f"`rss-atlas {' '.join(cmd)}` exited with {res['exit']}")
            return None
        job["op_s"] += res["op_s"]
        job["op_cpu_s"] += res["op_cpu_s"]
        job["import_s"] += res["import_s"]
        job["layers"].append(res.get("layers", {}))
    try:
        job["scores"] = check(out)
    except (CheckError, KeyError, ValueError) as exc:
        run.fail(f"output check: {exc}")
        return None
    job["artifact_bytes"] = sum(p.stat().st_size for p in out.iterdir())
    run.record_digest("job", csv_digest(out))
    shutil.rmtree(out)
    return job


def run_job_workload(run: Run, commands: list[list[str]], check) -> tuple[dict, dict]:
    args = run.args
    if args.trace:
        plain = run_job(run, commands, check, trace=False)
        traced = run_job(run, commands, check, trace=True)
        if plain is None or traced is None:
            return {}, {}
        extra = {"experiment.artifact_bytes": traced["artifact_bytes"],
                 "cli.import_s": traced["import_s"],
                 "trace.overhead_s": traced["op_s"] - plain["op_s"]}
        return per_layer(traced["layers"], extra), {"wall_s": (plain["op_s"], "s")}

    probe_config = run.config(run.work / "probe")
    for _ in range(SETUP_PROBES):
        run.attempted += 1
        run.spawn("probe", probe_config)
    jobs = []
    start = time.monotonic()
    while not jobs or time.monotonic() - start < args.seconds:
        job = run_job(run, commands, check, trace=False)
        if job is None:
            break
        jobs.append(job)
    if not jobs:
        return {}, {}
    ops = [j["op_s"] for j in jobs]
    details = {"wall_s": (statistics.median(ops), "s"), "jobs": (len(jobs), "count"),
               "op_cpu_p50_ms": (1000.0 * statistics.median(j["op_cpu_s"] for j in jobs), "ms")}
    details.update(score_details(jobs[0]["scores"]))
    return end_to_end(run, ops), details


def end_to_end(run: Run, ops_s: list[float]) -> dict:
    return {
        "setup_s": statistics.median(run.setup),
        "op_p50_ms": 1000.0 * statistics.median(ops_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def score_details(scores: dict) -> dict:
    units = {"mean_kl": "nats", "argmax_error_m": "m", "recon_rmse_dbm": "dBm"}
    return {k: (v, units[k.split(".")[0]]) for k, v in scores.items()}


def per_layer(layer_dicts: list[dict], extra: dict) -> dict:
    merged: dict[str, dict] = {}
    for layers in layer_dicts:
        for name, agg in layers.items():
            m = merged.setdefault(name, {})
            for key, value in agg.items():
                m[key] = m[key] + value if key in m else value
    get = lambda span, field: merged.get(span, {}).get(field, 0)
    values = {metric: get(span, field) for metric, _, span, field in PER_LAYER_SPANS}
    steps = values["autoencoder.steps"]
    tried = values["gp_map.log_marginal_likelihood.calls"]
    durations = sorted(get("localization.field_for", "durations") or [0.0])
    values.update(extra)
    values["autoencoder.step_ms"] = 1000.0 * values["autoencoder.train.s"] / steps if steps else 0.0
    values["gp_map.evidence_ok_ratio"] = (
        (tried - get("gp_map.log_marginal_likelihood", "errors")) / tried if tried else 0.0
    )
    values["localization.field_for.p50_ms"] = 1000.0 * statistics.median(durations)
    return values


def run_localize(run: Run) -> tuple[dict, dict]:
    args = run.args
    n_proc = 2 if args.trace else LOCALIZE_PROCESSES
    results = []
    for i in range(n_proc):
        # Each untraced process surveys its own environment, so one run
        # averages over several; the traced run repeats the first.
        env = 0 if args.trace else i
        config = run.config(run.work / "localize", seed=args.seed * LOCALIZE_PROCESSES + env)
        traced = bool(args.trace) and i == 1
        run.attempted += 1
        res = run.spawn("localize", config, traced, seconds=args.seconds / n_proc)
        if res is None:
            continue
        run.attempted += len(res["latencies"])
        if res["failed"]:
            run.fail(f"{res['failed']} queries raised or answered outside the grid", res["failed"])
        run.record_digest(f"environment{env}", res["digest"])
        results.append(res)
    if not results:
        return {}, {}
    if args.trace:
        if len(results) < 2:
            return {}, {}
        plain, traced = results

        def cost(res, n):
            return res["setup_s"] + n * statistics.mean(res["latencies"])

        n = len(traced["latencies"])
        extra = {"experiment.artifact_bytes": 0, "cli.import_s": traced["import_s"],
                 "trace.overhead_s": cost(traced, n) - cost(plain, n)}
        return per_layer([traced["layers"]], extra), {}

    lat = sorted(x for r in results for x in r["latencies"])
    first = results[0]
    scores = {}
    for j, label in enumerate(first["labels"]):
        scores[f"mean_kl.{label}"] = statistics.fmean(r["mean_kl"][j] for r in results)
        scores[f"argmax_error_m.{label}"] = statistics.fmean(
            r["mean_error_m"][j] for r in results
        )
    lat_ms = [1000.0 * x for x in lat]
    details = {
        "wall_s": (sum(lat), "s"),
        "query_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_cpu_p50_ms": (1000.0 * statistics.median(x for r in results for x in r["cpu"]),
                          "ms"),
        "query_p99_ms": (percentile(lat_ms, 0.99), "ms"),
        "queries_per_s": (len(lat) / sum(lat), "1/s"),
        "queries": (len(lat), "count"),
        "query_error_m": (statistics.fmean(scores[f"argmax_error_m.{l}"] for l in first["labels"]), "m"),
    }
    details.update(score_details(scores))
    return end_to_end(run, lat), details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs A8's 60 x 40 m survey, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rss_atlas" / "__init__.py").is_file():
        print(f"perfbench: no rss_atlas sources under {ROOT / 'src'}; "
              "run from the root of an rss-atlas checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS

    run = Run(args)
    if args.trace:
        shutil.rmtree(SPANS / args.workload, ignore_errors=True)
        (SPANS / args.workload).mkdir(parents=True)
    try:
        if args.workload == "compare":
            metrics, details = run_job_workload(run, [["compare"]], check_compare)
        elif args.workload == "maps_dense":
            metrics, details = run_job_workload(run, [["train"], ["evaluate"]], check_maps_dense)
        else:
            metrics, details = run_localize(run)
        run.compare_stored_digests()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    units = {**END_TO_END, **{m: u for m, u, _, _ in PER_LAYER_SPANS}, **PER_LAYER_DERIVED}
    attempted = max(1, run.attempted)
    details.update({"setup_s": (statistics.median(run.setup) if run.setup else 0.0, "s"),
                    "error_rate": (run.failed / attempted, "ratio")})
    if not args.trace and "peak_rss_mb" in metrics:
        details["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "environment": environment(),
        "details": {k: {"value": v, "unit": u} for k, (v, u) in details.items()},
        "digests": run.digests,
        "setup_samples_s": run.setup, "problems": run.problems
    }))
    correct = run.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
