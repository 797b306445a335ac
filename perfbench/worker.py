"""One benchmark process: set up, run one job, write a JSON result.

Usage: python3 worker.py SPEC.json RESULT.json

SPEC names the checkout's `src` directory, an experiment config and a
kind:
- `probe`: import the package and load the config, nothing more;
- `cli`: then run one `rss-atlas` command in this process;
- `localize`: fit the `input` and `pca10` maps and build their fields
  (set-up), then answer fresh queries for `seconds` seconds.

Every kind stamps `setup_done` with `time.monotonic()`, a system-wide clock,
so the parent can time set-up from the moment it started this process.
With `trace` set, the public functions of the package are wrapped by
`tracer.Tracer` and the per-layer totals are added to the result.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time

# Queries re-run after the timed loop to score KL and to digest the answers.
CHECK_QUERIES = 200
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class QueryStream:
    """Fresh localization queries through the surveyed environment.

    Positions lie on the survey's serpentine shifted by half a pass gap, so
    they fall between surveyed passes. Query k sits at arc length
    frac(k * golden ratio) of the path, so any prefix of the stream spreads
    over the whole path and no position repeats. RSS is the generator's
    path loss from the same AP layout plus independent shadowing drawn from
    the seed, clamped at the floor, then normalized with the training stats.
    """

    def __init__(self, synth, seed, stats, ap_ids):
        import numpy as np
        from rss_atlas import dataset

        self._np, self._ds = np, dataset
        self.synth, self.stats, self.ap_ids = synth, stats, ap_ids
        self.aps = dataset.ap_positions(synth, seed)
        wp = np.asarray(synth.waypoints, dtype=float)
        ys = np.unique(wp[:, 1])
        shift = float(np.min(np.diff(ys))) / 2.0 if ys.size > 1 else 0.0
        path = wp + [0.0, shift]
        path[:, 1] = np.clip(path[:, 1], ys[0], ys[-1])
        keep = np.concatenate([[True], np.hypot(*np.diff(path, axis=0).T) > 0])
        self.path = path[keep]
        seg = np.hypot(*np.diff(self.path, axis=0).T)
        self.cum = np.concatenate([[0.0], np.cumsum(seg)])
        self.rng = np.random.default_rng([seed, 1])
        self.k = 0

    def take(self, n: int):
        """Next n queries: (n x 2 true positions, n x m normalized RSS)."""
        np, ds = self._np, self._ds
        s = np.mod((self.k + 1 + np.arange(n)) * GOLDEN, 1.0) * self.cum[-1]
        self.k += n
        X = np.column_stack([np.interp(s, self.cum, self.path[:, 0]),
                             np.interp(s, self.cum, self.path[:, 1])])
        dist = np.hypot(X[:, None, 0] - self.aps[None, :, 0], X[:, None, 1] - self.aps[None, :, 1])
        Z = ds.path_loss_dbm(self.synth, dist)
        Z = Z + self.synth.shadowing_std_dbm * self.rng.standard_normal(Z.shape)
        Z = np.maximum(Z, self.synth.floor_dbm)
        raw = ds.SurveyDataset(X=X, Z=Z, ap_ids=self.ap_ids)
        return X, ds.apply_normalization(raw, self.stats).Z


def _in_grid(grid, center) -> bool:
    ix, iy = grid.cell_of(center)
    return 0 <= ix < grid.width and 0 <= iy < grid.height


def localize(cfg, spec: dict) -> dict:
    import numpy as np
    from rss_atlas import dataset as ds
    from rss_atlas import experiment as ex
    from rss_atlas import localization as loc
    from rss_atlas import pca
    from rss_atlas.errors import RssAtlasError

    full = ds.synthesize(cfg.synth, cfg.seed)
    train_raw, test_raw = ds.split(full, cfg.test_fraction, cfg.seed + 1, cfg.split_mode)
    train, stats = ds.normalize(train_raw)
    pipelines = [
        ex.build_pipeline("input", loc.IdentityCompressor(train.m), train, cfg.gp_grid),
        ex.build_pipeline(
            "pca10", loc.PcaCompressor(pca.fit(train.Z, min(10, train.m))), train, cfg.gp_grid
        ),
    ]
    ev = cfg.evaluation
    grid = loc.Grid.cover(np.vstack([train_raw.X, test_raw.X]), ev.cell_size, ev.margin_cells)
    builders = [loc.FieldBuilder(p, grid) for p in pipelines]
    out = {"setup_done": time.monotonic(), "n_train": train.n, "n_test": test_raw.n,
           "n_cells": grid.n_cells}

    stream = QueryStream(cfg.synth, cfg.seed, stats, train.ap_ids)
    latencies, cpu, failed, err_sum = [], [], 0, [0.0] * len(builders)
    deadline = time.perf_counter() + spec["seconds"]
    while time.perf_counter() < deadline:
        X, Z = stream.take(64)
        for x, z in zip(X, Z):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                centers = [b.field_for(z).argmax_center() for b in builders]
            except RssAtlasError:
                failed += 1
                continue
            finally:
                cpu.append(time.process_time() - c0)
                latencies.append(time.perf_counter() - t0)
            if not all(_in_grid(grid, c) for c in centers):
                failed += 1
            for j, (cx, cy) in enumerate(centers):
                err_sum[j] += math.hypot(cx - x[0], cy - x[1])
            if time.perf_counter() >= deadline:
                break

    # Score and digest a fixed prefix of the stream, so the quality numbers
    # and the digest do not depend on how many queries the loop answered.
    X, Z = QueryStream(cfg.synth, cfg.seed, stats, train.ap_ids).take(CHECK_QUERIES)
    digest = hashlib.sha256(repr([p.gp.hyperparams for p in pipelines]).encode())
    kl = []
    for b, p in zip(builders, pipelines):
        kls, centers = [], []
        for x, z in zip(X, Z):
            fld = b.field_for(z)
            kls.append(loc.kl_divergence(loc.ideal_posterior(grid, x, ev.sigma_m), fld))
            centers.append(fld.argmax_center())
        kl.append(float(np.mean(kls)))
        digest.update(np.asarray(kls).tobytes() + np.asarray(centers).tobytes())
    out.update(
        latencies=latencies, cpu=cpu, failed=failed, labels=[p.label for p in pipelines],
        mean_error_m=[e / max(1, len(latencies)) for e in err_sum], mean_kl=kl,
        digest=digest.hexdigest(),
    )
    return out


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    import rss_atlas
    from rss_atlas import cli, experiment

    import_s = time.perf_counter() - t0
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(rss_atlas.__file__).startswith(src + os.sep):
        raise SystemExit(f"rss_atlas imported from {rss_atlas.__file__}, not from {src}")
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    cfg = experiment.load_config(spec["config"])
    result = {"import_s": import_s, "setup_done": time.monotonic()}
    if spec["kind"] == "cli":
        t0, c0 = time.perf_counter(), time.process_time()
        result["exit"] = cli.main(spec["argv"])
        result["op_cpu_s"] = time.process_time() - c0
        result["op_s"] = time.perf_counter() - t0
    elif spec["kind"] == "localize":
        result.update(localize(cfg, spec))

    if tracer is not None:
        result["layers"] = tracer.aggregate()
        tracer.write(spec["spans_path"])
    tmp = argv[2] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
