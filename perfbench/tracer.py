"""Span tracer that wraps rss_atlas's public functions from outside the package.

Each wrapped call records one span: name, start, end and the span that was
open when it began (its parent). Spans stay in memory for the life of the
process; `aggregate` folds them into per-layer totals and `write` dumps the
raw spans when the run ends. Nothing in `src/` knows about the tracer: the
wrappers replace the module attributes, so calls made through a module
(`gp_map.fit`) and names imported into another module (`experiment`'s
`FieldBuilder`) are both caught.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time

# Public functions wrapped in each module, traced as "<module>.<function>":
# the layer boundaries that the per-layer metrics read, plus the commands.
FUNCTIONS = {
    "cli": ["main"],
    "experiment": [
        "load_config", "run_compare", "run_train", "run_evaluate", "build_pipeline",
        "pipeline_to_dict", "pipeline_from_dict", "atomic_write_text",
    ],
    "dataset": ["synthesize", "load_csv"],
    "autoencoder": ["train", "forward", "encode"],
    "pca": ["fit"],
    "gp_map": ["select_hyperparams", "log_marginal_likelihood", "fit", "predict_batch"],
    "localization": [
        "evaluate", "ideal_posterior", "kl_divergence", "save_eval_csv", "save_field_pgm",
    ],
}

# FieldBuilder is a class: its constructor is the grid precompute and
# field_for is the per-measurement query.
METHODS = {
    ("localization", "FieldBuilder", "__init__"): "localization.FieldBuilder",
    ("localization", "FieldBuilder", "field_for"): "localization.field_for",
}

# Spans that also record how much they raised the process's RSS high-water mark.
HWM_SPANS = frozenset({
    "localization.FieldBuilder", "gp_map.select_hyperparams",
    "autoencoder.train", "experiment.run_train",
})

# Span record fields.
NAME, START, END, PARENT, HWM_MB, ERROR, EXTRA = range(7)


def _hwm_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _text_bytes(args, kwargs, out) -> int:
    return len(_arg(args, kwargs, 1, "text").encode("utf-8"))


def _cells(args, kwargs, out) -> int:
    return len(_arg(args, kwargs, 1, "X_star"))


def _training_step(args, kwargs, out) -> int:
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "inference")
    return int(mode == "training")


def _edge_hits(args, kwargs, out) -> int:
    """Axes (length scale, signal, noise) on which the choice is a grid extreme."""
    grid = _arg(args, kwargs, 2, "grid")
    hits = 0
    for axis in ("length_scale", "signal_variance", "noise_variance"):
        values = [getattr(hp, axis) for hp in grid]
        if len(set(values)) > 1 and getattr(out, axis) in (min(values), max(values)):
            hits += 1
    return hits


EXTRAS = {
    "experiment.atomic_write_text": _text_bytes,
    "gp_map.predict_batch": _cells,
    "autoencoder.forward": _training_step,
    "gp_map.select_hyperparams": _edge_hits,
}


class Tracer:
    """Collects spans for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        hwm = name in HWM_SPANS
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, None, 0]
            stack.append(len(spans))
            spans.append(rec)
            h0 = _hwm_kb() if hwm else 0
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
                if hwm:
                    rec[HWM_MB] = (_hwm_kb() - h0) / 1024.0
            if extra is not None:
                rec[EXTRA] = extra(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Replace every wrapped function in every loaded rss_atlas module."""
        modules = [m for n, m in sys.modules.items() if n == "rss_atlas" or n.startswith("rss_atlas.")]
        for mod_name, names in FUNCTIONS.items():
            mod = sys.modules[f"rss_atlas.{mod_name}"]
            for fname in names:
                original = getattr(mod, fname)
                wrapped = self.wrap(f"{mod_name}.{fname}", original)
                for m in modules:
                    if getattr(m, fname, None) is original:
                        setattr(m, fname, wrapped)
        for (mod_name, cls_name, meth), span_name in METHODS.items():
            cls = getattr(sys.modules[f"rss_atlas.{mod_name}"], cls_name)
            setattr(cls, meth, self.wrap(span_name, getattr(cls, meth)))

    def aggregate(self) -> dict:
        """Per span name: inclusive and self seconds, calls, errors, extras.

        Self time is a span's duration minus the time covered by its child
        spans; calls are single-threaded, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out: dict[str, dict] = {}
        for i, rec in enumerate(self.spans):
            d = rec[END] - rec[START]
            a = out.setdefault(
                rec[NAME], {"s": 0.0, "self_s": 0.0, "calls": 0, "errors": 0, "hwm_mb": 0.0, "extra": 0}
            )
            a["s"] += d
            a["self_s"] += d - child[i]
            a["calls"] += 1
            a["errors"] += rec[ERROR] is not None
            a["hwm_mb"] += rec[HWM_MB]
            a["extra"] += rec[EXTRA]
        field_for = [r[END] - r[START] for r in self.spans if r[NAME] == "localization.field_for"]
        if field_for:
            out["localization.field_for"]["durations"] = field_for
        return out

    def write(self, path: str) -> None:
        fields = ("name", "start", "end", "parent", "hwm_delta_mb", "error", "extra")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(fields, rec)) for rec in self.spans], fh)
