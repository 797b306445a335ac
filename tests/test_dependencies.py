"""The package runs on numpy alone: one BLAS in every process.

scipy would load a second OpenBLAS, about 25 MB of resident memory and a
quarter of a second of import time, for nothing the package needs. The
subprocess test fails if any module of the CLI, or a train + evaluate run
through it, imports scipy; the pyproject test fails if it is declared again.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rss_atlas import cli

ROOT = Path(__file__).resolve().parents[1]

# A8's survey and GP grid, with each kind of compressor.
CONFIG = {
    "seed": 5,
    "dataset": {
        "synth": {
            "area": [60, 40], "n_aps": 12, "shadowing_std_dbm": 3.0,
            "shadowing_correlation_length_m": 1.0, "sample_spacing_m": 2.0,
        }
    },
    "split": {"test_fraction": 0.25, "mode": "random"},
    "gp_grid": {
        "length_scales": [5, 10], "signal_variances": [0.5, 1.0], "noise_variances": [0.05, 0.1],
    },
    "evaluation": {"cell_size": 2.0, "sigma_m": 10.0},
    "ae_train": {"latent_dim": 4, "hidden_dim": 10, "epochs": 40, "batch_size": 16},
    "compressors": [
        {"kind": "identity"}, {"kind": "pca", "latent_dim": 4}, {"kind": "distance_ae"},
    ],
}

CHILD = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import rss_atlas.cli
seen = {"import": scipy_modules()}
for command in ("train", "evaluate"):
    assert rss_atlas.cli.main([command, "--config", sys.argv[1]]) == 0
    seen[command] = scipy_modules()
print(json.dumps(seen))
"""


def test_cli_train_and_evaluate_import_no_scipy(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(CONFIG, output_dir=str(tmp_path / "out"))))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(cfg)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout.splitlines()[-1]) == {"import": [], "train": [], "evaluate": []}
    assert (tmp_path / "out" / "summary.csv").is_file()


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [dep.split(">")[0].split("=")[0].split("<")[0].strip() for dep in project["dependencies"]]
    assert names == ["numpy"]
