"""Wireless signal strength map compression and grid localization.

Surveys pair robot locations with RSS vectors over many access points.
The package compresses those vectors (PCA baseline or a distance
invariant sparse autoencoder), fits Gaussian process location-to-signal
maps in the input or latent space, and scores the resulting likelihood
fields against an ideal posterior with KL divergence.
"""

# cli is not imported here: `python -m rss_atlas.cli` would then find it
# already in sys.modules and runpy warns. `from rss_atlas import cli` loads it.
from . import autoencoder, dataset, experiment, gp_map, localization, pca
from .errors import (
    ConfigError,
    DataError,
    GpFitError,
    LikelihoodUnderflowError,
    NumericalError,
    RssAtlasError,
    TrainingDivergedError,
)

__version__ = "0.1.0"

__all__ = [
    "autoencoder",
    "cli",
    "dataset",
    "experiment",
    "gp_map",
    "localization",
    "pca",
    "ConfigError",
    "DataError",
    "GpFitError",
    "LikelihoodUnderflowError",
    "NumericalError",
    "RssAtlasError",
    "TrainingDivergedError",
    "__version__",
]
