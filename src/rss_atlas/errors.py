"""Exception hierarchy shared across the package, the number check of configs
and the size check of arrays.

The CLI maps these onto process exit codes: ConfigError -> 1,
DataError -> 2, NumericalError -> 3.
"""

import math
import numbers
import operator
import sys
from dataclasses import fields


class RssAtlasError(Exception):
    """Base class for all package errors."""


class ConfigError(RssAtlasError):
    """Invalid configuration value or malformed config file."""


def check_number(name: str, value, integer: bool = False) -> None:
    """`value` is an integer if `integer` is set, else a finite number.

    A bool is neither: JSON `true`/`false` parse as Python ints.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if integer and not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if not integer and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")


# The bounds a numeric config field may declare in its metadata.
_BOUNDS = {
    "gt": (operator.gt, ">"), "ge": (operator.ge, ">="), "lt": (operator.lt, "<"), "le": (operator.le, "<="),
}


def check_numbers(config, prefix: str = "") -> None:
    """check_number on every `int` and `float` field of the dataclass `config`,
    then each bound the field declares in its metadata, e.g.
    `field(default=1e-4, metadata={"ge": 0})`.

    Fields are matched by annotation, which every config module keeps as a
    string (`from __future__ import annotations`). Messages name the field
    after `prefix`, e.g. "synth.n_aps must be >= 1, got 0".
    """
    for f in fields(config):
        if f.type in ("int", "float"):
            name, value = prefix + f.name, getattr(config, f.name)
            check_number(name, value, f.type == "int")
            for key, bound in f.metadata.items():
                holds, sign = _BOUNDS[key]
                if not holds(value, bound):
                    raise ConfigError(f"{name} must be {sign} {bound:g}, got {value}")


# The range of a length the program squares: the square roots of the
# smallest and largest normal doubles are 1.5e-154 and 1.3e154, so the
# square of a length in it is a finite, normal double.
SQUARED_LENGTH = {"ge": 1e-150, "le": 1e150}


def check_array_size(name: str, *shape) -> None:
    """A MemoryError if an array of doubles of `shape` is past what numpy can index.

    numpy refuses such a size with a ValueError, not a MemoryError; the
    CLI reports a MemoryError as a config error. `shape` may hold floats,
    so a count is checked before it is made an integer.
    """
    if not math.prod(shape) * 8 <= sys.maxsize:
        dims = " x ".join(f"{d:.4g}" for d in shape)
        raise MemoryError(f"Unable to allocate {name} of {dims} doubles: past the size an array can index")


class DataError(RssAtlasError):
    """Malformed input data (CSV files, inconsistent matrices)."""


class NumericalError(RssAtlasError):
    """A numerical procedure failed (non-PD matrix, divergence, underflow)."""


class GpFitError(NumericalError):
    """Gram matrix not positive definite even after the jitter retry."""


class TrainingDivergedError(NumericalError):
    """Autoencoder training produced a non-finite loss."""


class LikelihoodUnderflowError(NumericalError):
    """Every grid cell underflowed; the field cannot be normalized."""
