"""Model hyperparameters and their key=value text representation.

The same key=value syntax serves the CLI config file and the config block of
saved model files. One table of field kinds parses, writes and checks the
fields of MenConfig and of evaluation's SplitSpec. Floats are written with
``repr`` (shortest round-trip form), which reconstructs the exact float64.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .errors import DataError

__all__ = ["MenConfig", "config_to_lines", "config_from_mapping", "parse_kv_lines", "parse_value"]


@dataclass(frozen=True)
class MenConfig:
    """Hyperparameters of a single fit; the fit reads every one.

    alpha      weight of the manifold-alignment term (>= 0)
    beta       weight of the linearization term (> 0)
    kappa      within-patch push/pull trade-off (>= 0)
    lambda2    ridge weight of the elastic net penalty (>= 0)
    k1, k2     same-class / different-class neighbours per patch
    d          number of projection columns
    K          entry-event budget per column (each column has <= K nonzeros);
               stopping the LARS path there takes the place of an l1 weight
    pca_retain PCA preprocessing dimensions: None = auto (min(n-1, p)),
               0 = no preprocessing
    eig_floor  relative eigenvalue clamp for the spectral factorization
    double_shrinkage_correction
               report columns as sqrt(1+lambda2)*W* (elastic-net
               de-shrinking) instead of the default W*/sqrt(1+lambda2)
    center_class_means
               subtract the weighted global mean before the class-center
               PCA (conventional centering; off by default)
    """

    alpha: float = 1.0
    beta: float = 100.0
    kappa: float = 1.0
    lambda2: float = 0.01
    k1: int = 3
    k2: int = 3
    d: int = 2
    K: int = 10
    pca_retain: int | None = None
    eig_floor: float = 1e-10
    double_shrinkage_correction: bool = False
    center_class_means: bool = False

    def __post_init__(self):
        check_fields(self, _BOUNDS)


# each number field's lower bound
_BOUNDS = {
    "alpha": (">=", 0), "beta": (">", 0), "kappa": (">=", 0), "lambda2": (">=", 0),
    "k1": (">=", 0), "k2": (">=", 0), "d": (">=", 1), "K": (">=", 1),
    "pca_retain": (">=", 0), "eig_floor": (">=", 0),
}


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_optional(parse, text: str):
    return None if text.strip().lower() in ("auto", "none", "") else parse(text)


# per field annotation (a string under the __future__ import): the Python type
# a value is kept as, the value types taken (a bool only by the bool kind), and
# the text parser and formatter
_Kind = namedtuple("_Kind", "store takes parse format")
_KINDS = {
    "float": _Kind(float, numbers.Real, float, repr),
    "int": _Kind(int, numbers.Integral, int, str),
    "int | None": _Kind(int, numbers.Integral, partial(_parse_optional, int), str),
    "bool": _Kind(bool, (bool, np.bool_), _parse_bool, lambda v: "true" if v else "false"),
}


def checked_value(name: str, value, annotation: str, bound=None):
    """`value` as its kind's Python type, `annotation` a key of _KINDS; DataError
    (stage config) naming `name` for a value of another kind, a bool where a
    number belongs, a nonfinite float, or a number outside `bound`, a
    (">=" or ">", low) pair."""
    if value is None and annotation.endswith(" | None"):
        return None
    store, takes, _, _ = _KINDS[annotation]
    if not isinstance(value, takes) or (isinstance(value, bool) and store is not bool):
        raise DataError(f"{name} must be {annotation}, got {value!r}", stage="config")
    try:
        value = store(value)
    except OverflowError:  # an int past the float range
        value = math.inf
    if store is float and not math.isfinite(value):
        raise DataError(f"{name} must be finite, got {value}", stage="config")
    op, low = bound or (">=", -math.inf)
    if not (value > low if op == ">" else value >= low):
        raise DataError(f"{name} must be {op} {low}, got {value}", stage="config")
    return value


def check_fields(obj, bounds: dict) -> None:
    """Check each field of the frozen dataclass `obj` by its kind and its
    bound in `bounds`, if any, and store it as its kind's Python type."""
    for f in fields(obj):
        value = checked_value(f.name, getattr(obj, f.name), f.type, bounds.get(f.name))
        object.__setattr__(obj, f.name, value)


def config_to_lines(cfg: MenConfig) -> list[str]:
    """Render a config as key=value lines in fixed field order."""
    values = ((f.name, f.type, getattr(cfg, f.name)) for f in fields(cfg))
    return [f"{key}={'none' if v is None else _KINDS[kind].format(v)}" for key, kind, v in values]


def parse_kv_lines(lines) -> dict[str, str]:
    """Parse key=value text with '#' comments into a string mapping."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(
                f"line {lineno}: expected key=value, got {raw.strip()!r}", stage="config"
            )
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def parse_value(key: str, text: str, parse):
    """parse(text); a failure raises DataError (stage config) naming the key."""
    try:
        return parse(text)
    except (ValueError, TypeError) as exc:
        message = f"bad value for config key {key}: {text!r} ({exc})"
        raise DataError(message, stage="config") from exc


def config_from_mapping(mapping: dict[str, str], cls=MenConfig):
    """Build a `cls` (a dataclass whose annotations are keys of _KINDS) from a
    string mapping, parsing each value by its field's kind.

    Keys absent from the mapping keep their defaults. Unknown keys and
    values that do not parse raise DataError (stage config) naming the key.
    """
    schema = {f.name: _KINDS[f.type].parse for f in fields(cls)}
    kwargs = {}
    for key, text in mapping.items():
        if key not in schema:
            raise DataError(f"unknown config key: {key}", stage="config")
        kwargs[key] = parse_value(key, text, schema[key])
    return cls(**kwargs)
