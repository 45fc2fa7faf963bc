"""Model hyperparameters and their key=value text representation.

The same key=value syntax is used by the CLI config file and by the config
block embedded in saved model files, so one parser/formatter pair lives
here. Floats are rendered with ``repr`` (shortest round-trip form), which
is locale-independent and reconstructs the exact float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import partial

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
        problem = self._invalid()
        if problem is not None:
            raise DataError(problem, stage="config")

    def _invalid(self) -> str | None:
        """Why the hyperparameters are unusable, or None when they are fine."""
        for name in ("alpha", "beta", "kappa", "lambda2", "eig_floor"):
            value = getattr(self, name)
            if not math.isfinite(value):
                return f"{name} must be finite, got {value}"
        if self.alpha < 0:
            return f"alpha must be >= 0, got {self.alpha}"
        if self.beta <= 0:
            return f"beta must be > 0, got {self.beta}"
        if self.kappa < 0:
            return f"kappa must be >= 0, got {self.kappa}"
        if self.lambda2 < 0:
            return f"lambda2 must be >= 0, got {self.lambda2}"
        if self.k1 < 0 or self.k2 < 0:
            return f"k1 and k2 must be >= 0, got k1={self.k1} k2={self.k2}"
        if self.d < 1:
            return f"d must be >= 1, got {self.d}"
        if self.K < 1:
            return f"K must be >= 1, got {self.K}"
        if self.pca_retain is not None and self.pca_retain < 0:
            return f"pca_retain must be >= 0 or auto, got {self.pca_retain}"
        if self.eig_floor < 0:
            return f"eig_floor must be >= 0, got {self.eig_floor}"
        return None

    def with_overrides(self, **kwargs) -> "MenConfig":
        return replace(self, **kwargs)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_optional(parse, text: str):
    return None if text.strip().lower() in ("auto", "none", "") else parse(text)


_PARSERS = {"float": float, "int": int, "bool": _parse_bool}


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_to_lines(cfg: MenConfig) -> list[str]:
    """Render a config as key=value lines in fixed field order."""
    return [f"{f.name}={_format_value(getattr(cfg, f.name))}" for f in fields(cfg)]


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
    """Build a `cls` (a dataclass of float, int and bool fields, any of them
    optional) from a string mapping, coercing per field type.

    Keys absent from the mapping keep their defaults. Unknown keys and
    values that do not parse raise DataError (stage config) naming the key.
    """
    # key -> coercion function, read off the annotations (strings under the
    # __future__ import)
    schema = {
        f.name: partial(_parse_optional, _PARSERS[f.type.removesuffix(" | None")])
        if f.type.endswith(" | None") else _PARSERS[f.type]
        for f in fields(cls)
    }
    kwargs = {}
    for key, text in mapping.items():
        if key not in schema:
            raise DataError(f"unknown config key: {key}", stage="config")
        kwargs[key] = parse_value(key, text, schema[key])
    return cls(**kwargs)
