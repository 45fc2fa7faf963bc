"""Config validation, key=value parsing, and serialization round-trips."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from men.config import MenConfig, config_from_mapping, config_to_lines, parse_kv_lines
from men.errors import DataError
from men.evaluation import SplitSpec


class TestValidation:
    def test_defaults_valid(self):
        cfg = MenConfig()
        assert cfg.beta > 0 and cfg.K >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=-1.0),
            dict(beta=0.0),
            dict(kappa=-0.1),
            dict(lambda2=-0.5),
            dict(k1=-1),
            dict(d=0),
            dict(K=0),
            dict(pca_retain=-2),
            dict(eig_floor=-1e-3),
            dict(k2=-1),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(DataError):
            MenConfig(**kwargs)

    @pytest.mark.parametrize(
        "name", ["alpha", "beta", "kappa", "lambda2", "eig_floor"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_nonfinite(self, name, value):
        with pytest.raises(DataError, match=f"{name} must be finite") as info:
            MenConfig(**{name: value})
        assert info.value.stage == "config"

    def test_replace_validates(self):
        # the CLI's --d/--K and evaluate's fit width go through replace
        cfg = replace(MenConfig(), d=5, K=7)
        assert (cfg.d, cfg.K) == (5, 7)
        assert MenConfig().d == 2  # original untouched
        with pytest.raises(DataError, match="d must be >= 1, got 0") as info:
            replace(MenConfig(), d=0)
        assert info.value.stage == "config"


class TestKinds:
    """Each field's annotated kind decides the values it takes and how it is kept."""

    @pytest.mark.parametrize(
        "cls, kwargs",
        [
            (MenConfig, dict(double_shrinkage_correction="no")),
            (MenConfig, dict(center_class_means=1)),
            (MenConfig, dict(d=1.5)),
            (MenConfig, dict(d=True)),
            (MenConfig, dict(K=2.0)),
            (MenConfig, dict(K=np.float64(2.0))),
            (MenConfig, dict(k1=1.5)),
            (MenConfig, dict(pca_retain=2.5)),
            (MenConfig, dict(alpha="1")),
            (MenConfig, dict(alpha=True)),
            (MenConfig, dict(alpha=np.bool_(True))),
            (SplitSpec, dict(seed=1.5)),
            (SplitSpec, dict(repeats="2")),
            (SplitSpec, dict(per_class_train=np.float64(3.0))),
        ],
        ids=[
            "flag-text", "flag-int", "d-fraction", "d-bool", "K-float", "K-numpy-float",
            "k1-fraction", "pca_retain-fraction", "alpha-text", "alpha-bool", "alpha-numpy-bool",
            "seed-fraction", "repeats-text", "per_class_train-numpy-float",
        ],
    )
    def test_wrong_kind_names_the_field(self, cls, kwargs):
        (name,) = kwargs
        with pytest.raises(DataError, match=f"^{name} must be ") as info:
            cls(**kwargs)
        assert info.value.stage == "config"

    def test_int_past_the_float_range_is_not_finite(self):
        with pytest.raises(DataError, match="alpha must be finite") as info:
            MenConfig(alpha=10**400)
        assert info.value.stage == "config"

    def test_numpy_and_int_values_kept_as_python_values(self):
        cfg = MenConfig(
            alpha=np.float64(0.01),
            beta=100,
            k1=np.int64(4),
            d=np.uint8(1),
            pca_retain=np.int32(3),
            double_shrinkage_correction=np.bool_(True),
        )
        plain = MenConfig(
            alpha=0.01, beta=100.0, k1=4, d=1, pca_retain=3, double_shrinkage_correction=True
        )
        assert field_reprs(cfg) == field_reprs(plain)
        assert config_to_lines(cfg) == config_to_lines(plain)
        split = SplitSpec(np.int64(3), np.int64(7), np.int16(2))
        assert field_reprs(split) == field_reprs(SplitSpec(3, 7, 2))


class TestKvParsing:
    def test_comments_and_blanks(self):
        mapping = parse_kv_lines(["# header", "", "alpha=2.0  # trailing", "K=3"])
        assert mapping == {"alpha": "2.0", "K": "3"}

    def test_missing_equals(self):
        with pytest.raises(DataError, match="line 2"):
            parse_kv_lines(["alpha=1.0", "beta 2.0"])

    def test_unknown_key_named(self):
        with pytest.raises(DataError, match="mystery"):
            config_from_mapping({"mystery": "1"})

    def test_bad_value_named(self):
        with pytest.raises(DataError, match="alpha"):
            config_from_mapping({"alpha": "fast"})

    @pytest.mark.parametrize(
        "parse",
        [
            lambda: parse_kv_lines(["beta 2.0"]),
            lambda: config_from_mapping({"mystery": "1"}),
            lambda: config_from_mapping({"alpha": "fast"}),
            lambda: config_from_mapping({"center_class_means": "maybe"}),
        ],
        ids=["missing-equals", "unknown-key", "bad-float", "bad-bool"],
    )
    def test_errors_tagged_config(self, parse):
        with pytest.raises(DataError) as info:
            parse()
        assert info.value.stage == "config"

    def test_bool_and_optional_forms(self):
        cfg = config_from_mapping(
            {
                "double_shrinkage_correction": "true",
                "center_class_means": "0",
                "pca_retain": "auto",
            }
        )
        assert cfg.double_shrinkage_correction is True
        assert cfg.center_class_means is False
        assert cfg.pca_retain is None
        assert config_from_mapping({"pca_retain": "0"}).pca_retain == 0

    def test_schema_is_the_field_list(self):
        mapping = parse_kv_lines(config_to_lines(MenConfig()))
        assert list(mapping) == [f.name for f in fields(MenConfig)]
        assert config_from_mapping(mapping) == MenConfig()
        split = {"per_class_train": "3", "seed": "7", "repeats": "2"}
        assert config_from_mapping(split, SplitSpec) == SplitSpec(3, 7, 2)
        with pytest.raises(DataError, match="unknown config key: K"):
            config_from_mapping({"K": "3"}, SplitSpec)
        assert config_from_mapping({"pca_retain": " None "}).pca_retain is None
        assert config_from_mapping({"pca_retain": ""}).pca_retain is None
        assert config_from_mapping({"eig_floor": " 0.5 "}).eig_floor == 0.5
        with pytest.raises(DataError, match="unknown config key: lambda1"):
            config_from_mapping({"lambda1": "none"})


class TestRoundTrip:
    def test_lines_reparse_exactly(self):
        cfg = MenConfig(
            alpha=0.1234567890123456,
            beta=17.25,
            lambda2=1e-9,
            kappa=2.5,
            pca_retain=12,
            double_shrinkage_correction=True,
        )
        mapping = parse_kv_lines(config_to_lines(cfg))
        assert config_from_mapping(mapping) == cfg

    def test_every_key_has_default(self):
        # every serialized key parses back on its own, so the documented
        # defaults cover the whole schema
        for line in config_to_lines(MenConfig()):
            key, value = line.split("=", 1)
            config_from_mapping({key: value})


_EXTREMES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]


def _weights(positive=False):
    """Finite floats >= 0 (> 0 when `positive`), with subnormals, signed zeros and the largest."""
    return st.floats(
        min_value=0.0, exclude_min=positive, allow_nan=False, allow_infinity=False
    ) | st.sampled_from([v for v in _EXTREMES if v > 0 or not positive])


_big_ints = st.integers(0, 2**200) | st.sampled_from([2**63 - 1, 2**63, 2**64])

# every MenConfig field, with None wherever the field allows it
men_configs = st.builds(
    MenConfig,
    alpha=_weights(),
    beta=_weights(positive=True),
    kappa=_weights(),
    lambda2=_weights(),
    k1=_big_ints,
    k2=_big_ints,
    d=_big_ints.filter(lambda v: v >= 1),
    K=_big_ints.filter(lambda v: v >= 1),
    pca_retain=st.none() | _big_ints,
    eig_floor=_weights(),
    double_shrinkage_correction=st.booleans(),
    center_class_means=st.booleans(),
)


def field_reprs(cfg):
    """Each field's repr, so -0.0 differs from 0.0 and 1 from 1.0."""
    return [repr(getattr(cfg, f.name)) for f in fields(cfg)]


@settings(max_examples=200, deadline=None)
@given(men_configs)
def test_lines_round_trip_property(cfg):
    back = config_from_mapping(parse_kv_lines(config_to_lines(cfg)))
    assert back == cfg
    assert field_reprs(back) == field_reprs(cfg)


@st.composite
def numpy_scalar_configs(draw):
    """A Python-typed MenConfig and its twin built with some values as numpy scalars."""
    cfg = draw(men_configs)
    kwargs = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if type(value) is int:
            to_numpy = np.int64 if -(2**63) <= value < 2**63 else None
        else:
            to_numpy = {float: np.float64, bool: np.bool_}.get(type(value))
        kwargs[f.name] = to_numpy(value) if to_numpy and draw(st.booleans()) else value
    return cfg, MenConfig(**kwargs)


@settings(max_examples=200, deadline=None)
@given(numpy_scalar_configs())
def test_numpy_scalar_configs_round_trip(pair):
    cfg, twin = pair
    assert config_from_mapping(parse_kv_lines(config_to_lines(twin))) == twin
    assert field_reprs(twin) == field_reprs(cfg)
    assert config_to_lines(twin) == config_to_lines(cfg)
