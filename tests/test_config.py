import dataclasses
import json

import pytest
from hypothesis import given, strategies as st

from unlearnkit import ConfigError, UnlearnConfig, config_hash, train_hash
from unlearnkit.nn import parse_backbone

# ------------------------------------------------------------- identity pins
#
# A run's config_hash names its run directory and its train_hash its
# checkpoint directory, so a change that moves either renames every artifact
# of that recipe. Recorded before values were stored in canonical form.

IDENTITY_PINS = {
    "default": ({}, "7b0797f9c678a4df", "0d6ab323b909b9ff"),
    "spiral": (dict(data_name="spiral:c3:s125:d2:noise0.1"),
               "f7f82bd2e20c37be", "9f8b87a8ff7226e1"),
    "ring": (dict(data_name="ring:c3:s125:d2:noise0.15"),
             "71f3a002093fb704", "bd9ca1357ecd3666"),
    "adapter": (dict(adapter_rank=2, adapter_layer=1), "a83f9df6932583e4", "0d6ab323b909b9ff"),
    "curriculum": (dict(curriculum=True), "3d095144d527d49f", "0d6ab323b909b9ff"),
    # the config test_unlearn.py's _golden_run builds for its tanh_sgd variant
    "tanh_sgd": (dict(data_name="gaussian_blobs:c3:s30:d4:noise0.1", backbone="mlp:12,10:tanh",
                      seed=0, train_epochs=25, epochs=6, optimizer="sgd", learning_rate=0.05,
                      train_learning_rate=0.05),
                 "64233f34632d93b5", "c5475259c944be73"),
    # the benchmark's wide workload
    "wide": (dict(data_name="gaussian_blobs:c10:s250:d64", backbone="mlp:256,256",
                  train_batch_size=256, batch_size=256, train_epochs=30),
             "35b1f14468642cbe", "e16594a962299453"),
}


@pytest.mark.parametrize("name", sorted(IDENTITY_PINS))
def test_config_and_train_hashes_match_their_pins(name):
    values, run_key, train_key = IDENTITY_PINS[name]
    cfg = UnlearnConfig(**values)
    assert (config_hash(cfg), train_hash(cfg)) == (run_key, train_key)


# ---------------------------------------------------------- canonical values

@pytest.mark.parametrize("key", ["learning_rate", "train_learning_rate", "budget_seconds"])
def test_an_int_float_value_is_stored_as_a_float_with_the_hashes_of_that_float(key):
    as_int, as_float = UnlearnConfig(**{key: 1}), UnlearnConfig(**{key: 1.0})
    assert type(getattr(as_int, key)) is float
    assert as_int == as_float
    assert config_hash(as_int) == config_hash(as_float)
    assert train_hash(as_int) == train_hash(as_float)
    assert json.dumps(as_int.resolved_dict()) == json.dumps(as_float.resolved_dict())
    replaced = dataclasses.replace(UnlearnConfig(), **{key: 1})
    assert type(getattr(replaced, key)) is float


@pytest.mark.parametrize("key", ["learning_rate", "adapter_scale", "budget_seconds"])
def test_an_int_too_large_for_a_float_is_a_config_error(key):
    with pytest.raises(ConfigError, match=f"^{key} must be finite, got 1000"):
        UnlearnConfig.from_mapping({key: 10**400})


def test_a_run_file_with_an_int_learning_rate_loads_to_the_hash_of_the_flag_text(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**UnlearnConfig().resolved_dict(), "learning_rate": 1}))
    loaded = UnlearnConfig.load(path)
    assert config_hash(loaded) == config_hash(UnlearnConfig.from_mapping({"learning_rate": "1"}))


@pytest.mark.parametrize("spelling, canonical", [
    ("mlp:32,32:relu", "mlp:32,32"), ("mlp:32,32,", "mlp:32,32"), ("mlp:032,32", "mlp:32,32"),
    ("mlp", "mlp:32"), ("mlp::tanh", "mlp:32:tanh"), ("mlp:10,8:tanh", "mlp:10,8:tanh"),
    ("mlp:,", "mlp:,"), ("mlp:,:relu", "mlp:,"),
])
def test_a_backbone_is_stored_in_the_spelling_its_parse_implies(spelling, canonical):
    cfg = UnlearnConfig(backbone=spelling)
    assert cfg.backbone == canonical
    assert config_hash(cfg) == config_hash(UnlearnConfig(backbone=canonical))
    assert train_hash(cfg) == train_hash(UnlearnConfig(backbone=canonical))


@given(hidden=st.lists(st.integers(1, 300), max_size=4),
       activation=st.sampled_from(["", ":relu", ":tanh"]),
       trailing=st.sampled_from(["", ","]))
def test_a_stored_backbone_builds_the_model_it_was_given_and_is_stored_as_itself(
        hidden, activation, trailing):
    spelling = "mlp:" + ",".join(map(str, hidden)) + trailing + activation
    stored = UnlearnConfig(backbone=spelling).backbone
    assert parse_backbone(stored) == parse_backbone(spelling)
    assert UnlearnConfig(backbone=stored).backbone == stored
