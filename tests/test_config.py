"""Typed configs: every field is checked for type and range on construction,
and a bad config file ends in one `error:` line and exit 1."""

import json
import math

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from cohgraph.cli import _resolve_configs, main
from cohgraph.corpus import write_corpus
from cohgraph.fusion.config import (RETIRED_FIELDS, ModelConfig, TrainConfig,
                                    config_hash)
from cohgraph.synth import SynthProfile, synth_generate
from cohgraph.variants import Variant

MODEL_INTS = ("d_model", "n_heads", "n_layers", "d_ffn",
              "max_relative_distance", "seed", "n_token_buckets",
              "n_entity_buckets", "max_elements")


@pytest.mark.parametrize("field", MODEL_INTS)
@pytest.mark.parametrize("value", [True, 2.0, "4", None, {}])
def test_an_int_field_refuses_other_types(field, value):
    with pytest.raises(ValueError, match=field):
        ModelConfig(**{field: value})


@pytest.mark.parametrize("config, field", [
    (ModelConfig, "dropout_rate"), (TrainConfig, "lr"),
    (TrainConfig, "weight_decay"), (TrainConfig, "eps")])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "0.1"])
def test_a_float_field_refuses_non_finite_and_other_types(config, field,
                                                          value):
    with pytest.raises(ValueError, match=field):
        config(**{field: value})


def test_a_float_field_stores_an_int_as_a_float():
    assert ModelConfig(dropout_rate=0).dropout_rate == 0.0
    assert type(TrainConfig(lr=1).lr) is float
    assert (config_hash(ModelConfig(dropout_rate=0))
            == config_hash(ModelConfig(dropout_rate=0.0)))


@pytest.mark.parametrize("field", ["n_token_buckets", "n_entity_buckets",
                                   "max_elements", "max_relative_distance"])
def test_counts_must_be_at_least_one(field):
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        ModelConfig(**{field: 0})


@pytest.mark.parametrize("kwargs, match", [
    ({"seed": -1}, "seed must be >= 0"),
    ({"d_ffn": -1}, "d_ffn must be >= 0"),
    ({"dtype": "float16"}, "unknown dtype 'float16'"),
    ({"dtype": "f4"}, "unknown dtype"),
])
def test_model_ranges(kwargs, match):
    with pytest.raises(ValueError, match=match):
        ModelConfig(**kwargs)


@pytest.mark.parametrize("kwargs, match", [
    ({"betas": (0.9,)}, "betas"),
    ({"betas": (0.9, 1.0)}, "betas"),
    ({"betas": (-0.1, 0.9)}, "betas"),
    ({"betas": (0.9, "0.99")}, "betas"),
    ({"betas": 0.9}, "betas"),
    ({"eps": 0.0}, "eps must be > 0"),
    ({"batch_size": 0}, "batch_size must be >= 1"),
    ({"batch_size": 2.5}, "batch_size"),
    ({"epochs": -1}, "epochs must be >= 0"),
    ({"seed": "x"}, "seed"),
    ({"variant": "Full"}, "variant must be a Variant"),
])
def test_train_ranges(kwargs, match):
    with pytest.raises(ValueError, match=match):
        TrainConfig(**kwargs)


def test_model_config_has_no_retired_field():
    assert len(ModelConfig.__dataclass_fields__) == 11
    assert not RETIRED_FIELDS.keys() & ModelConfig().to_dict().keys()
    for name in RETIRED_FIELDS:
        with pytest.raises(TypeError, match=name):
            ModelConfig(**{name: RETIRED_FIELDS[name]})


@pytest.mark.parametrize("field, value", [
    ("scale_scores", False), ("position_activation", "relu"),
    ("pooling", "first_sentence"), ("share_uv", True),
    ("ffn_activation", "relu"), ("n_classes", 5), ("scale_scores", 1),
    ("share_uv", 0), ("n_classes", 3.0)])
def test_a_recorded_retired_field_at_another_value_is_refused(field, value):
    with pytest.raises(ValueError, match=f"^retired field {field} must be "
                                         f"{RETIRED_FIELDS[field]!r}, got "):
        ModelConfig.from_dict({field: value})


def test_betas_are_stored_as_a_tuple_of_floats():
    config = TrainConfig.from_dict({"betas": [0, 0.5]})
    assert config.betas == (0.0, 0.5)
    assert TrainConfig.from_dict(config.to_dict()) == config


@pytest.fixture
def corpus(tmp_path):
    profile = SynthProfile(name="cfg", n_sentences=(3, 4),
                           tokens_per_sentence=(3, 5), domain_tags=("synthA",))
    path = tmp_path / "corpus.jsonl"
    write_corpus(synth_generate(6, seed=2, profile=profile), path)
    return path


def _run_with_config(command, corpus, out, cfg):
    """Run train, cv or xdomain on corpus with the config file cfg, writing
    its checkpoint or report to out."""
    args = {"train": ["train", str(corpus), str(out)],
            "cv": ["cv", str(corpus), "--report", str(out)],
            "xdomain": ["xdomain", str(corpus), "--report", str(out),
                        "--train-tag", "synthA", "--test-tag", "synthA"]}
    return CliRunner().invoke(main, args[command] + ["--config", str(cfg)])


@pytest.mark.parametrize("section, values", [
    ("model", {"n_token_buckets": 0}),
    ("model", {"seed": "x"}),
    ("train", {"seed": "x"}),
    ("train", {"batch_size": 2.5}),
    ("model", {"max_elements": {}}),
    ("model", {"dtype": "float16"}),
    ("model", {"dtype": None}),
    # a retired field is an unknown one, even at the value the model has
    ("model", {"pooling": "mean_sentences"}),
])
@pytest.mark.parametrize("command", ["train", "cv", "xdomain"])
def test_a_bad_config_file_exits_1_with_one_error_line(tmp_path, corpus,
                                                       section, values,
                                                       command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: values}))
    out = tmp_path / "out"
    result = _run_with_config(command, corpus, out, cfg)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: invalid "
                                                   "configuration: ")
    assert next(iter(values)) in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "cv", "xdomain"])
def test_an_unknown_top_level_key_exits_1_before_writing(tmp_path, corpus,
                                                         command):
    """A misspelt section is refused, not dropped: this file would
    otherwise train the default d_model 256 model."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"modle": {"d_model": 8, "n_heads": 2}}))
    out = tmp_path / "out"
    result = _run_with_config(command, corpus, out, cfg)
    assert result.exit_code == 1, result.output
    assert result.output.splitlines() == [
        f"error: config file {cfg}: unknown key 'modle'; expected \"model\" "
        f"or \"train\""]
    assert not out.exists()


@pytest.mark.parametrize("section", ["model", "train"])
def test_a_config_section_that_is_not_an_object_exits_1(tmp_path, corpus,
                                                       section):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: [1, 2]}))
    result = CliRunner().invoke(main, ["train", str(corpus),
                                       str(tmp_path / "x.ckpt"),
                                       "--config", str(cfg)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f'"{section}" is not a JSON object' in result.output


def test_a_float64_run_is_asked_for_in_the_config_file(tmp_path, corpus):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"d_model": 8, "n_heads": 2,
                                         "n_layers": 1, "dtype": "float64"},
                               "train": {"epochs": 1}}))
    model_config, _ = _resolve_configs(str(cfg), None, None, None, None,
                                       None, None, None, None, None)
    assert model_config.dtype == "float64"
    assert _resolve_configs(None, *[None] * 9)[0].dtype == "float32"


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
    st.lists(st.integers(0, 1), max_size=3), st.just({}))


@settings(max_examples=150, deadline=None)
@given(model=st.dictionaries(st.sampled_from(
           list(ModelConfig.__dataclass_fields__) + ["bogus"]), JSON_VALUES,
           max_size=3),
       train=st.dictionaries(st.sampled_from(
           list(TrainConfig.__dataclass_fields__)), JSON_VALUES, max_size=3))
def test_any_json_config_resolves_or_raises_value_error(tmp_path_factory,
                                                       model, train):
    """A config file of any JSON values gives valid configs or a
    ValueError, which the front door turns into one line and exit 1."""
    cfg = tmp_path_factory.mktemp("cfg") / "cfg.json"
    cfg.write_text(json.dumps({"model": model, "train": train}))
    try:
        model_config, train_config = _resolve_configs(str(cfg),
                                                      *[None] * 9)
    except ValueError:
        return
    assert isinstance(train_config.variant, Variant)
    assert model_config.dtype in ("float32", "float64")
