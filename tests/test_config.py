"""Config parsing, override grammar, digest stability."""

import json
import os
from dataclasses import is_dataclass

import pytest

from munmt.config import (
    ExperimentConfig,
    apply_overrides,
    config_digest,
    from_dict,
    load_config,
    parse_override,
    read_config_doc,
    to_dict,
)
from munmt.errors import ConfigError


def test_defaults_validate():
    cfg = ExperimentConfig().validate()
    assert cfg.stage1.steps == 5000
    assert cfg.stage2b.steps == 1000
    assert cfg.stage3.sweeps == 20
    assert cfg.synthetic.round1_mono_fraction == 0.10
    assert cfg.pivots == {"xa": ["aa"]}


def test_from_dict_roundtrip():
    cfg = ExperimentConfig().validate()
    doc = to_dict(cfg)
    again = from_dict(doc)
    assert to_dict(again) == doc


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError) as e:
        from_dict({"sed": 1, "stage1": {"stps": 5}, "model": {"depth": 2}})
    msg = str(e.value)
    assert "sed" in msg and "stage1.stps" in msg and "model.depth" in msg


def test_all_violations_enumerated():
    with pytest.raises(ConfigError) as e:
        from_dict({"batch_size": 0, "temperature": -1,
                   "stage1": {"steps": -5}, "eval": {"mode": "wrong"}})
    msg = str(e.value)
    for frag in ("batch_size", "temperature", "stage1.steps", "eval.mode"):
        assert frag in msg


def test_nested_stage_parsing():
    cfg = from_dict({"stage1": {"steps": 7, "lr": {"peak": 0.01, "warmup": 2, "total": 10}},
                     "stage3": {"sweeps": 3}})
    assert cfg.stage1.steps == 7
    assert cfg.stage1.lr.peak == 0.01
    assert cfg.stage2a.steps == 5000  # untouched section keeps defaults
    assert cfg.stage3.sweeps == 3


@pytest.mark.parametrize("name", [name for name, val in vars(ExperimentConfig()).items()
                                  if is_dataclass(val)])
def test_empty_section_keeps_the_experiment_defaults(name):
    assert getattr(from_dict({name: {}}), name) == getattr(ExperimentConfig(), name)


@pytest.mark.parametrize("lr, fragment", [
    ({"peak": -1.0}, "stage1.lr.peak"),
    ({"peak": 0.1, "warmup": 100, "total": 10}, "stage1.lr.total"),
])
def test_bad_schedule_rejected(lr, fragment):
    with pytest.raises(ConfigError, match=fragment):
        from_dict({"stage1": {"lr": lr}})


@pytest.mark.parametrize("section", ["stage1", "stage3"])
@pytest.mark.parametrize("key, val", [("clip_norm", -1.0), ("weight_decay", -0.5),
                                      ("optimizer", "sgd")])
def test_every_stage_checks_its_optimizer_settings(section, key, val):
    with pytest.raises(ConfigError) as e:
        from_dict({section: {key: val}})
    assert f"{section}.{key}" in str(e.value)


def test_pivot_validation():
    with pytest.raises(ConfigError):
        from_dict({"pivots": {}})
    with pytest.raises(ConfigError):
        from_dict({"pivots": {"xa": []}})
    with pytest.raises(ConfigError):
        from_dict({"pivots": {"xa": ["xa"]}})


def test_benchmark_section_checked():
    with pytest.raises(ConfigError) as e:
        from_dict({"benchmark": {"vocab_types": 40, "auxiliaries": []}})
    assert "benchmark" in str(e.value)
    with pytest.raises(ConfigError):
        from_dict({"benchmark": {"no_such_knob": 1}})


@pytest.mark.parametrize("doc", [
    # lines of up to 20 * 5 pieces fit 200 pieces and 256 positions
    {"max_pieces": 200, "model": {"max_positions": 256}, "benchmark": {"len_max": 20}},
    # 80 pieces fit max_pieces (88) and a position table of 82 (80 + BOS/EOS)
    {"benchmark": {"len_max": 16}, "model": {"max_positions": 82}},
    # real data: no benchmark is generated, whatever its defaults
    {"max_pieces": 20, "manifest": "corpora/manifest.json"},
])
def test_benchmark_lines_fit_the_piece_limit(doc):
    cfg = from_dict(doc)
    assert cfg.piece_limit == min(cfg.max_pieces, cfg.model.max_positions - 2)


@pytest.mark.parametrize("doc", [
    # 80-piece lines, which the registry would drop at 20 pieces
    {"max_pieces": 20, "benchmark": {"len_max": 16}},
    # with no manifest named, the default benchmark's 45-piece lines
    {"max_pieces": 20},
    # 100-piece lines against the default 62 (64 positions minus BOS/EOS)
    {"benchmark": {"vocab_types": 40, "len_min": 3, "len_max": 20}},
])
def test_benchmark_lines_over_the_piece_limit_rejected(doc):
    with pytest.raises(ConfigError, match="piece limit"):
        from_dict(doc)


@pytest.mark.parametrize("version", [99, "x", "1", True, 1.0, None])
def test_other_schema_versions_rejected(version):
    with pytest.raises(ConfigError, match="schema_version"):
        from_dict({"schema_version": version})


def test_schema_version_optional_and_written(tmp_path):
    assert to_dict(from_dict({}))["schema_version"] == 1
    p = tmp_path / "resolved_config.json"
    p.write_text(json.dumps(to_dict(from_dict({"seed": 4}))))
    assert load_config(p).seed == 4


def test_override_parsing():
    assert parse_override("stage1.steps=40") == ("stage1.steps", 40)
    assert parse_override("eval.mode=13a") == ("eval.mode", "13a")
    assert parse_override("p_parallel=0.25") == ("p_parallel", 0.25)
    assert parse_override('pivots={"xa": ["ab"]}') == ("pivots", {"xa": ["ab"]})
    assert parse_override("synthetic.keep_round1=true") == ("synthetic.keep_round1", True)
    with pytest.raises(ConfigError):
        parse_override("no-equals-sign")
    with pytest.raises(ConfigError):
        parse_override("=5")


def test_overrides_apply_after_file():
    doc = {"stage1": {"steps": 100}}
    out = apply_overrides(doc, ["stage1.steps=7", "stage3.sweeps=2", "seed=9"])
    assert out["stage1"]["steps"] == 7
    assert out["stage3"]["sweeps"] == 2
    assert out["seed"] == 9
    assert doc["stage1"]["steps"] == 100  # input untouched
    cfg = from_dict(out)
    assert cfg.stage1.steps == 7 and cfg.seed == 9


def test_override_into_scalar_rejected():
    with pytest.raises(ConfigError):
        apply_overrides({"seed": 3}, ["seed.x=1"])


def test_override_unknown_key_caught_at_validation():
    out = apply_overrides({}, ["stage1.bogus=1"])
    with pytest.raises(ConfigError):
        from_dict(out)


def test_digest_stable_and_sensitive():
    a = config_digest(ExperimentConfig())
    b = config_digest(ExperimentConfig())
    assert a == b
    c = config_digest(from_dict({"seed": 1}))
    assert c != a


def test_config_file_data_paths_are_relative_to_the_file(tmp_path):
    d = tmp_path / "exp"
    d.mkdir()
    p = d / "exp.json"
    p.write_text(json.dumps({"manifest": "data/manifest.json",
                             "testsets": "/abs/testsets.json"}))
    doc = read_config_doc(p)
    assert doc["manifest"] == os.path.join(str(d), "data", "manifest.json")
    assert doc["testsets"] == "/abs/testsets.json"  # absolute stays as it is
    # an override is used as given
    doc = apply_overrides(doc, ["manifest=rel/manifest.json"])
    assert from_dict(doc).manifest == "rel/manifest.json"


def test_load_config_file(tmp_path):
    p = tmp_path / "exp.json"
    p.write_text(json.dumps({"seed": 5, "stage2b": {"steps": 11}}))
    cfg = load_config(p)
    assert cfg.seed == 5 and cfg.stage2b.steps == 11
    (tmp_path / "bad.json").write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(tmp_path / "bad.json")
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    (tmp_path / "list.json").write_text("[]")
    with pytest.raises(ConfigError, match="root must be a JSON object"):
        load_config(tmp_path / "list.json")
    (tmp_path / "latin1.json").write_bytes(b'{"seed": "\xe9"}')
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "latin1.json")
