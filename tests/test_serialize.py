"""Round-trip and error behavior of the sectioned model text format."""

import numpy as np
import pytest

from hsilab import serialize
from hsilab.core import ConfigError, Dims
from hsilab.envs import (
    EnvModel,
    build_controlled_drift_instance,
    build_hard_instance_flat_emission,
    build_hard_instance_groups,
    build_hard_instance_tree,
    controlled_drift_candidates,
    random_independent_model,
)
from hsilab.serialize import (
    dump_candidates,
    dump_model,
    dumps_candidates,
    dumps_model,
    load_candidates,
    load_model,
    loads_candidates,
    loads_model,
    parse_sections,
)


def _assert_models_equal(a, b):
    assert a.name == b.name
    assert a.dims == b.dims
    assert a.class_tag == b.class_tag
    assert a.transition_form == b.transition_form
    np.testing.assert_array_equal(a.initial, b.initial)
    np.testing.assert_array_equal(a.rewards, b.rewards)
    np.testing.assert_array_equal(a.state_vectors, b.state_vectors)
    if a.transition_form == "product":
        np.testing.assert_array_equal(a.product, b.product)
    else:
        np.testing.assert_array_equal(a.joint, b.joint)
    if a.emissions is None:
        assert b.emissions is None
    else:
        assert set(a.emissions) == set(b.emissions)
        for key in a.emissions:
            np.testing.assert_array_equal(a.emissions[key], b.emissions[key])


@pytest.mark.parametrize(
    "model",
    [
        build_hard_instance_groups(2, 0.1),
        build_hard_instance_groups(3, 0.05, 2),
        build_hard_instance_flat_emission(0.1),
        build_hard_instance_tree(2, 3, 2, 0.1),
        random_independent_model(
            Dims(d=3, alphabet_size=2, d_query=1, horizon=3, n_actions=2), 7
        ),
        build_controlled_drift_instance(),
    ],
    ids=["groups-d2", "groups-d3q2", "flat", "tree", "random", "drift"],
)
def test_roundtrip_exact(model):
    _assert_models_equal(model, loads_model(dumps_model(model)))


def test_roundtrip_is_bitexact_for_awkward_floats():
    dims = Dims(d=1, alphabet_size=2, d_query=1, horizon=1, n_actions=1)
    third = 1.0 / 3.0
    m = EnvModel.from_joint(
        name="thirds",
        dims=dims,
        class_tag="Generic",
        initial=np.array([third, 1.0 - third]),
        joint=np.zeros((0, 2, 1, 2)),
        rewards=np.array([[[0.1 + 0.2], [np.nextafter(1.0, 0.0)]]]),
    )
    back = loads_model(dumps_model(m))
    assert back.initial[0] == third
    assert back.rewards[0, 0, 0] == 0.1 + 0.2
    assert back.rewards[0, 1, 0] == np.nextafter(1.0, 0.0)


def test_candidate_file_roundtrip(tmp_path):
    cands = controlled_drift_candidates()
    path = tmp_path / "cands.txt"
    dump_candidates(cands, path)
    back = load_candidates(path)
    assert len(back) == 8
    for a, b in zip(cands, back):
        _assert_models_equal(a, b)


def test_dump_load_single_model(tmp_path):
    m = build_hard_instance_groups(2, 0.1)
    path = tmp_path / "m.txt"
    dump_model(m, path)
    _assert_models_equal(m, load_model(path))


def test_candidates_text_is_concatenation():
    cands = controlled_drift_candidates()[:2]
    text = dumps_candidates(cands)
    assert text.count("[model]") == 2
    assert len(loads_candidates(text)) == 2


def test_parse_sections_line_numbers_in_errors():
    with pytest.raises(ConfigError, match="cfg:3"):
        parse_sections("[model]\nname = x\nbroken line\n", source="cfg")
    with pytest.raises(ConfigError, match="cfg:1"):
        parse_sections("orphan = 1\n", source="cfg")


def test_loads_model_requires_exactly_one_model():
    m = build_hard_instance_groups(2, 0.1)
    two = dumps_model(m) + "\n" + dumps_model(m)
    with pytest.raises(ConfigError):
        loads_model(two)
    with pytest.raises(ConfigError):
        loads_model("")


def test_missing_section_is_named_in_error():
    m = build_hard_instance_flat_emission(0.1)
    text = dumps_model(m)
    without_initial = "\n".join(
        line for line in text.splitlines() if not line.startswith("[initial")
        and not line.startswith("p =")
    )
    with pytest.raises(ConfigError, match="initial"):
        loads_model(without_initial)


def test_unknown_transition_form_is_rejected():
    text = dumps_model(build_hard_instance_groups(2, 0.1))
    assert "transition_form = joint" in text
    with pytest.raises(ConfigError, match="bad transition_form 'banana'"):
        loads_model(text.replace("transition_form = joint", "transition_form = banana"))


def test_malformed_probability_row_is_rejected():
    m = build_hard_instance_groups(2, 0.1)
    text = dumps_model(m).replace("[rewards h=4]", "[rewards h=9]")
    with pytest.raises(ConfigError):
        loads_model(text)


def test_comments_and_blank_lines_ignored():
    m = build_hard_instance_groups(2, 0.1)
    text = "# leading comment\n\n" + dumps_model(m) + "\n# trailing\n"
    _assert_models_equal(m, loads_model(text))


def _drop_section(text, header):
    """Text without one section: its header line through the next blank line."""
    lines = text.splitlines() + [""]
    start = lines.index(header)
    end = lines.index("", start)
    return "\n".join(lines[:start] + lines[end:])


_JOINT = build_hard_instance_tree(2, 2, 2, 0.1)  # transitions h=1..2, a=0..1
_PRODUCT = random_independent_model(
    Dims(d=2, alphabet_size=2, d_query=1, horizon=3, n_actions=2), 5
)


@pytest.mark.parametrize(
    "model, edit, message",
    [
        (
            _JOINT,
            lambda t: t.replace("[transitions h=2 a=1]", "[transitions h=3 a=1]"),
            "transitions h=3 a=1 out of range",
        ),
        (
            _JOINT,
            lambda t: t.replace("[transitions h=2 a=1]", "[transitions h=2 a=0]"),
            "duplicate transitions h=2 a=0",
        ),
        (
            _JOINT,
            lambda t: _drop_section(
                _drop_section(t, "[transitions h=2 a=0]"), "[transitions h=1 a=1]"
            ),
            "missing [transitions h=1 a=1]",
        ),
        (
            _PRODUCT,
            lambda t: t.replace(
                "[sub-transitions h=1 i=1 a=1]", "[sub-transitions h=1 i=2 a=1]"
            ),
            "sub-transitions h=1 i=2 a=1 out of range",
        ),
        (
            _PRODUCT,
            lambda t: t.replace(
                "[sub-transitions h=2 i=0 a=1]", "[sub-transitions h=2 i=0 a=0]"
            ),
            "duplicate sub-transitions h=2 i=0 a=0",
        ),
        (
            _PRODUCT,
            lambda t: _drop_section(
                _drop_section(t, "[sub-transitions h=2 i=1 a=0]"),
                "[sub-transitions h=1 i=1 a=1]",
            ),
            "missing [sub-transitions h=1 i=1 a=1]",
        ),
        (
            _JOINT,
            lambda t: t.replace("[rewards h=2]", "[rewards h=0]"),
            "rewards h=0 out of range",
        ),
        (
            _JOINT,
            lambda t: t.replace("[rewards h=3]", "[rewards h=1]"),
            "duplicate rewards h=1",
        ),
        (
            _JOINT,
            lambda t: _drop_section(
                _drop_section(t, "[rewards h=3]"), "[rewards h=2]"
            ),
            "missing [rewards h=2]",
        ),
    ],
    ids=[
        f"{kind}-{fault}"
        for kind in ("transitions", "sub-transitions", "rewards")
        for fault in ("out-of-range", "duplicate", "missing")
    ],
)
def test_keyed_section_errors(model, edit, message):
    text = edit(dumps_model(model))
    lines = text.splitlines()
    if message.startswith("missing"):
        line = 1  # reported at the [model] header
    else:
        key = message.removeprefix("duplicate ").removesuffix(" out of range")
        # reported at the last section with this header
        line = len(lines) - lines[::-1].index(f"[{key}]")
    with pytest.raises(ConfigError) as err:
        loads_model(text, source="m")
    assert str(err.value) == f"m:{line}: {message}"


@pytest.mark.parametrize(
    "edits, shape",
    [
        ({"n_actions = 2": "n_actions = 99999999999"},
         "(1, 2, 2, 99999999999, 2) transition"),
        ({"horizon = 2": "horizon = 1", "n_actions = 2": "n_actions = 99999999999"},
         "(1, 4, 99999999999) reward"),
        ({"alphabet_size = 2": "alphabet_size = 1", "d = 2": "d = 99999999999"},
         "(1, 99999999999) state-vector"),
        ({"n_observations = 2": "n_observations = 99999999999"},
         "(99999999999, 2) emission"),
    ],
    ids=["transition", "reward", "state-vector", "emission"],
)
def test_oversized_header_is_refused_before_any_table_is_built(
    monkeypatch, edits, shape
):
    text = dumps_model(build_controlled_drift_instance())
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)

    def no_alloc(*args, **kwargs):
        raise AssertionError("built a table from an unchecked header")

    monkeypatch.setattr(np, "zeros", no_alloc)
    monkeypatch.setattr(serialize, "canonical_state_vectors", no_alloc)
    with pytest.raises(ConfigError) as err:
        loads_model(text, source="m")
    assert str(err.value) == (
        f"m:1: model 'controlled-drift-t0.8-d0.7-e0.8' needs a {shape} table, "
        "over the cap of 134217728 cells"
    )
