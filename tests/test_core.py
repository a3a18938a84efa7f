"""State encoding, dimension bookkeeping, the feedback record, and the
package's export list."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from hsilab.core import (
    Dims,
    Feedback,
    decode_state,
    encode_state,
)


def extract_hsi(values, query):
    """Project a sub-state vector onto a query set: the (index, value) pairs
    in query order that a Feedback record carries as ``hsi``, e.g.
    extract_hsi([1, 0, 1], (0, 2)) -> ((0, 1), (2, 1))."""
    n = len(values)
    for i in query:
        if not 0 <= i < n:
            raise ValueError(f"query index {i} outside [0, {n})")
    return tuple((i, values[i]) for i in query)


def test_dims_counts():
    dims = Dims(d=3, alphabet_size=2, d_query=2, horizon=4, n_actions=2)
    assert dims.n_states == 8
    assert dims.n_hidden == 2
    assert dims.n_query_values == 4
    assert dims.query_sets() == [(0, 1), (0, 2), (1, 2)]


def test_dims_validation():
    with pytest.raises(ValueError):
        Dims(d=0, alphabet_size=2, d_query=1, horizon=1, n_actions=1)
    with pytest.raises(ValueError):
        Dims(d=2, alphabet_size=2, d_query=3, horizon=1, n_actions=1)
    with pytest.raises(ValueError):
        Dims(d=2, alphabet_size=2, d_query=1, horizon=0, n_actions=1)
    with pytest.raises(ValueError):
        Dims(d=2, alphabet_size=2, d_query=1, horizon=1, n_actions=0)
    with pytest.raises(ValueError):
        Dims(d=2, alphabet_size=2, d_query=1, horizon=1, n_actions=1,
             n_observations=-1)
    with pytest.raises(ValueError):
        Dims(d=63, alphabet_size=2, d_query=1, horizon=1, n_actions=1)


def test_encode_state_little_endian():
    assert encode_state([2, 1], 3) == 5
    assert encode_state([0, 0, 0], 2) == 0
    assert encode_state([1, 0, 0], 2) == 1
    assert encode_state([0, 0, 1], 2) == 4


def test_encode_state_range_check():
    with pytest.raises(ValueError):
        encode_state([3], 3)
    with pytest.raises(ValueError):
        encode_state([-1], 3)
    with pytest.raises(ValueError):
        decode_state(9, 3, 2)


@given(
    st.integers(2, 6),
    st.integers(1, 5),
    st.data(),
)
def test_encode_decode_roundtrip(alphabet, d, data):
    values = tuple(
        data.draw(st.integers(0, alphabet - 1)) for _ in range(d)
    )
    assert decode_state(encode_state(values, alphabet), alphabet, d) == values


@given(st.integers(2, 5), st.integers(1, 4))
def test_encode_is_bijection(alphabet, d):
    seen = {
        encode_state(decode_state(i, alphabet, d), alphabet)
        for i in range(alphabet**d)
    }
    assert seen == set(range(alphabet**d))


def test_extract_hsi_order_and_values():
    hsi = extract_hsi([1, 0, 1], (0, 2))
    assert hsi == ((0, 1), (2, 1))
    fb = Feedback(query=(0, 2), hsi=hsi, observation=None, reward=0.0)
    assert fb.values() == (1, 1)
    with pytest.raises(ValueError):
        extract_hsi([1, 0], (2,))


def test_feedback_is_slotted_and_positional():
    fb = Feedback((0,), ((0, 1),), 2, 1.0)
    assert fb == Feedback(query=(0,), hsi=((0, 1),), observation=2, reward=1.0)
    assert not hasattr(fb, "__dict__")
    with pytest.raises(AttributeError):
        fb.note = "extra"


def test_package_exports_exactly_the_public_names_it_imports():
    # a name deleted from its module cannot linger in the export list
    import hsilab

    tree = ast.parse(Path(hsilab.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(set(hsilab.__all__)) == len(hsilab.__all__)
    assert set(hsilab.__all__) == {n for n in imported if not n.startswith("_")}
