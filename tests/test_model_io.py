import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fenet.model_io import MAGIC, ModelFormatError, load_network, save_network
from fenet.nn import AvgPool2D, Conv2D, Dense, Flatten, Network, ReLU
from fenet.util import rng_from

from conftest import params_of


def make_net(seed=0):
    return Network(
        [Conv2D(3, 3, padding="same"), ReLU(), AvgPool2D(2), Flatten(), Dense(4)],
        (8, 8, 1), 4, seed=seed,
    )


def test_round_trip_bit_exact(tmp_path):
    net = make_net(seed=5)
    path = tmp_path / "m.fenet"
    save_network(net, path)
    back = load_network(path)
    assert back.input_shape == net.input_shape
    assert back.num_classes == net.num_classes
    assert [l.kind for l in back.layers] == [l.kind for l in net.layers]
    for p, q in zip(params_of(back), params_of(net)):
        assert p.tobytes() == q.tobytes()


def test_round_trip_preserves_behavior(tmp_path):
    net = make_net(seed=6)
    path = tmp_path / "m.fenet"
    save_network(net, path)
    back = load_network(path)
    xb = rng_from(1).uniform(size=(1, 8, 8, 1))
    assert np.array_equal(back.forward_batch(xb), net.forward_batch(xb))


def test_serialization_deterministic(tmp_path):
    net = make_net(seed=7)
    p1, p2 = tmp_path / "a", tmp_path / "b"
    save_network(net, p1)
    save_network(net, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_hand_built_file_loads(tmp_path):
    # Pin the documented layout: magic, big-endian uint32 header length,
    # canonical JSON, then little-endian float64 parameters in order.
    w = np.array([[1.5, -2.0], [0.25, 4.0]])
    b = np.array([0.5, -1.0])
    header = json.dumps(
        {
            "input_shape": [2],
            "num_classes": 2,
            "layers": [{"kind": "Dense", "out_features": 2}],
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    blob = MAGIC + len(header).to_bytes(4, "big") + header
    blob += w.astype("<f8").tobytes() + b.astype("<f8").tobytes()
    path = tmp_path / "hand.fenet"
    path.write_bytes(blob)
    net = load_network(path)
    assert np.array_equal(net.layers[0].weight, w)
    assert np.array_equal(net.layers[0].bias, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_parameter_rejected_naming_the_file(tmp_path, bad):
    # a NaN bias would load and label every image class 0
    net = make_net(seed=10)
    net.layers[-1].bias[1] = bad
    path = tmp_path / "m.fenet"
    save_network(net, path)
    with pytest.raises(ModelFormatError, match=f"^{re.escape(str(path))}: .* non-finite value"):
        load_network(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"NOPE!!" + b"\x00" * 32)
    with pytest.raises(ModelFormatError):
        load_network(path)


def test_truncated_params_rejected(tmp_path):
    net = make_net(seed=8)
    path = tmp_path / "m.fenet"
    save_network(net, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(ModelFormatError, match="truncated"):
        load_network(path)


def test_trailing_bytes_rejected(tmp_path):
    net = make_net(seed=9)
    path = tmp_path / "m.fenet"
    save_network(net, path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ModelFormatError, match="trailing"):
        load_network(path)


def test_garbled_header_rejected(tmp_path):
    path = tmp_path / "m.fenet"
    junk = b"{not json"
    path.write_bytes(MAGIC + len(junk).to_bytes(4, "big") + junk)
    with pytest.raises(ModelFormatError):
        load_network(path)


def _write_model(path, header, params=b""):
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(MAGIC + len(blob).to_bytes(4, "big") + blob + params)


@pytest.mark.parametrize(
    "layers, num_classes",
    [
        ([{"kind": "Flatten"}, {"kind": "Dense", "out_features": -2}], 2),
        ([{"kind": "Conv2D", "out_channels": 1, "kernel": [3, 3], "stride": 1, "padding": "full"},
          {"kind": "Flatten"}, {"kind": "Dense", "out_features": 2}], 2),
        ([{"kind": "Pool"}, {"kind": "Flatten"}, {"kind": "Dense", "out_features": 2}], 2),
        ([{"kind": "Flatten"}, {"kind": "Dense"}], 2),
        ([{"kind": "Dense", "out_features": 2}], 2),
        ([{"kind": "Flatten"}, {"kind": "Dense", "out_features": 2}], 3),
        ([{"kind": "Conv2D", "out_channels": 1, "kernel": [1, 1], "stride": 1.5, "padding": "same"},
          {"kind": "Flatten"}, {"kind": "Dense", "out_features": 2}], 2),
        ([{"kind": "Conv2D", "out_channels": 1.0, "kernel": [1, 1], "stride": 1, "padding": "same"},
          {"kind": "Flatten"}, {"kind": "Dense", "out_features": 2}], 2),
        ([{"kind": "AvgPool2D", "pool": True, "stride": 1},
          {"kind": "Flatten"}, {"kind": "Dense", "out_features": 2}], 2),
        ([{"kind": "Flatten"}, {"kind": "Dense", "out_features": "2"}], 2),
    ],
    ids=["negative-out-features", "unknown-padding", "unknown-kind", "missing-field",
         "shape-mismatch", "class-count-mismatch", "fractional-stride", "float-out-channels",
         "bool-pool", "string-out-features"],
)
def test_bad_header_error_names_the_file(tmp_path, layers, num_classes):
    path = tmp_path / "bad.fenet"
    # parameters for a Flatten + Dense(2) over (2, 2, 1) inputs, so only the header is wrong
    _write_model(path, {"input_shape": [2, 2, 1], "num_classes": num_classes, "layers": layers},
                 np.zeros(2 * 4 + 2).astype("<f8").tobytes())
    with pytest.raises(ModelFormatError, match=f"^{re.escape(str(path))}: bad header"):
        load_network(path)


# ---------------------------------------------------------------- header fuzz

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every key/index path into a JSON header, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate_header(header, draw):
    paths = list(_paths(header))
    if not paths:
        return
    path = paths[draw(st.integers(0, len(paths) - 1))]
    parent = header
    for key in path[:-1]:
        parent = parent[key]
    op = draw(st.sampled_from(["set", "set", "delete", "add"]))
    if op == "delete":
        del parent[path[-1]]
    elif op == "add" and isinstance(parent, dict):
        parent[draw(st.sampled_from(["kind", "pool", "stride", "kernel", "weight", "x"]))] = draw(_JSON)
    else:
        parent[path[-1]] = draw(_JSON)


@st.composite
def mutated_models(draw):
    """A saved model's bytes with header fields changed, removed or added, then maybe cut short."""
    header = {
        "input_shape": [4, 4, 1],
        "num_classes": 3,
        "layers": [l.header() for l in (Conv2D(2, 3, padding="same"), ReLU(), AvgPool2D(2),
                                        Flatten(), Dense(3))],
    }
    for _ in range(draw(st.integers(0, 3))):
        _mutate_header(header, draw)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    n_params = 2 * 1 * 3 * 3 + 2 + 3 * 8 + 3
    blob = MAGIC + len(text).to_bytes(4, "big") + text + np.arange(n_params, dtype="<f8").tobytes()
    if draw(st.integers(0, 3)) == 3:  # the simplest draw, 0, keeps the blob whole
        blob = blob[: draw(st.integers(0, len(blob)))]
    if draw(st.integers(0, 9)) == 9 and len(blob) >= len(MAGIC) + 4:
        hlen = draw(st.integers(0, 2**32 - 1)).to_bytes(4, "big")
        blob = blob[: len(MAGIC)] + hlen + blob[len(MAGIC) + 4:]
    return blob


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_models())
def test_mutated_header_fails_as_a_model_format_error_naming_the_file(tmp_path, blob):
    path = tmp_path / "fuzz.fenet"
    path.write_bytes(blob)
    try:
        net = load_network(path)
    except ModelFormatError as e:
        assert str(e).startswith(f"{path}: ")
    else:
        assert isinstance(net, Network)
