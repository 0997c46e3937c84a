from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fenet.data import synth_shapes
from fenet.filters import apply, default_filters, filter_spec
from fenet.sensitivity import (
    CorrelationMatrix,
    NoiseConfig,
    correlation_csv,
    draw_noise,
    noise_stream,
    pearson_matrix,
    sample_sensitivities,
    select_min_correlated,
)
from fenet.util import clamp01, rng_from


def sensitivity(spec, x, delta) -> float:
    """Oracle for one cell of `sample_sensitivities`: ||f(clamp(x + delta)) - f(x)||_2."""
    x = np.asarray(x, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != x.shape:
        raise ValueError(f"perturbation shape {delta.shape} != image shape {x.shape}")
    perturbed = clamp01(x + delta)
    diff = apply(spec, perturbed) - apply(spec, x)
    return float(np.linalg.norm(diff))


# ---------------------------------------------------------------- sensitivity

def test_zero_noise_zero_sensitivity():
    img = rng_from(1).uniform(size=(32, 32, 3))
    for name, spec in default_filters().items():
        assert sensitivity(spec, img, np.zeros_like(img)) == 0.0, name


def test_identity_sensitivity_is_clamped_l2():
    rng = rng_from(2)
    img = rng.uniform(size=(8, 8, 3))
    delta = rng.normal(scale=0.3, size=img.shape)
    want = np.linalg.norm(clamp01(img + delta) - img)
    assert sensitivity(filter_spec("identity"), img, delta) == pytest.approx(want, rel=1e-12)


def test_grayscale_single_pixel_equal_shift():
    img = np.full((4, 4, 3), 0.5)
    d = 0.07
    delta = np.zeros_like(img)
    delta[1, 2] = d
    got = sensitivity(filter_spec("grayscale"), img, delta)
    assert got == pytest.approx(d, rel=1e-9)


def test_sensitivity_positive_when_outputs_differ():
    img = np.full((4, 4, 3), 0.5)
    delta = np.full_like(img, 0.1)
    assert sensitivity(filter_spec("identity"), img, delta) > 0


def test_sensitivity_shape_mismatch():
    with pytest.raises(ValueError):
        sensitivity(filter_spec("identity"), np.zeros((4, 4, 3)), np.zeros((3, 4, 3)))


# ---------------------------------------------------------------- sampling

def small_bank():
    return {
        "identity": filter_spec("identity"),
        "discretize": filter_spec("discretize"),
        "lowpass": filter_spec("lowpass", sigma=4.0),
    }


def test_single_image_single_noise_one_row():
    ds = synth_shapes(2, size=8, seed=0)
    cfg = NoiseConfig(samples_per_image=1, num_images=1, rng_seed=5)
    values = sample_sensitivities(small_bank(), ds, cfg)
    assert values.shape == (1, 3)
    assert np.all(values >= 0)


def test_duplicate_filter_identical_columns():
    ds = synth_shapes(3, size=8, seed=1)
    bank = {"a": filter_spec("lowpass", sigma=3.0), "b": filter_spec("lowpass", sigma=3.0)}
    cfg = NoiseConfig(samples_per_image=3, num_images=4, rng_seed=2)
    cols = sample_sensitivities(bank, ds, cfg)
    np.testing.assert_array_equal(cols[:, 0], cols[:, 1])


def test_identity_column_recomputable_from_stream():
    ds = synth_shapes(3, size=8, seed=3)
    cfg = NoiseConfig(samples_per_image=2, num_images=3, rng_seed=9)
    values = sample_sensitivities(small_bank(), ds, cfg)
    ids = rng_from(cfg.rng_seed, 0x494D47).choice(len(ds), size=cfg.num_images, replace=False)
    for i, image_id in enumerate(sorted(int(n) for n in ids)):
        rng = noise_stream(cfg.rng_seed, image_id)
        x = ds.images[image_id]
        for noise_id in range(cfg.samples_per_image):
            delta = draw_noise(rng, x.shape, cfg.epsilon_max)
            want = sensitivity(filter_spec("identity"), x, delta)
            assert values[i * cfg.samples_per_image + noise_id, 0] == want


def test_sampling_deterministic():
    ds = synth_shapes(4, size=8, seed=4)
    cfg = NoiseConfig(samples_per_image=2, num_images=5, rng_seed=11)
    a = sample_sensitivities(small_bank(), ds, cfg)
    b = sample_sensitivities(small_bank(), ds, cfg)
    np.testing.assert_array_equal(a, b)


def _sample_sensitivities_oracle(filter_bank, dataset, cfg):
    """The per-sample loop sample_sensitivities replaced: one filter call per image."""
    ids = rng_from(cfg.rng_seed, 0x494D47).choice(len(dataset), size=cfg.num_images, replace=False)
    rows = []
    for image_id in sorted(int(i) for i in ids):
        x = dataset.images[image_id]
        base = [apply(spec, x) for spec in filter_bank.values()]
        rng = noise_stream(cfg.rng_seed, image_id)
        for noise_id in range(cfg.samples_per_image):
            delta = draw_noise(rng, x.shape, cfg.epsilon_max)
            perturbed = clamp01(x + delta)
            rows.append(
                [np.linalg.norm(apply(spec, perturbed) - b) for spec, b in zip(filter_bank.values(), base)]
            )
    return np.array(rows)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(8, 12), st.integers(0, 2**16), st.integers(1, 6), st.integers(1, 4),
    st.floats(0.01, 0.5),
)
def test_batched_sampling_matches_per_sample_oracle(size, seed, num_images, per_image, eps):
    ds = synth_shapes(2, size=size, seed=seed)
    bank = dict(default_filters(), downsize=filter_spec("downsize", target=(size // 2, 5)))
    cfg = NoiseConfig(epsilon_max=eps, samples_per_image=per_image, num_images=num_images, rng_seed=seed)
    got = sample_sensitivities(bank, ds, cfg)
    want = _sample_sensitivities_oracle(bank, ds, cfg)
    assert got.shape == want.shape == (num_images * per_image, len(bank))
    assert np.array_equal(got, want)


def test_sampling_dataset_too_small():
    ds = synth_shapes(1, size=8)
    with pytest.raises(ValueError, match="at least"):
        sample_sensitivities(small_bank(), ds, NoiseConfig(num_images=100))


def test_noise_config_validated():
    with pytest.raises(ValueError):
        NoiseConfig(epsilon_max=0.0)
    with pytest.raises(ValueError):
        NoiseConfig(num_images=0)


@pytest.mark.parametrize("field, value, message", [
    ("epsilon_max", float("inf"), "a finite number > 0"),  # used to overflow in draw_noise
    ("epsilon_max", float("nan"), "a finite number > 0"),
    ("epsilon_max", True, "a finite number > 0"),
    ("num_images", 1.5, "an integer >= 1"),  # used to fail inside rng.choice
    ("num_images", True, "an integer >= 1"),
    ("samples_per_image", 2.5, "an integer >= 1"),
    ("samples_per_image", 0, "an integer >= 1"),
])
def test_noise_config_names_the_bad_field(field, value, message):
    with pytest.raises(ValueError, match=f"^{field} must be {message}, got {value!r}$"):
        NoiseConfig(**{field: value})


# ---------------------------------------------------------------- Pearson

def test_self_correlation_is_one():
    rows = rng_from(20).uniform(size=(10, 1))
    cm = pearson_matrix(np.hstack([rows, rows]), ("a", "b"))
    assert cm.rho[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_negated_column_gives_minus_one():
    rows = rng_from(21).uniform(size=(10, 1))
    cm = pearson_matrix(np.hstack([rows, -rows]), ("a", "b"))
    assert cm.rho[0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_hand_rows_match_direct_formula():
    rows = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 4.0], [4.0, 3.0], [5.0, 5.0]])
    cm = pearson_matrix(rows, ("a", "b"))
    xa, xb = rows[:, 0], rows[:, 1]
    ca, cb = xa - xa.mean(), xb - xb.mean()
    want = (ca @ cb / 4) / (np.sqrt(ca @ ca / 4) * np.sqrt(cb @ cb / 4))
    assert cm.rho[0, 1] == pytest.approx(want, rel=1e-12)
    np.testing.assert_allclose(cm.rho, np.corrcoef(rows, rowvar=False), atol=1e-12)


def test_matrix_well_formed_on_real_samples():
    ds = synth_shapes(4, size=8, seed=6)
    cfg = NoiseConfig(samples_per_image=4, num_images=6, rng_seed=3)
    cm = pearson_matrix(sample_sensitivities(small_bank(), ds, cfg), tuple(small_bank()))
    np.testing.assert_array_equal(cm.rho, cm.rho.T)
    np.testing.assert_allclose(np.diag(cm.rho), 1.0, atol=1e-12)
    assert np.all(np.abs(cm.rho) <= 1 + 1e-12)


def test_constant_column_rejected_by_name():
    rows = [[1.0, 0.5], [2.0, 0.5], [3.0, 0.5]]
    with pytest.raises(ValueError, match="'flat'"):
        pearson_matrix(rows, ("a", "flat"))


def test_too_few_samples_rejected():
    with pytest.raises(ValueError):
        pearson_matrix([[1.0, 2.0]], ("a", "b"))


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(0.1, 50),
    b=st.floats(-5, 5),
    col=st.integers(0, 2),
    seed=st.integers(0, 100),
)
def test_affine_column_invariance(a, b, col, seed):
    rows = rng_from(seed, 0xAF).uniform(size=(12, 3))
    scaled = rows.copy()
    scaled[:, col] = a * scaled[:, col] + b
    m1 = pearson_matrix(rows, ("x", "y", "z"))
    m2 = pearson_matrix(scaled, ("x", "y", "z"))
    np.testing.assert_allclose(m1.rho, m2.rho, atol=1e-9)


# ---------------------------------------------------------------- selection

def paper_style_matrix():
    names = ("identity", "grayscale", "lowpass", "highpass", "octree16", "downsize")
    rho = np.full((6, 6), 0.6)
    np.fill_diagonal(rho, 1.0)

    def put(a, b, v):
        i, j = names.index(a), names.index(b)
        rho[i, j] = rho[j, i] = v

    put("identity", "highpass", 0.90)
    put("identity", "grayscale", 0.47)
    put("identity", "lowpass", 0.30)
    put("identity", "octree16", 0.13)
    put("lowpass", "octree16", 0.02)
    put("lowpass", "downsize", 0.80)
    return CorrelationMatrix(names, rho)


def test_reported_values_select_lowpass_octree_pair():
    cm = paper_style_matrix()
    assert select_min_correlated(cm, 2) == ["lowpass", "octree16"]


def test_k1_lexicographic_or_forced():
    cm = paper_style_matrix()
    assert select_min_correlated(cm, 1) == ["downsize"]


def test_selection_matches_brute_force_pairs():
    rng = rng_from(33)
    names = ("a", "b", "c", "d")
    m = rng.uniform(-1, 1, size=(4, 4))
    rho = (m + m.T) / 2
    np.clip(rho, -0.99, 0.99, out=rho)
    np.fill_diagonal(rho, 1.0)
    cm = CorrelationMatrix(names, rho)
    got = select_min_correlated(cm, 2)
    best = min(
        ((abs(cm.rho[i, j]), tuple(sorted((names[i], names[j]))))
         for i, j in combinations(range(len(names)), 2)),
    )
    assert tuple(got) == best[1]


def _select_by_sorted_names(matrix, k):
    """The selection loop before it ranked column indices: sorted names, one lookup per pair."""
    names = matrix.filter_names
    best = None
    for combo in combinations(names, k):
        chosen = sorted(combo)
        worst = 0.0
        for a, b in combinations(chosen, 2):
            worst = max(worst, abs(float(matrix.rho[names.index(a), names.index(b)])))
        key = (worst, tuple(chosen))
        if best is None or key < best:
            best = key
    return list(best[1])


@st.composite
def tie_heavy_matrices(draw):
    n = draw(st.integers(1, 7))
    names = draw(st.permutations(["a", "b", "c", "d", "e", "f", "g"]))[:n]
    rho = np.eye(n)
    for i, j in combinations(range(n), 2):
        rho[i, j] = rho[j, i] = draw(st.sampled_from([0.0, 0.25, -0.25, 0.5]))
    return CorrelationMatrix(names, rho)


@settings(max_examples=200, deadline=None)
@given(tie_heavy_matrices())
def test_selection_matches_sorted_name_loop_on_ties(cm):
    for k in range(len(cm.filter_names) + 1):
        assert select_min_correlated(cm, k) == _select_by_sorted_names(cm, k)


def test_selection_validation():
    cm = paper_style_matrix()
    with pytest.raises(ValueError):
        select_min_correlated(cm, 7)


# ---------------------------------------------------------------- CSV

def test_correlation_csv_format():
    cm = pearson_matrix([[1.0, 2.0], [2.0, 1.5], [3.0, 4.0]], ("a", "b"))
    text = correlation_csv(cm)
    lines = text.strip().split("\n")
    assert lines[0] == "filter,a,b"
    first = lines[1].split(",")
    assert first[0] == "a"
    assert first[1] == "1.000000"
    assert all(len(cell.split(".")[1]) == 6 for cell in first[1:])
