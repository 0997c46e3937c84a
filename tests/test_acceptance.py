"""Release gate: one test per end-to-end criterion, at its stated tolerance.

`pytest tests/test_acceptance.py -v` prints one pass/fail line per
criterion. The two checks that need natural images look for the CIFAR-10
binary batches under $FENET_DATA_DIR or ./data and skip with download
instructions when absent; everything else runs unconditionally.
"""

import itertools
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from fenet import attacks, cli, data, ensemble, filters as flt, nn, sensitivity
from fenet.attacks import AttackConfig
from fenet.util import rng_from

from conftest import params_of

CIFAR_SKIP = (
    "CIFAR-10 binary batches not found; download cifar-10-binary.tar.gz from "
    "https://www.cs.toronto.edu/~kriz/cifar.html and extract it into ./data "
    "or the directory named by $FENET_DATA_DIR"
)


def _cifar_dir():
    for base in (os.environ.get(cli.DATA_DIR_ENV), "data"):
        if not base:
            continue
        for probe in (base, os.path.join(base, "cifar-10-batches-bin")):
            if os.path.isfile(os.path.join(probe, "data_batch_1.bin")):
                return base
    return None


# ------------------------------------------------------------------ 1


def _random_net_and_input(i: int):
    """A small seeded network and an input safely away from ReLU kinks."""
    for attempt in range(20):
        rng = rng_from(9000, i, attempt)
        channels = int(rng.integers(1, 3))
        classes = int(rng.integers(2, 5))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            size = int(rng.integers(4, 7))
            arch = [
                {"kind": "Flatten"},
                {"kind": "Dense", "out_features": 5},
                {"kind": "ReLU"},
                {"kind": "Dense", "out_features": None},
            ]
        elif kind == 1:
            size = int(rng.integers(4, 7))
            arch = [
                {"kind": "Conv2D", "out_channels": 2, "kernel": [3, 3], "stride": 1, "padding": "same"},
                {"kind": "ReLU"},
                {"kind": "Flatten"},
                {"kind": "Dense", "out_features": None},
            ]
        else:
            size = int(2 * rng.integers(2, 4))
            arch = [
                {"kind": "Conv2D", "out_channels": 2, "kernel": [3, 3], "stride": 1, "padding": "same"},
                {"kind": "ReLU"},
                {"kind": "AvgPool2D", "pool": 2, "stride": 2},
                {"kind": "Flatten"},
                {"kind": "Dense", "out_features": None},
            ]
        net = nn.build_network(arch, (size, size, channels), classes, seed=int(rng.integers(2**31)))
        x = rng.uniform(0.1, 0.9, size=(size, size, channels))
        label = int(rng.integers(classes))
        margin = np.inf
        a = x[None]
        for layer in net.layers:
            if isinstance(layer, nn.ReLU):
                margin = min(margin, float(np.abs(a).min()))
            a, _ = layer.forward(a)
        if margin > 1e-3:
            return net, x, label, rng
    raise AssertionError("no kink-free sample found")


def _loss(net, x, label):
    return float(nn._xent(net.forward_batch(x[None]), np.array([label]))[0])


def test_01_analytic_gradients_match_finite_differences():
    h = 1e-5
    for i in range(50):
        net, x, label, rng = _random_net_and_input(i)
        want = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            xp, xm = x.copy(), x.copy()
            xp[idx] += h
            xm[idx] -= h
            want[idx] = (_loss(net, xp, label) - _loss(net, xm, label)) / (2 * h)
        np.testing.assert_allclose(net.grad_input_batch(x[None], [label])[0], want, rtol=1e-4, atol=1e-7)
        _, _, layer_grads = net._backprop(x[None], [label], need_input=False, need_params=True)
        grads = [g for pg in layer_grads for g in pg]
        params = params_of(net)
        assert len(grads) == len(params)
        for p, g in zip(params, grads):
            flat = p.reshape(-1)
            for j in rng.choice(flat.size, size=min(5, flat.size), replace=False):
                orig = flat[j]
                flat[j] = orig + h
                lp = _loss(net, x, label)
                flat[j] = orig - h
                lm = _loss(net, x, label)
                flat[j] = orig
                fd = (lp - lm) / (2 * h)
                assert g.reshape(-1)[j] == pytest.approx(fd, rel=1e-4, abs=1e-7)


# ------------------------------------------------------------------ 2


def _shifted_dft_terms(n):
    """exp(-2 pi i (u - n//2) m / n) at [u, m]: row u is frequency u - n//2, so DC sits at n//2."""
    return np.exp(-2j * np.pi * np.outer(np.arange(n) - n // 2, np.arange(n)) / n)


def _naive_shifted_dft(x):
    """The double sum over (m, n) of x[m, n] times each term, for every (u, v) of an (H, W) channel."""
    eu, ev = _shifted_dft_terms(x.shape[0]), _shifted_dft_terms(x.shape[1])
    return np.einsum("um,vn,mn->uv", eu, ev, x)


def _naive_shifted_idft(spectrum):
    eu, ev = _shifted_dft_terms(spectrum.shape[0]), _shifted_dft_terms(spectrum.shape[1])
    return np.einsum("um,vn,uv->mn", eu.conj(), ev.conj(), spectrum).real / spectrum.size


def test_02_dft_matches_naive_double_sum_and_parseval():
    # the low and high pass filters against the definition: each channel's
    # shifted DFT times the Gaussian mask (or its complement), inverted;
    # 8x8 images, and an odd H != W batch that spans several FFT chunks
    rng = rng_from(9100)
    odd = (2 * (flt._CHUNK_PIXELS // (7 * 13)) + 1, 7, 13, 3)
    for batch, sigma in ((rng.uniform(size=(20, 8, 8, 3)), 2.5), (rng.uniform(-0.5, 1.5, size=odd), 3.0)):
        h, w = batch.shape[1:3]
        for mode in ("low", "high"):
            mask = flt.gaussian_mask(h, w, sigma)
            if mode == "high":
                mask = 1.0 - mask
            out = flt.frequency_filter(batch, sigma, mode)
            for img, got in zip(batch, out):
                for c in range(3):
                    spectrum = _naive_shifted_dft(img[..., c]) * mask
                    assert np.max(np.abs(got[..., c] - _naive_shifted_idft(spectrum))) <= 1e-9
                    energy = np.sum(np.abs(spectrum) ** 2) / (h * w)
                    assert np.sum(got[..., c] ** 2) == pytest.approx(energy, rel=1e-6)


# ------------------------------------------------------------------ 3


def test_03_filter_contracts():
    rng = rng_from(9200)
    octree = flt.default_filters()["octree16"]
    images = rng.uniform(size=(100, 32, 32, 3))
    for img in images:
        out = flt.apply(octree, img)
        assert len(np.unique(out.reshape(-1, 3), axis=0)) <= 16

    v = rng.uniform(size=(6, 6, 1))
    gray = flt.apply(flt.filter_spec("grayscale"), np.repeat(v, 3, axis=2))
    np.testing.assert_allclose(gray, v, rtol=1e-12)

    img = rng.uniform(size=(12, 10, 3))
    same = flt.apply(flt.filter_spec("downsize", target=(12, 10)), img)
    np.testing.assert_array_equal(same, img)

    for h, w, sigma in ((16, 16, 8.0), (9, 13, 2.5)):
        low = flt.gaussian_mask(h, w, sigma)
        np.testing.assert_allclose(low + (1.0 - low), 1.0, atol=1e-12)
    split = flt.frequency_filter(img, 4.0, "low") + flt.frequency_filter(img, 4.0, "high")
    np.testing.assert_allclose(split, img, atol=1e-12)

    disc = flt.filter_spec("discretize")
    once = flt.apply(disc, img)
    np.testing.assert_array_equal(flt.apply(disc, once), once)

    base = _cifar_dir()
    if base:
        _, test_ds = data.load_cifar10(base)
        picks = rng_from(9201).choice(len(test_ds.images), size=100, replace=False)
        for img in test_ds.images[picks]:
            out = flt.apply(octree, img)
            assert len(np.unique(out.reshape(-1, 3), axis=0)) <= 16


# ------------------------------------------------------------------ 4


def test_04_correlation_ordering_on_natural_images(tmp_path):
    base = _cifar_dir()
    if base is None:
        pytest.skip(CIFAR_SKIP)
    rc = cli.main([
        "correlate", "--out-dir", str(tmp_path), "--tag", "cifar",
        "--set", 'dataset.kind="cifar10"', "--data-dir", base,
    ])
    assert rc == 0
    lines = (tmp_path / "correlate_cifar.csv").read_text().splitlines()
    names = lines[1].split(",")[1:]
    rho = {}
    for line in lines[2:]:
        cells = line.split(",")
        for name, value in zip(names, cells[1:]):
            rho[(cells[0], name)] = float(value)
    pairs = {
        tuple(sorted((a, b))): rho[(a, b)]
        for a in names for b in names if a < b
    }
    ranked = sorted(pairs, key=lambda p: pairs[p])
    assert ranked[-1] == ("highpass", "identity")
    assert ("lowpass", "octree16") in ranked[:2]
    assert pairs[("highpass", "identity")] > 0.6
    assert pairs[("lowpass", "octree16")] < 0.2


# ------------------------------------------------------------------ 5


def test_05_attack_ball_invariants_and_iterated_dominance(desk_submodels, desk_test):
    net = desk_submodels["identity"].net
    xb, yb = desk_test.images, desk_test.labels
    ids = np.arange(len(xb))
    assert len(xb) == 200

    probes = (
        AttackConfig(method="fgsm", radius=8 / 255, rng_seed=0),
        AttackConfig(method="bim", radius=8 / 255, steps=10, rng_seed=0),
        AttackConfig(method="pgd", radius=8 / 255, steps=20, rng_seed=0),
        AttackConfig(method="pgd", radius=1.0, norm=2, steps=10, rng_seed=0),
    )
    for cfg in probes:
        for r, x in zip(attacks.run_attack_batch(net, xb, yb, cfg, image_ids=ids), xb):
            delta = r.adversarial - x
            if cfg.norm == np.inf:
                assert np.max(np.abs(delta)) <= cfg.radius + 1e-9
            else:
                assert np.linalg.norm(delta) <= cfg.radius + 1e-9
            assert r.adversarial.min() >= -1e-9
            assert r.adversarial.max() <= 1 + 1e-9

    def acc(cfg):
        results = attacks.run_attack_batch(net, xb, yb, cfg, image_ids=ids)
        return float(np.mean([r.final_label == y for r, y in zip(results, yb)]))

    for eps in (2, 5, 8, 10, 15, 20):
        fgsm_acc = acc(AttackConfig(method="fgsm", radius=eps / 255, rng_seed=0))
        pgd_acc = acc(AttackConfig(method="pgd", radius=eps / 255, steps=20, rng_seed=0))
        assert pgd_acc <= fgsm_acc + 0.02


# ------------------------------------------------------------------ 6


def test_06_transfer_spares_low_correlation_filters(desk_submodels, desk_test):
    source = desk_submodels["identity"]
    targets = {
        name: desk_submodels[name] for name in ("identity", "lowpass", "octree16", "highpass")
    }
    for method, steps in (("fgsm", 1), ("pgd", 20)):
        cfg = AttackConfig(method=method, radius=20 / 255, steps=steps, rng_seed=0)
        rows = attacks.transfer_eval([(source, targets)], desk_test, [20 / 255], cfg)
        accs = {name: acc for _, name, acc in rows}
        self_acc = accs["identity"]
        assert accs["lowpass"] > self_acc
        assert accs["octree16"] > self_acc
        assert accs["highpass"] - self_acc < accs["lowpass"] - self_acc


# ------------------------------------------------------------------ 7


def test_07_low_correlation_ensemble_survives_the_sum_attack(desk_mincorr, desk_gauss, desk_test):
    mincorr = ensemble.Ensemble([replace(sm, bpda="adjoint") for sm in desk_mincorr.submodels], mode="score")
    gauss = ensemble.Ensemble([replace(sm, bpda="adjoint") for sm in desk_gauss], mode="score")
    xb, yb = desk_test.images, desk_test.labels
    ids = np.arange(len(xb))
    spreads = {}
    for eps in (5, 10, 15, 20):
        cfg = AttackConfig(method="pgd", radius=eps / 255, steps=20, rng_seed=0)
        accs = {}
        for tag, ens in (("mincorr", mincorr), ("gauss", gauss)):
            results = attacks.run_attack_batch(ens, xb, yb, cfg, image_ids=ids)
            adv = np.stack([r.adversarial for r in results])
            accs[tag] = float(np.mean(ens.classify_batch(adv) == yb))
            if eps == 10:
                member = [float(np.mean(sm.classify_batch(adv) == yb)) for sm in ens.submodels]
                spreads[tag] = max(member) - min(member)
        assert accs["mincorr"] >= accs["gauss"]
    assert spreads["mincorr"] > spreads["gauss"]


# ------------------------------------------------------------------ 8


def test_08_certified_radii_survive_random_search(desk_mincorr, desk_test):
    subs = desk_mincorr.submodels
    xb = desk_test.images[:100]
    certs = [ensemble.certify_submodel(sm, xb, sm.net.lipschitz_upper_bound(seed=0)) for sm in subs]
    for a, b in itertools.combinations(certs, 2):
        bound = ensemble.pairwise_bound(a, b)
        assert bound == pytest.approx(a.radius * b.radius, rel=1e-12, abs=0.0)
    rng = rng_from(9800)
    for i, x in enumerate(xb):
        for sm, cert in zip(subs, certs):
            if cert.radius[i] == 0.0:
                continue
            z = flt.apply(sm.filter, x)
            label = int(sm.net.classify_batch(z[None])[0])
            g = rng.standard_normal((500, *z.shape))
            g /= np.linalg.norm(g.reshape(500, -1), axis=1).reshape(500, 1, 1, 1)
            scale = cert.radius[i] * rng.uniform(size=500) ** (1.0 / z.size)
            batch = z[None] + g * scale.reshape(500, 1, 1, 1)
            assert np.all(sm.net.classify_batch(batch) == label)


# ------------------------------------------------------------------ 9


def test_09_every_command_rerun_is_byte_identical(tmp_path):
    base = [
        "--out-dir", str(tmp_path), "--tag", "t",
        "--set", "dataset.num_per_class=8",
        "--set", "dataset.test_per_class=5",
        "--set", "dataset.size=8",
        "--set", 'filters=["identity","grayscale","lowpass"]',
        "--set", 'train={"learning_rates":[0.1],"epochs_per_rate":1,"batch_size":8,"rng_seed":3}',
        "--set", 'arch=[{"kind":"Flatten"},{"kind":"Dense","out_features":null}]',
        "--set", 'attack={"epsilons":[0,4],"steps":2}',
        "--set", 'noise={"epsilon_max":20,"samples_per_image":3,"num_images":8,"rng_seed":0,"select_k":2}',
        "--set", 'ensemble={"plan":null,"members":[["a","identity"],["b","grayscale"]]}',
        "--set", "certify.num_inputs=5",
    ]
    commands = ["train", "correlate", "attack", "transfer", "ensemble-eval", "certify"]

    def run_all():
        out = {}
        for command in commands:
            assert cli.main([command, *base]) == 0
        for name in sorted(os.listdir(tmp_path)):
            if name.endswith(".csv"):
                out[name] = (tmp_path / name).read_bytes()
        return out

    first = run_all()
    assert len(first) == len(commands) + 1
    assert run_all() == first
