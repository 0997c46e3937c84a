"""Behavioral checks on the trained desk stack.

Everything here runs on the shared session fixtures (small CNNs on the
synthetic shapes) and asserts directions that are stable under the fixed
seeds: attack strength orderings, filter leverage under BPDA, ensemble
degradation, certification falsification, and the correlation structure
of the filter bank.
"""

from dataclasses import replace

import numpy as np
import pytest

from fenet import attacks, data, ensemble, filters as flt, nn, sensitivity
from fenet.attacks import AttackConfig

from fenet.cli import DESK_ARCH

from conftest import DESK_TRAIN_CFG

EPS8 = 8 / 255
EPS10 = 10 / 255
EPS20 = 20 / 255


def _acc(results, labels) -> float:
    return float(np.mean([r.final_label == y for r, y in zip(results, labels)]))


def _run(target, ds, cfg):
    ids = np.arange(len(ds.images))
    return attacks.run_attack_batch(target, ds.images, ds.labels, cfg, image_ids=ids)


# ------------------------------------------------------------ attack strength


@pytest.fixture(scope="module")
def identity_attack_accs(desk_submodels, desk_test):
    net = desk_submodels["identity"].net
    out = {"clean": float(np.mean(net.classify_batch(desk_test.images) == desk_test.labels))}
    for method, steps in (("fgsm", 1), ("bim", 10), ("pgd", 20)):
        cfg = AttackConfig(method=method, radius=EPS20, steps=steps, rng_seed=0)
        out[method] = _acc(_run(net, desk_test, cfg), desk_test.labels)
    return out


def test_iteration_strictly_strengthens_the_attack(identity_attack_accs):
    a = identity_attack_accs
    assert a["pgd"] < a["bim"] < a["fgsm"] < a["clean"]


def test_white_box_attack_collapses_the_plain_model(identity_attack_accs):
    assert identity_attack_accs["pgd"] <= identity_attack_accs["clean"] - 0.3


# ----------------------------------------------------------- transfer plumbing


def test_transfer_rows_match_direct_attacks(desk_submodels, desk_test):
    src = desk_submodels["identity"]
    cfg = AttackConfig(method="fgsm", radius=EPS8, rng_seed=0)
    table = attacks.transfer_eval([(src, {"identity": src})], desk_test, [0.0, EPS8], cfg)
    accs = {round(eps * 255): acc for eps, _, acc in table}
    clean = float(np.mean(src.net.classify_batch(desk_test.images) == desk_test.labels))
    assert accs[0] == clean
    direct = _acc(_run(src.net, desk_test, cfg), desk_test.labels)
    assert accs[8] == direct


# ------------------------------------------------------------------------ BPDA


def test_bpda_beats_blind_noise_through_octree(desk_submodels, desk_test):
    sm = desk_submodels["octree16"]
    cfg = AttackConfig(method="pgd", radius=EPS20, steps=20, rng_seed=0)
    attack_flips = float(np.mean([r.success for r in _run(sm, desk_test, cfg)]))
    rng = np.random.default_rng(99)
    noisy = np.clip(desk_test.images + rng.uniform(-EPS20, EPS20, size=desk_test.images.shape), 0.0, 1.0)
    noise_flips = float(
        np.mean(sm.classify_batch(noisy) != desk_test.labels)
    )
    assert attack_flips > noise_flips


# ------------------------------------------------------------ ensemble checks


def test_sum_attack_degrades_the_ensemble_but_not_below_members(desk_mincorr, desk_test):
    cfg = AttackConfig(method="pgd", radius=EPS10, steps=20, rng_seed=0)
    mincorr = ensemble.Ensemble([replace(sm, bpda="adjoint") for sm in desk_mincorr.submodels])
    results = _run(mincorr, desk_test, cfg)
    adv = np.stack([r.adversarial for r in results])
    clean_acc = float(np.mean(mincorr.classify_batch(desk_test.images) == desk_test.labels))
    adv_acc = float(np.mean(mincorr.classify_batch(adv) == desk_test.labels))
    member_clean = [
        float(np.mean(sm.classify_batch(desk_test.images) == desk_test.labels))
        for sm in mincorr.submodels
    ]
    assert adv_acc < clean_acc
    assert adv_acc <= min(member_clean)


def test_majority_correct_members_carry_the_vote(desk_mincorr, desk_test):
    member_labels = np.stack([sm.classify_batch(desk_test.images) for sm in desk_mincorr.submodels])
    premise = (member_labels == desk_test.labels[None]).sum(axis=0) >= 2
    assert premise.sum() >= 150
    vote = desk_mincorr.classify_batch(desk_test.images)
    assert np.array_equal(vote[premise], desk_test.labels[premise])


def test_gaussian_members_match_their_noiseless_twins(desk_train, desk_test, desk_gauss):
    twins = ensemble.gaussian_noise_submodels(
        DESK_ARCH, desk_train, sigma=0.0, count=3, seed=0, train_cfg=DESK_TRAIN_CFG
    )
    for noisy, twin in zip(desk_gauss, twins):
        na = float(np.mean(noisy.net.classify_batch(desk_test.images) == desk_test.labels))
        ta = float(np.mean(twin.net.classify_batch(desk_test.images) == desk_test.labels))
        assert abs(na - ta) <= 0.03


def test_adversarial_training_buys_robustness_beyond_its_radius(desk_train, desk_test):
    plain, _ = nn.train(
        nn.build_network(DESK_ARCH, desk_train.image_shape, desk_train.num_classes,
                         seed=DESK_TRAIN_CFG.rng_seed),
        desk_train, DESK_TRAIN_CFG,
    )
    hardened = ensemble.adversarial_train(DESK_ARCH, desk_train, DESK_TRAIN_CFG)
    cfg = AttackConfig(method="pgd", radius=EPS20, steps=20, rng_seed=0)
    plain_acc = _acc(_run(plain, desk_test, cfg), desk_test.labels)
    hardened_acc = _acc(_run(hardened, desk_test, cfg), desk_test.labels)
    assert hardened_acc > plain_acc


# ------------------------------------------------------------- certification


def test_pairwise_bound_never_double_flips(desk_submodels, desk_test):
    pair = (desk_submodels["lowpass"], desk_submodels["octree16"])
    xb = desk_test.images[:20]
    bounds = ensemble.pairwise_bound(
        *[ensemble.certify_submodel(sm, xb, sm.net.lipschitz_upper_bound(seed=0)) for sm in pair])
    rng = np.random.default_rng(1234)
    premise_hits = 0
    for eps in (2 / 255, 8 / 255):
        for x, bound in zip(xb, bounds):
            base = [int(sm.classify_batch(x[None])[0]) for sm in pair]
            for _ in range(10):
                xp = np.clip(x + rng.uniform(-eps, eps, size=x.shape), 0.0, 1.0)
                r = [
                    float(np.linalg.norm(flt.apply(sm.filter, xp) - flt.apply(sm.filter, x)))
                    for sm in pair
                ]
                if r[0] * r[1] >= bound:
                    continue
                premise_hits += 1
                now = [int(sm.classify_batch(xp[None])[0]) for sm in pair]
                assert now[0] == base[0] or now[1] == base[1]
    assert premise_hits >= 100


# ------------------------------------------------------- correlation structure


def test_octree_pairs_form_the_least_correlated_block():
    corpus = data.synth_shapes(25, size=32, seed=404)
    bank = flt.default_filters()
    cfg = sensitivity.NoiseConfig(
        epsilon_max=20 / 255, samples_per_image=10, num_images=100, rng_seed=0
    )
    matrix = sensitivity.pearson_matrix(sensitivity.sample_sensitivities(bank, corpus, cfg), tuple(bank))
    octree_pairs, other_pairs = [], []
    names = matrix.filter_names
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            rho = abs(matrix.rho[i][j])
            (octree_pairs if "octree16" in (names[i], names[j]) else other_pairs).append(rho)
    assert max(octree_pairs) < min(other_pairs)
    assert "octree16" in sensitivity.select_min_correlated(matrix, k=2)
