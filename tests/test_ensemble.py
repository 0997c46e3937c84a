"""Voting, score aggregation and certification against hand-built networks.

Constant-logit networks (zero weights, chosen bias) pin the aggregation
rules exactly; certification is cross-checked by plug-in arithmetic and
random-sampling falsification.
"""

import itertools
import math
import multiprocessing
import os
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fenet import data, ensemble, filters as flt, nn
from fenet.attacks import AttackConfig, run_attack_batch
from fenet.ensemble import (
    Ensemble,
    SubModel,
    adversarial_train,
    certify_submodel,
    gaussian_noise_submodels,
    pairwise_bound,
)

from conftest import params_of

SHAPE = (2, 2, 1)
X = np.full(SHAPE, 0.5)


def bias_net(logits, shape=SHAPE):
    """Constant-output network: zero weights, logits fixed by the bias."""
    net = nn.build_network(
        [{"kind": "Flatten"}, {"kind": "Dense", "out_features": None}],
        shape,
        len(logits),
        seed=0,
    )
    dense = net.layers[-1]
    dense.weight[:] = 0.0
    dense.bias[:] = np.asarray(logits, dtype=float)
    return net


def bias_sub(name, logits):
    return SubModel(name, flt.filter_spec("identity"), bias_net(logits))


def softmax_rows(z):
    e = np.exp(z)
    return e / e.sum()


def predict(model, x):
    return int(model.classify_batch(x[None])[0])


def stable(e, x):
    """Every member emits the same label at x."""
    labels = [predict(sm, x) for sm in e.submodels]
    return all(label == labels[0] for label in labels)


# ----------------------------------------------------------------- prediction


def test_unanimous_vote():
    e = Ensemble([bias_sub(f"s{i}", (0, 0, 0, 5)) for i in range(3)])
    assert predict(e, X) == 3


def test_strict_majority_wins():
    e = Ensemble(
        [bias_sub("a", (0, 5, 0)), bias_sub("b", (0, 5, 0)), bias_sub("c", (0, 0, 5))]
    )
    assert predict(e, X) == 1


def test_three_way_tie_resolved_by_mean_softmax():
    biases = [(2.0, 0.0, 1.9), (0.0, 2.0, 1.9), (0.0, 0.0, 2.0)]
    e = Ensemble([bias_sub(f"s{i}", b) for i, b in enumerate(biases)])
    mean_p = np.mean([softmax_rows(np.array(b)) for b in biases], axis=0)
    assert int(np.argmax(mean_p)) == 2
    assert predict(e, X) == 2


def test_exactly_tied_softmax_prefers_smallest_label():
    e = Ensemble([bias_sub("a", (5.0, 0.0, 0.0)), bias_sub("b", (0.0, 5.0, 0.0))])
    assert predict(e, X) == 0


def test_score_mode_matches_mean_softmax_argmax():
    rng = np.random.default_rng(3)
    biases = rng.uniform(-2, 2, size=(3, 4))
    e = Ensemble([bias_sub(f"s{i}", b) for i, b in enumerate(biases)], mode="score")
    expected = int(np.argmax(np.mean([softmax_rows(b) for b in biases], axis=0)))
    assert predict(e, X) == expected


def test_score_mode_order_invariant():
    rng = np.random.default_rng(17)
    biases = rng.uniform(-2, 2, size=(3, 4))
    subs = [bias_sub(f"s{i}", b) for i, b in enumerate(biases)]
    labels = {
        predict(Ensemble(list(perm), mode="score"), X)
        for perm in itertools.permutations(subs)
    }
    assert len(labels) == 1


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6), m=st.integers(1, 5), n=st.integers(2, 6))
def test_vote_output_is_an_emitted_label(seed, m, n):
    rng = np.random.default_rng(seed)
    biases = rng.uniform(-3, 3, size=(m, n))
    e = Ensemble([bias_sub(f"s{i}", b) for i, b in enumerate(biases)])
    emitted = {int(np.argmax(b)) for b in biases}
    assert predict(e, X) in emitted


@settings(max_examples=50, deadline=None)
@given(
    majority=st.integers(0, 3),
    deviant=st.integers(0, 3),
    where=st.integers(0, 2),
)
def test_majority_of_three_survives_one_deviant(majority, deviant, where):
    # Prop.-1 arithmetic for a 3-member ensemble: two fixed votes beat any third
    logits = np.eye(4) * 5
    subs = [bias_sub(f"s{i}", logits[majority]) for i in range(3)]
    subs[where] = bias_sub("dev", logits[deviant])
    subs[(where + 1) % 3] = bias_sub("m1", logits[majority])
    subs[(where + 2) % 3] = bias_sub("m2", logits[majority])
    assert predict(Ensemble(subs), X) == majority


def test_classify_batch_matches_predict():
    rng = np.random.default_rng(5)
    e = Ensemble(
        [bias_sub(f"s{i}", rng.uniform(-1, 1, 3)) for i in range(3)], mode="score"
    )
    xb = rng.uniform(0, 1, size=(4,) + SHAPE)
    batch = e.classify_batch(xb)
    assert [predict(e, x) for x in xb] == list(batch)


def test_member_logits_serve_vote_score_and_members():
    shape = (5, 5, 3)
    arch = [{"kind": "Flatten"}, {"kind": "Dense", "out_features": None}]
    subs = [
        SubModel(kind, flt.filter_spec(kind), nn.build_network(arch, shape, 4, seed=i))
        for i, kind in enumerate(("identity", "discretize", "lowpass", "octree"))
    ]
    xb = np.random.default_rng(8).uniform(size=(6,) + shape)
    z = Ensemble(subs).member_logits(xb)
    assert z.shape == (4, 6, 4)
    for sm, zm in zip(subs, z):
        assert np.array_equal(zm, sm.forward_batch(xb))
        assert np.array_equal(np.argmax(zm, axis=1), sm.classify_batch(xb))
    for mode in ("vote", "score"):
        e = Ensemble(subs, mode=mode)
        assert np.array_equal(e.classify_logits(z), e.classify_batch(xb))


def vote_oracle(z, num_classes):
    """The per-image vote loop: bincount the member labels, break ties by mean softmax."""
    labels = np.argmax(z, axis=2)
    mean_p = np.exp(nn._log_softmax(z)).mean(axis=0)
    out = np.empty(z.shape[1], dtype=np.int64)
    for i in range(z.shape[1]):
        counts = np.bincount(labels[:, i], minlength=num_classes)
        tied = np.flatnonzero(counts == counts.max())
        if len(tied) == 1:
            out[i] = tied[0]
        else:
            out[i] = tied[np.argmax(mean_p[i, tied])]
    return out


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**6), m=st.integers(1, 6), n=st.integers(0, 8), k=st.integers(2, 5))
def test_vote_equals_per_image_bincount_loop(seed, m, n, k):
    # small integer logits tie both the member labels and the mean softmax often
    z = np.random.default_rng(seed).integers(-2, 3, size=(m, n, k)).astype(np.float64)
    e = Ensemble([bias_sub(f"s{i}", np.zeros(k)) for i in range(m)])
    got = e.classify_logits(z)
    assert got.dtype == np.int64
    assert np.array_equal(got, vote_oracle(z, k))


@pytest.mark.parametrize("mode", ["vote", "score"])
def test_empty_batch_classifies_to_empty_int64(mode):
    e = Ensemble([bias_sub("a", (1, 0, 0)), bias_sub("b", (0, 1, 0))], mode=mode)
    xb = np.zeros((0,) + SHAPE)
    labels = e.classify_batch(xb)
    assert labels.shape == (0,) and labels.dtype == np.int64
    assert e.grad_input_batch(xb, np.zeros(0, dtype=int)).shape == xb.shape


# ------------------------------------------------------------------ stability


def test_single_submodel_always_stable():
    e = Ensemble([bias_sub("only", (1.0, 0.0))])
    for x in np.random.default_rng(0).uniform(0, 1, size=(5,) + SHAPE):
        assert stable(e, x)


def test_disagreement_is_unstable():
    e = Ensemble([bias_sub("a", (5, 0)), bias_sub("b", (0, 5))])
    assert not stable(e, X)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), m=st.integers(2, 5))
def test_stability_equals_all_pairs_agreement(seed, m):
    rng = np.random.default_rng(seed)
    biases = rng.uniform(-2, 2, size=(m, 3))
    e = Ensemble([bias_sub(f"s{i}", b) for i, b in enumerate(biases)])
    labels = [int(np.argmax(b)) for b in biases]
    oracle = all(a == b for a in labels for b in labels)
    assert stable(e, X) == oracle


# ----------------------------------------------------------------- validation


def test_ensemble_constructor_rejects():
    with pytest.raises(ValueError, match="at least one"):
        Ensemble([])
    with pytest.raises(ValueError, match="mode"):
        Ensemble([bias_sub("a", (1, 0))], mode="argmax")
    with pytest.raises(ValueError, match="class count"):
        Ensemble([bias_sub("a", (1, 0)), bias_sub("b", (1, 0, 0))])


# -------------------------------------------------------------------- margins


def scalar_certificate(f, lip):
    """The per-image margin and radius formulas, applied to one row of logits."""
    label = int(np.argmax(f))
    delta = float(f[label] - np.delete(f, label).max())
    if delta > 0:
        radius = delta / (math.sqrt(2.0) * lip) if lip > 0 else math.inf
    else:
        radius = 0.0
    return delta, radius


def test_margin_examples():
    xb = np.stack([X, X])
    cert = certify_submodel(bias_sub("s", (2.0, 0.5, 0.0)), xb, 1.0)
    assert cert.margin.shape == cert.radius.shape == (2,)
    assert cert.margin == pytest.approx([1.5, 1.5], abs=1e-12)
    tied = certify_submodel(bias_sub("t", (1.0, 1.0, 0.0)), xb, 1.0)
    assert np.array_equal(tied.margin, [0.0, 0.0])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 8))
def test_margin_matches_scan_oracle(seed, n):
    rng = np.random.default_rng(seed)
    logits = rng.uniform(-4, 4, size=n)
    label = int(np.argmax(logits))
    best_other = max(v for i, v in enumerate(logits) if i != label)
    got = certify_submodel(bias_sub("s", logits), X[None], 1.0).margin[0]
    assert got == pytest.approx(logits[label] - best_other, abs=1e-12)
    assert got >= 0.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(0, 6), lip=st.sampled_from([0.0, 0.5, 3.0]))
def test_batched_certificate_equals_scalar_formula_on_its_own_logits(seed, n, lip):
    # integer weights and half-integer pixels make tied top logits common
    rng = np.random.default_rng(seed)
    net = bias_net(rng.integers(-2, 3, size=3))
    net.layers[-1].weight[:] = rng.integers(-2, 3, size=net.layers[-1].weight.shape)
    sm = SubModel("s", flt.filter_spec("identity"), net)
    xb = rng.integers(0, 3, size=(n,) + SHAPE) / 2
    cert = certify_submodel(sm, xb, lip)
    assert cert.margin.shape == cert.radius.shape == (n,)
    z = sm.forward_batch(xb)
    for i in range(n):
        assert (cert.margin[i], cert.radius[i]) == scalar_certificate(z[i], lip)


def test_batched_certificate_matches_single_image_forward():
    # a one-row Dense product may take a different BLAS kernel than a batch
    arch = [
        {"kind": "Conv2D", "out_channels": 3, "kernel": [3, 3], "stride": 1, "padding": "same"},
        {"kind": "ReLU"},
        {"kind": "Flatten"},
        {"kind": "Dense", "out_features": None},
    ]
    net = nn.build_network(arch, (5, 5, 3), 4, seed=6)
    xb = np.random.default_rng(2).uniform(size=(7, 5, 5, 3))
    for kind in ("identity", "lowpass", "octree"):
        sm = SubModel(kind, flt.filter_spec(kind), net)
        lip = net.lipschitz_upper_bound(seed=0)
        cert = certify_submodel(sm, xb, lip)
        for i, x in enumerate(xb):
            one = certify_submodel(sm, x[None], lip)
            assert one.margin[0] == pytest.approx(cert.margin[i], rel=1e-12, abs=0.0)
            assert one.radius[0] == pytest.approx(cert.radius[i], rel=1e-12, abs=0.0)


# -------------------------------------------------------------- certification


def test_zero_margin_certifies_nothing():
    sm = SubModel("flat", flt.filter_spec("identity"), bias_net((1.0, 1.0)))
    cert = certify_submodel(sm, np.stack([X, X]), sm.net.lipschitz_upper_bound(seed=0))
    assert np.array_equal(cert.margin, [0.0, 0.0])
    assert np.array_equal(cert.radius, [0.0, 0.0])


def test_identity_weight_certificate_is_margin_over_sqrt2():
    net = nn.build_network(
        [{"kind": "Flatten"}, {"kind": "Dense", "out_features": None}], (2, 2, 1), 4, seed=0
    )
    dense = net.layers[-1]
    dense.weight[:] = np.eye(4)
    dense.bias[:] = (1.0, 0.2, 0.0, -0.5)
    xb = np.stack([np.full((2, 2, 1), 0.25), np.array([0.0, 0.9, 0.1, 0.3]).reshape(2, 2, 1)])
    sm = SubModel("eye", flt.filter_spec("identity"), net)
    cert = certify_submodel(sm, xb, net.lipschitz_upper_bound(seed=0))
    assert cert.lipschitz == pytest.approx(1.0, rel=1e-9)
    for i, x in enumerate(xb):
        logits = np.sort(x.ravel() + dense.bias)
        expected_margin = logits[-1] - logits[-2]
        assert cert.margin[i] == pytest.approx(expected_margin, rel=1e-12)
        assert cert.radius[i] == pytest.approx(expected_margin / math.sqrt(2), rel=1e-9)


def test_certified_ball_survives_random_sampling():
    arch = [
        {"kind": "Conv2D", "out_channels": 3, "kernel": [3, 3], "stride": 1, "padding": "same"},
        {"kind": "ReLU"},
        {"kind": "Flatten"},
        {"kind": "Dense", "out_features": None},
    ]
    net = nn.build_network(arch, (5, 5, 1), 3, seed=4)
    rng = np.random.default_rng(8)
    x = rng.uniform(0, 1, size=(5, 5, 1))
    sm = SubModel("probe", flt.filter_spec("identity"), net)
    radius = certify_submodel(sm, x[None], net.lipschitz_upper_bound(seed=0)).radius[0]
    assert radius > 0
    z = flt.apply(sm.filter, x)
    label = int(net.classify_batch(z[None])[0])
    d = z.size
    for _ in range(500):
        v = rng.standard_normal(z.shape)
        v *= radius * rng.uniform() ** (1.0 / d) / np.linalg.norm(v)
        assert int(net.classify_batch((z + v)[None])[0]) == label


def test_doubled_lipschitz_halves_the_radius():
    net = nn.build_network(
        [{"kind": "Flatten"}, {"kind": "Dense", "out_features": None}], (2, 2, 1), 4, seed=3
    )
    sm = SubModel("cached", flt.filter_spec("identity"), net)
    xb = np.stack([np.full((2, 2, 1), 0.4), np.full((2, 2, 1), 0.9)])
    lip = net.lipschitz_upper_bound(seed=2)
    cert = certify_submodel(sm, xb, lip)
    doubled = certify_submodel(sm, xb, 2.0 * lip)
    assert np.array_equal(doubled.margin, cert.margin)
    assert doubled.radius == pytest.approx(cert.radius / 2.0, rel=1e-12)


def test_pairwise_bound_identities():
    flat_sm = SubModel("flat", flt.filter_spec("identity"), bias_net((1.0, 1.0)))
    flat = certify_submodel(flat_sm, np.stack([X, X]), flat_sm.net.lipschitz_upper_bound(seed=0))
    ma, mb = np.array([1.5, 0.3]), np.array([0.8, 0.0])
    a = ensemble.RobustnessCertificate("a", ma, 2.0, ma / (math.sqrt(2) * 2.0))
    b = ensemble.RobustnessCertificate("b", mb, 5.0, mb / (math.sqrt(2) * 5.0))
    assert np.array_equal(pairwise_bound(flat, a), [0.0, 0.0])
    assert pairwise_bound(a, b) == pytest.approx(a.radius * b.radius, rel=1e-12)
    assert pairwise_bound(a, b) == pytest.approx([(1.5 * 0.8) / (2 * 2.0 * 5.0), 0.0], rel=1e-12)
    assert pairwise_bound(a, a) == pytest.approx(a.radius**2, rel=1e-12)


# ----------------------------------------------------------- training helpers

TINY_ARCH = [{"kind": "Flatten"}, {"kind": "Dense", "out_features": None}]
TINY_CFG = nn.TrainConfig(learning_rates=(0.1,), epochs_per_rate=1, batch_size=8, rng_seed=5)


def tiny_dataset():
    return data.synth_shapes(8, size=8, seed=33)


def test_sigma_zero_equals_plain_training():
    ds = tiny_dataset()
    subs = gaussian_noise_submodels(TINY_ARCH, ds, sigma=0.0, count=1, seed=9, train_cfg=TINY_CFG)
    assert len(subs) == 1
    net_seed = ensemble._derived_seed(9, 0x474E, 0)
    cfg_seed = ensemble._derived_seed(9, 0x4754, 0)
    plain, _ = nn.train(
        nn.build_network(TINY_ARCH, ds.image_shape, ds.num_classes, seed=net_seed),
        ds,
        nn.TrainConfig(learning_rates=(0.1,), epochs_per_rate=1, batch_size=8, rng_seed=cfg_seed),
    )
    for a, b in zip(params_of(subs[0].net), params_of(plain)):
        assert np.array_equal(a, b)


def test_gaussian_submodels_are_distinct():
    ds = tiny_dataset()
    subs = gaussian_noise_submodels(TINY_ARCH, ds, sigma=0.05, count=3, seed=1, train_cfg=TINY_CFG)
    assert [sm.name for sm in subs] == ["gauss0", "gauss1", "gauss2"]
    assert all(sm.filter.kind == "identity" for sm in subs)
    w0, w1, w2 = (sm.net.layers[-1].weight for sm in subs)
    assert not np.array_equal(w0, w1)
    assert not np.array_equal(w1, w2)


def test_gaussian_submodels_validation():
    ds = tiny_dataset()
    with pytest.raises(ValueError, match="sigma"):
        gaussian_noise_submodels(TINY_ARCH, ds, sigma=-0.1, count=1, train_cfg=TINY_CFG)
    with pytest.raises(ValueError, match="count"):
        gaussian_noise_submodels(TINY_ARCH, ds, count=0, train_cfg=TINY_CFG)


def test_adversarial_training_trains_on_4_step_pgd_at_8_255():
    # the attack spelled out as callers once passed it, step size min(2.5 r / steps, r)
    ds = tiny_dataset()
    radius = 8 / 255
    pgd = AttackConfig(method="pgd", radius=radius, steps=4, step_size=min(2.5 * radius / 4, radius))

    def augment(net, rng, xb, yb):
        results = run_attack_batch(net, xb, yb, pgd, image_ids=rng.integers(2**31, size=len(xb)))
        return np.stack([r.adversarial for r in results])

    net = nn.build_network(TINY_ARCH, ds.image_shape, ds.num_classes, seed=TINY_CFG.rng_seed)
    want, _ = nn.train(net, ds, TINY_CFG, augment)
    for a, b in zip(params_of(adversarial_train(TINY_ARCH, ds, TINY_CFG)), params_of(want)):
        assert np.array_equal(a, b)


def test_adversarial_training_deterministic():
    ds = tiny_dataset()
    one = adversarial_train(TINY_ARCH, ds, TINY_CFG)
    two = adversarial_train(TINY_ARCH, ds, TINY_CFG)
    for a, b in zip(params_of(one), params_of(two)):
        assert np.array_equal(a, b)


# ------------------------------------------------ training in worker processes


class AugmentFailed(Exception):
    pass


def fail_outside(test_pid, net, rng, xb, yb):
    """An augment that raises, with its process id, in any process but the test's."""
    if os.getpid() != test_pid:
        raise AugmentFailed(os.getpid())
    return xb


def test_gaussian_members_train_in_workers_with_the_same_bits(tmp_path, monkeypatch):
    train = nn.train

    def recording_train(*args):
        with open(tmp_path / "pids", "a") as fh:  # the workers' pids reach the test through the file
            fh.write(f"{os.getpid()}\n")
        return train(*args)

    monkeypatch.setattr(nn, "train", recording_train)
    ds = tiny_dataset()
    members = {}
    for cpus in (1, 2):
        monkeypatch.setattr(ensemble, "_usable_cpus", lambda: cpus)
        members[cpus] = gaussian_noise_submodels(TINY_ARCH, ds, sigma=0.05, count=3, seed=1, train_cfg=TINY_CFG)
        assert multiprocessing.active_children() == []
    for one, two in zip(members[1], members[2]):
        assert one.name == two.name
        for a, b in zip(params_of(one.net), params_of(two.net)):
            assert np.array_equal(a, b)
    pids = (tmp_path / "pids").read_text().split()
    assert pids[:3] == [str(os.getpid())] * 3
    assert len(pids) == 6 and str(os.getpid()) not in pids[3:]


def test_an_augment_that_fails_in_a_worker_raises_its_own_error(monkeypatch):
    monkeypatch.setattr(ensemble, "_usable_cpus", lambda: 2)
    ds = tiny_dataset()
    identity = flt.filter_spec("identity")
    augment = partial(fail_outside, os.getpid())
    jobs = [(identity, nn.build_network(TINY_ARCH, ds.image_shape, ds.num_classes, seed=s), TINY_CFG, augment)
            for s in (0, 1)]
    with pytest.raises(AugmentFailed) as failure:
        ensemble.train_submodels(jobs, ds)
    assert failure.value.args[0] != os.getpid()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_an_augment_that_cannot_pickle_fails_before_any_training_on_any_cpu_count(cpus, monkeypatch):
    trained = []
    monkeypatch.setattr(nn, "train", lambda *args: trained.append(args))
    monkeypatch.setattr(ensemble, "_usable_cpus", lambda: cpus)
    ds = tiny_dataset()
    identity = flt.filter_spec("identity")
    augments = [None, lambda net, rng, xb, yb: xb]
    jobs = [(identity, nn.build_network(TINY_ARCH, ds.image_shape, ds.num_classes, seed=s), TINY_CFG, augment)
            for s, augment in enumerate(augments)]
    with pytest.raises(TypeError, match="job 1: the augment must pickle"):
        ensemble.train_submodels(jobs, ds)
    assert trained == []
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------- stock plans


def test_default_ensemble_plans():
    bank = flt.default_filters()
    mincorr = [(name, bank[key]) for name, key in ensemble.DEFAULT_ENSEMBLES["mincorr"]]
    assert [(name, spec.kind) for name, spec in mincorr] == [
        ("original", "discretize"),
        ("lowpass", "lowpass"),
        ("octree16", "octree"),
    ]
    assert dict(mincorr)["octree16"].param("max_colors") == 16
    maxcorr = [(name, bank[key]) for name, key in ensemble.DEFAULT_ENSEMBLES["maxcorr"]]
    assert [(name, spec.kind) for name, spec in maxcorr] == [
        ("original", "discretize"),
        ("highpass", "highpass"),
        ("grayscale", "grayscale"),
    ]
    assert sorted(ensemble.DEFAULT_ENSEMBLES) == ["maxcorr", "mincorr"]
