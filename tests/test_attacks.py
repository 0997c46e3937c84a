"""Attack engine tests against closed-form linear oracles and step-math identities."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fenet import attacks, data, filters as flt, nn
from fenet.attacks import AttackConfig, run_attack_batch, transfer_eval
from fenet.ensemble import Ensemble, SubModel
from fenet.util import clamp01

IMG = (3, 3, 1)


def linear_net(seed=0, shape=IMG, classes=2):
    return nn.build_network(
        [{"kind": "Flatten"}, {"kind": "Dense", "out_features": None}],
        shape,
        classes,
        seed=seed,
    )


def conv_net(seed=0, shape=(6, 6, 1), classes=3):
    arch = [
        {"kind": "Conv2D", "out_channels": 3, "kernel": [3, 3], "stride": 1, "padding": "same"},
        {"kind": "ReLU"},
        {"kind": "Flatten"},
        {"kind": "Dense", "out_features": None},
    ]
    return nn.build_network(arch, shape, classes, seed=seed)


def ce_input_grad(net, x, label):
    """Closed-form cross-entropy input gradient for a Flatten+Dense network."""
    dense = net.layers[-1]
    z = dense.weight @ x.ravel() + dense.bias
    p = np.exp(z - z.max())
    p /= p.sum()
    p[label] -= 1.0
    return (p @ dense.weight).reshape(x.shape)


def interior_x(seed=0, shape=IMG, lo=0.35, hi=0.65):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=shape)


def attack_one(model, x, label, cfg, image_id=0):
    """Attack a single image through the batched engine."""
    return run_attack_batch(model, x[None], [label], cfg, image_ids=[image_id])[0]


class GradCounter:
    """A model wrapper that counts the attack's gradient calls."""

    def __init__(self, model):
        self.model = model
        self.grad_calls = 0

    def grad_input_batch(self, xb, labels):
        self.grad_calls += 1
        return self.model.grad_input_batch(xb, labels)

    def classify_batch(self, xb):
        return self.model.classify_batch(xb)


# ---------------------------------------------------------- one-step oracles


def test_fgsm_matches_linear_closed_form():
    net = linear_net(seed=3)
    x = interior_x(seed=1)
    label = int(net.classify_batch(x[None])[0])
    r = 0.03
    res = attack_one(net, x, label, AttackConfig(method="fgsm", radius=r))
    expected = clamp01(x + r * np.sign(ce_input_grad(net, x, label)))
    np.testing.assert_allclose(res.adversarial, expected, rtol=1e-12, atol=1e-15)
    assert res.success == (int(net.classify_batch(res.adversarial[None])[0]) != label)


def test_fgsm_linear_success_threshold():
    # two-class linear model with hand weights: one step flips the label
    # exactly when r * ||w1 - w0||_1 exceeds the logit margin
    net = linear_net(seed=0)
    dense = net.layers[-1]
    v = 0.4 * np.array([1, -1, 1, -1, 1, -1, 1, -1, 1], dtype=float)
    dense.weight[0] = 0.0
    dense.weight[1] = v
    dense.bias[:] = (0.3, 0.0)
    x = np.full(IMG, 0.5)
    assert net.classify_batch(x[None])[0] == 0
    margin = 0.3 - v @ x.ravel()
    critical = margin / np.abs(v).sum()
    below = attack_one(net, x, 0, AttackConfig(method="fgsm", radius=0.8 * critical))
    above = attack_one(net, x, 0, AttackConfig(method="fgsm", radius=1.25 * critical))
    assert not below.success
    assert above.success
    assert above.final_label == 1


def test_bim_single_step_equals_fgsm():
    net = linear_net(seed=5)
    x = interior_x(seed=2)
    r = 0.02
    a = attack_one(net, x, 1, AttackConfig(method="fgsm", radius=r))
    b = attack_one(net, x, 1, AttackConfig(method="bim", radius=r, steps=1, step_size=r))
    assert np.array_equal(a.adversarial, b.adversarial)


def test_pgd_single_step_no_init_equals_fgsm():
    net = linear_net(seed=5)
    x = interior_x(seed=2)
    r = 0.02
    a = attack_one(net, x, 0, AttackConfig(method="fgsm", radius=r))
    c = attack_one(net, x, 0, AttackConfig(radius=r, steps=1, step_size=r, random_init=False))
    assert np.array_equal(a.adversarial, c.adversarial)


def test_pgd_l2_constant_gradient_sticks_to_sphere():
    # linear two-class: the normalized gradient direction u never changes, so
    # with step r the iterate is x0 + r*u after every projection
    net = linear_net(seed=7)
    x = interior_x(seed=3)
    label = int(net.classify_batch(x[None])[0])
    r = 0.01
    g = ce_input_grad(net, x, label)
    u = g / np.linalg.norm(g)
    res = attack_one(net, x, label, AttackConfig(radius=r, norm=2, steps=3, step_size=r, random_init=False))
    np.testing.assert_allclose(res.adversarial, x + r * u, rtol=1e-12, atol=1e-15)
    assert abs(np.linalg.norm(res.adversarial - x) - r) < 1e-12


def test_l2_projection_is_radial():
    rng = np.random.default_rng(11)
    d = rng.standard_normal((3, 4, 4, 1))
    r = 0.1
    norms = attacks._norms(d, 2.0)
    d[2] *= 2 * r / norms[2]  # exactly twice the radius
    out = attacks._project(d.copy(), r, 2.0)
    for i in range(3):
        n_in = attacks._norms(d[i : i + 1], 2.0)[0]
        if n_in < r:
            np.testing.assert_array_equal(out[i], d[i])
        else:
            assert abs(attacks._norms(out[i : i + 1], 2.0)[0] - r) < 1e-12
    np.testing.assert_allclose(out[2], d[2] / 2, rtol=1e-12)
    zeros = attacks._project(np.zeros((1, 4, 4, 1)), r, 2.0)
    assert not zeros.any()


def test_sup_norm_projection_is_the_coordinate_clip():
    r = 0.1
    inside = np.array([[0.05, -0.03, 0.0]])
    np.testing.assert_array_equal(attacks._project(inside.copy(), r, np.inf), inside)
    outside = np.array([[0.25, -0.02, 0.15]])
    out = attacks._project(outside.copy(), r, np.inf)
    np.testing.assert_allclose(out, [[r, -0.02, r]], rtol=1e-15)
    boundary = np.array([[r, -0.04, 0.0]])
    np.testing.assert_array_equal(attacks._project(boundary.copy(), r, np.inf), boundary)


def test_pgd_without_init_walks_the_bim_path():
    net = conv_net(seed=11)
    x = np.random.default_rng(30).uniform(0, 1, size=(6, 6, 1))
    cfg_b = AttackConfig(method="bim", radius=0.05, steps=6, step_size=0.01)
    cfg_p = AttackConfig(radius=0.05, steps=6, step_size=0.01, random_init=False)
    a = attack_one(net, x, 0, cfg_b)
    b = attack_one(net, x, 0, cfg_p)
    assert np.array_equal(a.adversarial, b.adversarial)


# ---------------------------------------------------- trajectory and streams


@pytest.mark.parametrize("p", [np.inf, 2.0])
def test_pgd_trace_stays_inside_ball(p):
    net = conv_net(seed=1)
    rng = np.random.default_rng(4)
    xb = rng.uniform(0, 1, size=(4, 6, 6, 1))
    labels = [0, 1, 2, 0]
    r = 0.05
    cfg = AttackConfig(radius=r, norm=p, steps=8, step_size=r / 4)
    seen = []
    results = run_attack_batch(net, xb, labels, cfg, image_ids=np.arange(4), trace=lambda s, a: seen.append(a.copy()))
    assert len(seen) == 8
    for a in seen:
        assert a.min() >= 0.0 and a.max() <= 1.0
        assert np.all(attacks._norms(a - xb, p) <= r + 1e-9)
    adv = np.stack([res.adversarial for res in results])
    np.testing.assert_array_equal(adv, seen[-1])


def test_pgd_deterministic_and_keyed_by_image_id():
    net = conv_net(seed=2)
    rng = np.random.default_rng(9)
    xb = rng.uniform(0, 1, size=(3, 6, 6, 1))
    labels = [1, 0, 2]
    cfg = AttackConfig(radius=0.05, steps=4)
    first = run_attack_batch(net, xb, labels, cfg, image_ids=[5, 6, 7])
    again = run_attack_batch(net, xb, labels, cfg, image_ids=[5, 6, 7])
    for a, b in zip(first, again):
        assert np.array_equal(a.adversarial, b.adversarial)
        assert a.success == b.success

    solo = attack_one(net, xb[1], labels[1], cfg, image_id=6)
    assert np.array_equal(solo.adversarial, first[1].adversarial)

    other = run_attack_batch(net, xb, labels, AttackConfig(radius=0.05, steps=4, rng_seed=1), image_ids=[5, 6, 7])
    assert not np.array_equal(first[0].adversarial, other[0].adversarial)


# at radius 0 no gradient call sees the labels, so only the check at the top can catch them
@pytest.mark.parametrize("labels, ids, radius, message", [
    ([1, 0, 2], [5, 6], 0.05, "got 2 image_ids for 3 images"),
    ([1, 0, 2], [5, 6, 7, 8], 0.05, "got 4 image_ids for 3 images"),
    ([1, 0, 2, 1], [5, 6, 7], 0.0, "got 4 labels for 3 images"),
    ([1, 0], [5, 6, 7], 0.0, "got 2 labels for 3 images"),
], ids=["ids0", "ids1", "labels0", "labels1"])
def test_image_ids_must_key_every_image(labels, ids, radius, message):
    net = conv_net(seed=2)
    xb = np.full((3, 6, 6, 1), 0.5)
    with pytest.raises(ValueError, match=message):
        run_attack_batch(net, xb, labels, AttackConfig(radius=radius, steps=4), image_ids=ids)


def test_radius_zero_returns_input_unchanged():
    net = linear_net(seed=1)
    x = interior_x(seed=5)
    for method in ("fgsm", "bim", "pgd"):
        counter = GradCounter(net)
        res = run_attack_batch(counter, x[None], [0], AttackConfig(method=method, radius=0.0), image_ids=[0])[0]
        assert np.array_equal(res.adversarial, x)
        assert counter.grad_calls == 0
        clean = int(net.classify_batch(x[None])[0])
        assert res.success == (clean != 0)


@pytest.mark.parametrize("radius", [float("nan"), float("inf"), -0.01])
def test_radius_must_be_a_finite_number_at_least_zero(radius):
    # a NaN radius used to fail `r > 0`, so the attack returned the clean images
    with pytest.raises(ValueError, match="^radius must be a finite number >= 0"):
        AttackConfig(method="fgsm", radius=radius)


def test_fixed_step_size_at_radius_zero_returns_input_unchanged():
    net = linear_net(seed=1)
    x = interior_x(seed=5)
    for method in ("bim", "pgd"):
        cfg = AttackConfig(method=method, radius=0.0, step_size=0.004)
        counter = GradCounter(net)
        res = run_attack_batch(counter, x[None], [0], cfg, image_ids=[0])[0]
        assert np.array_equal(res.adversarial, x)
        assert counter.grad_calls == 0
    with pytest.raises(ValueError, match="exceeds radius"):
        AttackConfig(method="pgd", radius=0.002, step_size=0.004)


@pytest.mark.parametrize("norm", ["inf", 2])
def test_empty_batch_with_random_init_returns_no_results(norm):
    net = linear_net(seed=1)
    sub = SubModel("low", flt.filter_spec("lowpass", sigma=2.0), net)
    cfg = AttackConfig(method="pgd", radius=0.05, norm=norm, steps=2, random_init=True)
    for model in (net, sub, Ensemble([sub, sub])):
        assert run_attack_batch(model, np.zeros((0,) + IMG), [], cfg, image_ids=[]) == []


def test_query_accounting():
    net = linear_net(seed=2)
    x = interior_x(seed=6)
    for cfg, want in (
        (AttackConfig(method="fgsm", radius=0.01), 1),
        (AttackConfig(method="bim", radius=0.01, steps=3), 3),
        (AttackConfig(radius=0.01, steps=5), 5),
    ):
        counter = GradCounter(net)
        attack_one(counter, x, 0, cfg)
        assert counter.grad_calls == want, cfg.method


def test_zero_gradient_leaves_input_in_place():
    net = linear_net(seed=0)
    dense = net.layers[-1]
    dense.weight[:] = 0.0
    dense.bias[:] = 0.0
    x = interior_x(seed=7)
    for method in ("fgsm", "bim"):
        res = run_attack_batch(net, x[None], [1], AttackConfig(method=method, radius=0.1), image_ids=[0])[0]
        assert np.array_equal(res.adversarial, x)
        # equal logits resolve to class 0, so label 1 still counts as a flip
        assert res.final_label == 0
        assert res.success


def test_paper_sign_convention_mirrors_the_step():
    net = linear_net(seed=8)
    x = interior_x(seed=8)
    up = attack_one(net, x, 0, AttackConfig(method="fgsm", radius=0.02))
    down = attack_one(net, x, 0, AttackConfig(method="fgsm", radius=0.02, loss_sign="paper_literal"))
    np.testing.assert_allclose(
        down.adversarial - x, -(up.adversarial - x), rtol=1e-12, atol=1e-15
    )


# ----------------------------------------------------------- config contract


@pytest.mark.parametrize(
    "kwargs",
    [
        {"method": "cw"},
        {"radius": -0.1},
        {"norm": 1},
        {"steps": 0},
        {"step_size": 0.0},
        {"method": "bim", "radius": 0.01, "step_size": 0.02},
        {"radius": 0.01, "step_size": 0.02},
        {"loss_sign": "up"},
        {"method": "fgsm", "norm": 2},
        {"method": "bim", "norm": 2},
    ],
)
def test_config_rejects(kwargs):
    with pytest.raises(ValueError):
        AttackConfig(**kwargs)


@pytest.mark.parametrize("steps", [2.5, True, "3", 0])
def test_steps_must_be_an_integer_at_least_one(steps):
    # 2.5 used to fail inside range(); True ran one step
    with pytest.raises(ValueError, match=f"^steps must be an integer >= 1, got {steps!r}$"):
        AttackConfig(steps=steps)


def test_config_step_size_default_is_tenth_of_radius():
    cfg = AttackConfig(radius=0.2)
    assert cfg.resolved_step_size() == pytest.approx(0.02)
    assert AttackConfig(radius=0.2, step_size=0.05).resolved_step_size() == 0.05


def test_norm_spellings_normalize():
    assert AttackConfig(norm="inf").norm == np.inf
    assert AttackConfig(norm="2").norm == 2.0
    assert AttackConfig(norm=2).norm == 2.0


# ------------------------------------------------------- filters in the loop


def test_identity_submodel_attack_equals_plain_attack():
    net = conv_net(seed=3)
    x = np.random.default_rng(12).uniform(0, 1, size=(6, 6, 1))
    cfg = AttackConfig(radius=0.04, steps=5)
    plain = attack_one(net, x, 0, cfg)
    sub = attack_one(SubModel("s", flt.filter_spec("identity"), net), x, 0, cfg)
    assert np.array_equal(plain.adversarial, sub.adversarial)
    assert plain.success == sub.success


def test_discretize_bpda_gradient_taken_at_filtered_point():
    net = conv_net(seed=4)
    x = np.random.default_rng(13).uniform(0, 1, size=(6, 6, 1))
    spec = flt.filter_spec("discretize")
    r = 0.03
    res = attack_one(SubModel("s", spec, net), x, 2, AttackConfig(method="fgsm", radius=r))
    g = net.grad_input_batch(flt.apply_batch(spec, x[None]), [2])[0]
    np.testing.assert_allclose(res.adversarial, clamp01(x + r * np.sign(g)), rtol=1e-12)


def test_adjoint_mode_routes_gradient_through_the_filter():
    net = conv_net(seed=5)
    x = np.random.default_rng(14).uniform(0, 1, size=(6, 6, 1))
    spec = flt.filter_spec("lowpass", sigma=2.0)
    r = 0.03
    sub = SubModel("s", spec, net, bpda="adjoint")
    res = attack_one(sub, x, 1, AttackConfig(method="fgsm", radius=r))
    g = net.grad_input_batch(flt.apply_batch(spec, x[None]), [1])[0]
    back = flt.frequency_filter(g, 2.0, "low")
    np.testing.assert_allclose(res.adversarial, clamp01(x + r * np.sign(back)), rtol=1e-12)


def test_grayscale_submodel_gradient_spreads_luma_weights():
    net = conv_net(seed=6, shape=(6, 6, 1))
    x = np.random.default_rng(15).uniform(0, 1, size=(6, 6, 3))
    spec = flt.filter_spec("grayscale")
    r = 0.02
    res = attack_one(SubModel("s", spec, net), x, 0, AttackConfig(method="fgsm", radius=r))
    assert res.adversarial.shape == (6, 6, 3)
    g = net.grad_input_batch(flt.apply_batch(spec, x[None]), [0])[0]
    back = g * flt.LUMA_WEIGHTS
    np.testing.assert_allclose(res.adversarial, clamp01(x + r * np.sign(back)), rtol=1e-12)


def test_bpda_off_only_works_without_a_filter():
    net = linear_net(seed=9)
    x = interior_x(seed=9)
    attack_one(net, x, 0, AttackConfig(method="fgsm", radius=0.02))
    for spec in (flt.filter_spec("discretize"), flt.filter_spec("identity")):
        with pytest.raises(ValueError, match="identity' or 'adjoint"):
            SubModel("s", spec, net, bpda="off")


# ----------------------------------------------------------- summed ensemble


def test_duplicated_submodel_does_not_change_the_path():
    net = conv_net(seed=8)
    x = np.random.default_rng(17).uniform(0, 1, size=(6, 6, 1))
    sub = SubModel("s", flt.filter_spec("discretize"), net)
    cfg = AttackConfig(radius=0.04, steps=5)
    one = attack_one(Ensemble([sub]), x, 0, cfg)
    two = attack_one(Ensemble([sub, sub]), x, 0, cfg)
    assert np.array_equal(one.adversarial, two.adversarial)


def test_single_submodel_ensemble_equals_direct_submodel_attack():
    net = conv_net(seed=9)
    x = np.random.default_rng(18).uniform(0, 1, size=(6, 6, 1))
    sub = SubModel("s", flt.filter_spec("lowpass", sigma=3.0), net)
    cfg = AttackConfig(radius=0.03, steps=4)
    ens = attack_one(Ensemble([sub]), x, 2, cfg)
    direct = attack_one(sub, x, 2, cfg)
    assert np.array_equal(ens.adversarial, direct.adversarial)
    assert ens.success == direct.success


def test_ensemble_gradient_is_the_member_sum():
    subs = [
        SubModel("a", flt.filter_spec("discretize"), conv_net(seed=20)),
        SubModel("b", flt.filter_spec("lowpass", sigma=3.0), conv_net(seed=21), bpda="adjoint"),
    ]
    xb = np.random.default_rng(19).uniform(0, 1, size=(2, 6, 6, 1))
    labels = [0, 2]
    want = subs[0].grad_input_batch(xb, labels) + subs[1].grad_input_batch(xb, labels)
    assert np.array_equal(Ensemble(subs).grad_input_batch(xb, labels), want)


# ----------------------------------------------------------- transfer tables


def test_transfer_eval_zero_epsilon_rows_are_clean_accuracy():
    ds = data.synth_shapes(3, size=8, seed=1)
    net = conv_net(seed=10, shape=(8, 8, 3), classes=4)
    targets = {"plain": net, "filtered": SubModel("filtered", flt.filter_spec("identity"), net)}
    cfg = AttackConfig(method="fgsm", radius=0.01)
    rows = transfer_eval([(net, targets)], ds, [0.0, 4 / 255], cfg)
    assert [(r[0], r[1]) for r in rows] == [
        (0.0, "plain"),
        (0.0, "filtered"),
        (4 / 255, "plain"),
        (4 / 255, "filtered"),
    ]
    clean = float(np.mean(net.classify_batch(ds.images) == ds.labels))
    assert rows[0][2] == pytest.approx(clean)
    assert rows[1][2] == pytest.approx(clean)
    assert all(0.0 <= r[2] <= 1.0 for r in rows)
    again = transfer_eval([(net, targets)], ds, [0.0, 4 / 255], cfg)
    assert rows == again


def test_transfer_eval_plan_rows_run_radii_then_pairs_then_targets():
    ds = data.synth_shapes(3, size=8, seed=1)
    a = conv_net(seed=10, shape=(8, 8, 3), classes=4)
    b = conv_net(seed=11, shape=(8, 8, 3), classes=4)
    plan = [(a, {"a": a, "b": b}), (b, {"b": b, "a": a})]
    cfg = AttackConfig(method="pgd", radius=0.01, steps=3, rng_seed=2)
    epsilons = [0.0, 4 / 255]
    rows = transfer_eval(plan, ds, epsilons, cfg)
    assert [(eps, name) for eps, name, _ in rows] == [(eps, name) for eps in epsilons for name in "abba"]
    # each cell scores its target on its source's adversarials; a source scored on
    # itself, from the attack's own final labels, reads the same
    want = []
    for eps in epsilons:
        for source, targets in plan:
            results = run_attack_batch(source, ds.images, ds.labels, replace(cfg, radius=eps),
                                       image_ids=np.arange(len(ds)))
            adv = np.stack([r.adversarial for r in results])
            want += [float(np.mean(t.classify_batch(adv) == ds.labels)) for t in targets.values()]
    assert [acc for _, _, acc in rows] == want


def test_transfer_eval_rejects_empty_dataset():
    class Empty:
        images = np.zeros((0, 4, 4, 1))
        labels = np.zeros(0, dtype=int)

        def __len__(self):
            return 0

    net = linear_net()
    with pytest.raises(ValueError, match="empty"):
        transfer_eval([(net, {"m": net})], Empty(), [0.0], AttackConfig())


def test_accuracy_csv_format():
    rows = [(0.0, "a", 1.0), (8 / 255, "b", 0.51234567)]
    out = attacks.accuracy_table_csv(rows)
    assert out == "epsilon,model_name,accuracy\n0,a,1.000000\n8,b,0.512346\n"


# --------------------------------------------------------------- invariants


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    method=st.sampled_from(["fgsm", "bim", "pgd"]),
    radius=st.floats(0.0, 0.3),
)
def test_ball_and_range_invariants(seed, method, radius):
    rng = np.random.default_rng(seed)
    net = linear_net(seed=seed % 97, classes=3)
    x = rng.uniform(0, 1, size=IMG)
    label = int(rng.integers(0, 3))
    cfg = AttackConfig(method=method, radius=radius, steps=3)
    res = run_attack_batch(net, x[None], [label], cfg, image_ids=[seed])[0]
    d = np.abs(res.adversarial - x).max()
    assert d <= radius + 1e-9
    assert res.adversarial.min() >= 0.0 and res.adversarial.max() <= 1.0
    got = int(net.classify_batch(res.adversarial[None])[0])
    assert res.final_label == got
    assert res.success == (got != label)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), radius=st.floats(0.001, 0.3))
def test_l2_ball_invariant(seed, radius):
    rng = np.random.default_rng(seed)
    net = linear_net(seed=seed % 89, classes=3)
    x = rng.uniform(0, 1, size=IMG)
    cfg = AttackConfig(radius=radius, norm=2, steps=3)
    res = run_attack_batch(net, x[None], [0], cfg, image_ids=[seed])[0]
    assert np.linalg.norm(res.adversarial - x) <= radius + 1e-9
