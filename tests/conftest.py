"""Session-wide trained fixtures: one small shape-classification stack.

Training a handful of filtered sub-models once and sharing them keeps the
behavioral tests (attack orderings, certification, ensemble comparisons)
fast enough to run in the default suite.
"""

import pytest

from fenet import data, ensemble, filters as flt, nn
from fenet.cli import DESK_ARCH

DESK_TRAIN_CFG = nn.TrainConfig(
    learning_rates=(0.1, 0.01, 0.001), epochs_per_rate=3, batch_size=32, rng_seed=7
)


def params_of(net):
    """Every parameter tensor of a network, layer by layer, in declared order."""
    return [p for layer in net.layers for p in layer.params]


def desk_bank():
    """Filter bank sized for the 16x16 desk images."""
    bank = flt.default_filters()
    bank["downsize"] = flt.filter_spec("downsize", target=(8, 8))
    return bank


@pytest.fixture(scope="session")
def desk_train():
    return data.synth_shapes(150, size=16, seed=101)


@pytest.fixture(scope="session")
def desk_test():
    return data.synth_shapes(50, size=16, seed=202)


@pytest.fixture(scope="session")
def desk_submodels(desk_train):
    bank = desk_bank()
    names = sorted(bank)
    nets = [
        nn.build_network(DESK_ARCH, flt.output_shape(bank[name], desk_train.image_shape),
                         desk_train.num_classes, seed=11 + i)
        for i, name in enumerate(names)
    ]
    trained = ensemble.train_submodels([bank[name] for name in names], nets, desk_train, DESK_TRAIN_CFG)
    return {name: ensemble.SubModel(name, bank[name], net) for name, (net, _) in zip(names, trained)}


@pytest.fixture(scope="session")
def desk_source(desk_submodels):
    """The unfiltered network, used as the attack source in transfer studies."""
    return desk_submodels["identity"].net


@pytest.fixture(scope="session")
def desk_mincorr(desk_submodels):
    subs = [
        ensemble.SubModel("original", desk_submodels["discretize"].filter, desk_submodels["discretize"].net),
        desk_submodels["lowpass"],
        desk_submodels["octree16"],
    ]
    return ensemble.Ensemble(subs, mode="vote")


@pytest.fixture(scope="session")
def desk_gauss(desk_train):
    """Gaussian-noise-trained comparison ensemble members."""
    return ensemble.gaussian_noise_submodels(
        DESK_ARCH, desk_train, sigma=0.02, count=3, seed=0, train_cfg=DESK_TRAIN_CFG
    )
