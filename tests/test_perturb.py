import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_noise
from robustdp import PerturbationOracle
from robustdp.perturb import MODES

counters = st.integers(0, 2**40)
indices = st.integers(0, 5_000)
seeds = st.integers(-(2**63), 2**63 - 1)
bounds = st.floats(1e-12, 1e3)


def test_adversarial_extremes_saturate_bound_and_alternate():
    oracle = PerturbationOracle(mode="adversarial_extremes", bound=0.5)
    assert oracle.perturb(0, 0, [0, 0, 1], [0, 1, 1]).tolist() == [0.5, -0.5, 0.5]
    assert oracle.perturb(1, 0, 0, 0).tolist() == -0.5
    assert oracle.perturb(2, 3, 4, 0).tolist() == -0.5


@given(counters, counters, indices, indices, seeds, bounds)
def test_uniform_noise_is_deterministic_and_bounded(step, phase, k, a, seed, bound):
    oracle = PerturbationOracle(mode="uniform_noise", bound=bound, seed=seed)
    first = oracle.perturb(step, phase, k, a)
    assert first.shape == ()
    assert first == oracle.perturb(step, phase, k, a)
    assert -bound <= first <= bound


@st.composite
def broadcast_tags(draw):
    """Four integer arrays whose shapes broadcast together: each takes, on
    every axis of a shape of up to three axes, its size or 1, and may drop
    leading axes."""
    shape = draw(st.lists(st.integers(1, 4), max_size=3))
    tags = []
    for limit in (2**40, 2**40, 5_000, 5_000):
        dims = [n if draw(st.booleans()) else 1 for n in shape]
        dims = dims[draw(st.integers(0, len(dims))):]
        size = int(np.prod(dims, dtype=int))
        values = draw(st.lists(st.integers(0, limit), min_size=size, max_size=size))
        tags.append(np.array(values, dtype=np.int64).reshape(dims))
    return tags


@pytest.mark.parametrize("mode", MODES)
@given(broadcast_tags(), seeds, bounds)
@settings(max_examples=100)
def test_batched_draw_equals_per_tag_noise(mode, tags, seed, bound):
    """Every entry of one broadcast draw is, bit for bit, the Python-int
    definition of its tag's noise, and lies in [-bound, bound]."""
    oracle = PerturbationOracle(mode=mode, bound=bound, seed=seed)
    noise = oracle.perturb(*tags)
    tags = np.broadcast_arrays(*tags)
    assert noise.shape == tags[0].shape and noise.dtype == np.float64
    for index in np.ndindex(noise.shape):
        tag = tuple(int(c[index]) for c in tags)
        assert noise[index] == reference_noise(oracle, tag), tag
    assert np.all(np.abs(noise) <= bound)


@given(counters, counters, indices, indices, seeds)
def test_adversarial_sign_follows_tag_parity(step, phase, k, a, seed):
    oracle = PerturbationOracle(mode="adversarial_extremes", bound=0.25, seed=seed)
    expected = 0.25 if (step + phase + k + a) % 2 == 0 else -0.25
    assert oracle.perturb(step, phase, k, a) == expected


def test_replayed_query_sequence_identical():
    oracle = PerturbationOracle(mode="uniform_noise", bound=0.1, seed=42)
    states, actions = np.arange(3)[:, None], np.arange(2)
    for step in range(3):
        for phase in range(2):
            stream1 = oracle.perturb(step, phase, states, actions).tolist()
            stream2 = oracle.perturb(step, phase, [[0], [1], [2]], [0, 1]).tolist()
            assert stream1 == stream2


def test_different_seeds_differ_somewhere():
    a = PerturbationOracle(mode="uniform_noise", bound=0.1, seed=1)
    b = PerturbationOracle(mode="uniform_noise", bound=0.1, seed=2)
    states = np.arange(16)
    assert a.perturb(0, 0, states, 0).tolist() != b.perturb(0, 0, states, 0).tolist()


def test_invalid_mode_rejected():
    with pytest.raises(ValueError, match="mode"):
        PerturbationOracle(mode="gaussian", bound=0.1)


def test_negative_bound_rejected():
    with pytest.raises(ValueError, match="bound"):
        PerturbationOracle(mode="uniform_noise", bound=-1.0)


@pytest.mark.parametrize("bound", [0.0, float("nan")])
def test_nonpositive_bound_rejected(bound):
    with pytest.raises(ValueError, match="bound must be positive"):
        PerturbationOracle(mode="adversarial_extremes", bound=bound)


@pytest.mark.parametrize("seed", [2**63, -(2**63) - 1, True, 1.0, "7"])
def test_seed_outside_signed_64_bit_rejected(seed):
    with pytest.raises(ValueError, match="seed must be a signed 64-bit integer"):
        PerturbationOracle(mode="uniform_noise", bound=0.1, seed=seed)


@pytest.mark.parametrize("bound", [True, "1", None, 1j], ids=repr)
def test_bound_must_be_a_real_number(bound):
    with pytest.raises(TypeError, match="^bound must be a real number"):
        PerturbationOracle(mode="uniform_noise", bound=bound)


def test_numpy_numbers_stored_as_python_numbers():
    oracle = PerturbationOracle(
        mode="uniform_noise", bound=np.float32(0.25), seed=np.int64(5)
    )
    assert (type(oracle.bound), type(oracle.seed)) == (float, int)
    assert (oracle.bound, oracle.seed) == (0.25, 5)
    assert oracle.perturb(0, 0, 0, 0) == reference_noise(oracle, (0, 0, 0, 0))


@pytest.mark.parametrize("seed", [2**63 - 1, -(2**63), -1])
def test_extreme_seeds_draw(seed):
    oracle = PerturbationOracle(mode="uniform_noise", bound=0.1, seed=seed)
    noise = oracle.perturb(0, 0, 0, 0)
    assert noise == reference_noise(oracle, (0, 0, 0, 0))
