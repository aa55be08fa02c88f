import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_noise
from robustdp import PerturbationOracle
from robustdp.perturb import MODES

steps = st.integers(0, 10_000)
phases = st.integers(0, 50)
queries = st.tuples(st.integers(0, 20), st.integers(0, 20))
seeds = st.integers(-(2**63), 2**63 - 1)


def test_adversarial_extremes_saturate_bound_and_alternate():
    oracle = PerturbationOracle(mode="adversarial_extremes", bound=0.5)
    assert oracle.perturb(0, 0, [(0, 0), (0, 1), (1, 1)]).tolist() == [0.5, -0.5, 0.5]
    assert oracle.perturb(1, 0, [(0, 0)]).tolist() == [-0.5]
    assert oracle.perturb(2, 3, [(4, 0)]).tolist() == [-0.5]


@given(steps, phases, queries, seeds)
def test_uniform_noise_is_deterministic_and_bounded(step, phase, query, seed):
    oracle = PerturbationOracle(mode="uniform_noise", bound=1e-3, seed=seed)
    first = oracle.perturb(step, phase, [query])[0]
    assert first == oracle.perturb(step, phase, [query])[0]
    assert abs(first) <= oracle.bound


@pytest.mark.parametrize("mode", MODES)
@given(steps, phases, st.lists(queries, max_size=30), seeds)
@settings(max_examples=50)
def test_batched_draw_equals_per_tag_noise(mode, step, phase, batch, seed):
    oracle = PerturbationOracle(mode=mode, bound=1e-3, seed=seed)
    noise = [reference_noise(oracle, (step, phase, k, a)) for k, a in batch]
    assert oracle.perturb(step, phase, batch).tolist() == noise
    assert [oracle.perturb(step, phase, [query])[0] for query in batch] == noise


def test_replayed_query_sequence_identical():
    oracle = PerturbationOracle(mode="uniform_noise", bound=0.1, seed=42)
    sequence = [(k, a) for k in range(3) for a in range(2)]
    for step in range(3):
        for phase in range(2):
            stream1 = oracle.perturb(step, phase, sequence).tolist()
            stream2 = oracle.perturb(step, phase, iter(sequence)).tolist()
            assert stream1 == stream2


def test_different_seeds_differ_somewhere():
    a = PerturbationOracle(mode="uniform_noise", bound=0.1, seed=1)
    b = PerturbationOracle(mode="uniform_noise", bound=0.1, seed=2)
    sequence = [(k, 0) for k in range(16)]
    assert a.perturb(0, 0, sequence).tolist() != b.perturb(0, 0, sequence).tolist()


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
    assert oracle.perturb(0, 0, [(0, 0)]) == reference_noise(oracle, (0, 0, 0, 0))


@pytest.mark.parametrize("seed", [2**63 - 1, -(2**63)])
def test_extreme_seeds_draw(seed):
    oracle = PerturbationOracle(mode="uniform_noise", bound=0.1, seed=seed)
    (noise,) = oracle.perturb(0, 0, [(0, 0)])
    assert noise == reference_noise(oracle, (0, 0, 0, 0))
