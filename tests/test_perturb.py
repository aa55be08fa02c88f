import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_noise
from robustdp import PerturbationOracle

tags = st.tuples(
    st.integers(0, 10_000),
    st.integers(0, 50),
    st.integers(0, 20),
    st.integers(0, 20),
)


def test_identity_returns_value_unchanged():
    oracle = PerturbationOracle()
    assert oracle.perturb(3.25, [(0, 0, 0, 0)])[0] == 3.25
    assert oracle.is_identity


def test_adversarial_extremes_saturate_bound_and_alternate():
    oracle = PerturbationOracle(mode="adversarial_extremes", bound=0.5)
    even = oracle.perturb(1.0, [(0, 0, 0, 0)])[0]
    odd = oracle.perturb(1.0, [(0, 0, 0, 1)])[0]
    assert even == 1.5
    assert odd == 0.5
    assert abs(even - 1.0) == oracle.bound
    assert abs(odd - 1.0) == oracle.bound


@given(tags, st.integers(0, 2**31))
def test_uniform_noise_is_deterministic_and_bounded(tag, seed):
    oracle = PerturbationOracle(mode="uniform_noise", bound=1e-3, seed=seed)
    first = oracle.perturb(0.0, [tag])[0]
    second = oracle.perturb(0.0, [tag])[0]
    assert first == second
    assert abs(first) <= oracle.bound


@pytest.mark.parametrize("mode", ["uniform_noise", "adversarial_extremes"])
@given(st.lists(tags, max_size=30), st.integers(0, 2**31), st.floats(-1e3, 1e3))
@settings(max_examples=50)
def test_batched_draw_equals_per_tag_noise(mode, batch, seed, value):
    oracle = PerturbationOracle(mode=mode, bound=1e-3, seed=seed)
    noise = [reference_noise(oracle, tag) for tag in batch]
    assert oracle.noise(batch) == noise
    assert oracle.perturb(0.0, batch).tolist() == noise
    assert oracle.perturb(value, batch).tolist() == [value + x for x in noise]
    assert [oracle.perturb(value, [tag])[0] for tag in batch] == [
        value + x for x in noise
    ]


def test_replayed_query_sequence_identical():
    oracle = PerturbationOracle(mode="uniform_noise", bound=0.1, seed=42)
    sequence = [(t, s, k, a) for t in range(3) for s in range(2)
                for k in range(2) for a in range(2)]
    stream1 = oracle.perturb(1.0, sequence).tolist()
    stream2 = [oracle.perturb(1.0, [tag])[0] for tag in sequence]
    assert stream1 == stream2


def test_different_seeds_differ_somewhere():
    a = PerturbationOracle(mode="uniform_noise", bound=0.1, seed=1)
    b = PerturbationOracle(mode="uniform_noise", bound=0.1, seed=2)
    sequence = [(t, 0, 0, 0) for t in range(16)]
    assert a.noise(sequence) != b.noise(sequence)


def test_invalid_mode_rejected():
    with pytest.raises(ValueError, match="mode"):
        PerturbationOracle(mode="gaussian")


def test_negative_bound_rejected():
    with pytest.raises(ValueError, match="bound"):
        PerturbationOracle(mode="uniform_noise", bound=-1.0)
