"""The stacked seeding kernels against NumPy's own `SeedSequence` and `default_rng`."""

import numpy as np
import pytest

from oplattice import (
    random_state,
    report_to_json,
    run_scenario,
    scenario_from_json,
    state_to_json,
)
from oplattice import logic, scenarios, sectors, seeding, states
from oplattice.seeding import attempt_generator, derive_seed, derive_seeds, generators
from tests.conftest import reference_derive_seed, reference_rng

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**70 + 1]
BIG_MASTER_SEEDS = [2**64, 2**64 + 1, 2**96 + 7, 2**200 + 3]
ALL_SEEDS = EDGE_SEEDS + BIG_MASTER_SEEDS
INDICES = [0, 1, 999, 2**32, 2**40 + 5]


def same_generator(a, b) -> bool:
    return a.bit_generator.state == b.bit_generator.state


class TestDeriveSeeds:
    @pytest.mark.parametrize("seed", ALL_SEEDS)
    def test_matches_seed_sequence_over_an_index_array(self, seed):
        got = derive_seeds(seed, 7, np.array(INDICES, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [reference_derive_seed(seed, 7, i) for i in INDICES]

    @pytest.mark.parametrize("seed", ALL_SEEDS)
    @pytest.mark.parametrize("index", INDICES)
    def test_one_seed_is_the_stacked_kernel_on_one_row(self, seed, index):
        assert derive_seed(seed, 3, index) == reference_derive_seed(seed, 3, index)

    def test_array_master_seeds_mixing_one_and_two_word_values(self):
        masters = np.array([0, 2**32 - 1, 2**32, 5, 2**64 - 1, 2**33 + 1], dtype=np.uint64)
        for attempt in (0, 1, 2**32):
            got = derive_seeds(masters, seeding.STREAM_FAMILY_SPLIT, attempt)
            want = [reference_derive_seed(m, seeding.STREAM_FAMILY_SPLIT, attempt) for m in masters]
            assert got.tolist() == want

    def test_every_argument_may_be_the_array(self):
        assert derive_seeds(9, np.array([1, 2**40]), 4).tolist() == [
            reference_derive_seed(9, 1, 4), reference_derive_seed(9, 2**40, 4)]
        assert derive_seeds([2**70 + 1, 3], 2, [0, 2**32]).tolist() == [
            reference_derive_seed(2**70 + 1, 2, 0), reference_derive_seed(3, 2, 2**32)]

    def test_empty_batch(self):
        for index in (np.arange(0), []):
            got = derive_seeds(5, 1, index)
            assert got.shape == (0,) and got.dtype == np.uint64

    @pytest.mark.parametrize(
        "args", [(-1, 1, np.arange(3)), (4, 1, np.array([2, -3])), (4, -1, 0), ([-5], 1, 0)]
    )
    def test_negative_seed_raises(self, args):
        with pytest.raises(ValueError):
            derive_seeds(*args)

    def test_negative_scalar_seed_raises(self):
        with pytest.raises(ValueError):
            derive_seed(-1, 1, 0)

    def test_non_integers_are_refused(self):
        with pytest.raises(TypeError):
            derive_seeds(1.5, 1, 0)
        with pytest.raises(TypeError):
            derive_seeds(1, 1, np.array([0.0, 1.0]))

    def test_arrays_of_different_lengths_are_refused(self):
        with pytest.raises(ValueError):
            derive_seeds(np.arange(3), 1, np.arange(4))


class TestGenerators:
    def test_states_match_default_rng(self):
        for rng, seed in zip(generators(ALL_SEEDS), ALL_SEEDS):
            assert same_generator(rng, reference_rng(seed))

    def test_uint64_array_mixing_one_and_two_word_values(self):
        seeds = np.array([3, 2**32, 2**64 - 1, 0, 2**32 - 1], dtype=np.uint64)
        rngs = generators(seeds)
        assert all(same_generator(rng, reference_rng(int(s))) for rng, s in zip(rngs, seeds))
        # each generator also draws what its NumPy twin draws
        twin = reference_rng(2**64 - 1)
        assert rngs[2].standard_normal(5).tolist() == twin.standard_normal(5).tolist()

    def test_empty_batch(self):
        assert generators([]) == []
        assert generators(np.array([], dtype=np.uint64)) == []

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError):
            generators([-1])
        with pytest.raises(ValueError):
            generators(np.array([4, -1]))
        with pytest.raises(ValueError):
            random_state(2, -1)

    @pytest.mark.parametrize("stream", [seeding.STREAM_BLOCK, seeding.STREAM_GENERIC])
    def test_attempt_generator_is_the_seed_sequence_of_the_pair(self, stream):
        for attempt in range(9):
            want = reference_rng(np.random.SeedSequence((stream, attempt)))
            assert same_generator(attempt_generator(stream, attempt), want)

    def test_attempt_generators_are_fresh_on_every_call(self):
        first, second = (attempt_generator(seeding.STREAM_BLOCK, 4) for _ in range(2))
        want = reference_rng(seeding.STREAM_BLOCK | 4 << 32).standard_normal(6)
        assert first is not second
        assert np.array_equal(first.standard_normal(6), want)
        assert np.array_equal(second.standard_normal(6), want)  # not advanced by the first


def _reference_kernels(monkeypatch) -> list:
    """Replace the stacked kernels, wherever the package bound them, by per-seed NumPy;
    returns the list of kernel names the references are called as."""
    called = []

    def ref_derive_seeds(seed, stream, index):
        called.append("derive_seeds")
        parts = np.broadcast_arrays(*(np.array(x, dtype=object) for x in (seed, stream, index)))
        rows = zip(*(np.ravel(p) for p in parts))
        return np.array([reference_derive_seed(*row) for row in rows], dtype=np.uint64)

    def ref_generators(seeds):
        called.append("generators")
        return [reference_rng(int(s)) for s in np.ravel(np.array(seeds, dtype=object))]

    def ref_attempt_generator(stream, attempt):
        called.append("attempt_generator")
        return reference_rng(np.random.SeedSequence((stream, attempt)))

    replacements = {"derive_seeds": ref_derive_seeds, "generators": ref_generators,
                    "attempt_generator": ref_attempt_generator}
    for module in (logic, scenarios, sectors, seeding, states):
        for name, fn in replacements.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fn)
    return called


SCENARIOS = {  # kind: (dim, parameters)
    "classical": (3, {"point_count": 3}),
    "weyl_finite": (3, {"modulus": 3}),
    "sectors": (4, {"blocks": [[2, 1], [1, 2]]}),
}


@pytest.mark.parametrize("kind", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", [0, 7, 2**40, 2**70 + 1])
def test_reports_equal_the_per_seed_numpy_reports(kind, seed, monkeypatch):
    dim, parameters = SCENARIOS[kind]
    scenario = scenario_from_json({
        "name": f"{kind}-{seed}", "kind": kind, "dim": dim, "parameters": parameters,
        "trials": 30, "seed": seed, "states": [state_to_json(random_state(dim, 5))],
    })
    stacked = report_to_json(run_scenario(scenario))
    called = _reference_kernels(monkeypatch)
    assert report_to_json(run_scenario(scenario)) == stacked
    assert set(called) == {"derive_seeds", "generators", "attempt_generator"}
