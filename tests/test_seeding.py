"""The counter-based uniforms, their normals and the stream generators, against NumPy."""

import numpy as np
import pytest

from oplattice import random_state, report_to_json, run_scenario, scenario_from_json, state_to_json
from oplattice import logic, scenarios, seeding, states
from oplattice.seeding import complex_normals, derive_seed, stream_generator, uniforms
from tests.conftest import reference_derive_seed, reference_normals, reference_uniforms

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**70 + 1]
BIG_MASTER_SEEDS = [2**64, 2**64 + 1, 2**96 + 7, 2**200 + 3]
ALL_SEEDS = EDGE_SEEDS + BIG_MASTER_SEEDS
STREAMS = [0, 1, 13, 22, 2**40]
INDICES = [0, 1, 999, 2**32, 2**40 + 5]


class TestUniforms:
    @pytest.mark.parametrize("seed", ALL_SEEDS)
    @pytest.mark.parametrize("width", [1, 3, 4, 7, 8, 33])
    def test_rows_are_the_keyed_philox_blocks(self, seed, width):
        for stream in STREAMS:
            got = uniforms(seed, stream, 6, width)
            assert got.shape == (6, width) and got.dtype == np.float64
            for row in range(6):
                assert np.array_equal(got[row], reference_uniforms(seed, stream, row, width))

    def test_rows_far_along_the_stream(self):
        got = uniforms(7, 3, 1200, 9)
        for row in (0, 255, 256, 1023, 1199):
            assert np.array_equal(got[row], reference_uniforms(7, 3, row, 9))

    @pytest.mark.parametrize("width", [1, 5, 12])
    def test_rows_do_not_depend_on_count(self, width):
        many = uniforms(2**64 + 1, 21, 40, width)
        for count in (0, 1, 3, 39):
            assert np.array_equal(uniforms(2**64 + 1, 21, count, width), many[:count])
        assert uniforms(3, 1, 0, width).shape == (0, width)

    def test_streams_and_seeds_key_different_rows(self):
        rows = [uniforms(seed, stream, 1, 8)[0] for seed in (0, 1, 2**64) for stream in (1, 2)]
        assert len({row.tobytes() for row in rows}) == len(rows)
        assert all(((row >= 0) & (row < 1)).all() for row in rows)

    @pytest.mark.parametrize("seed, stream", [(-1, 1), (1, -1)])
    def test_negative_seeds_are_refused(self, seed, stream):
        with pytest.raises(ValueError):
            uniforms(seed, stream, 2, 4)


class TestComplexNormals:
    def test_equal_the_box_muller_reference(self):
        u = uniforms(5, 9, 50, 10)
        got = complex_normals(u)
        assert got.shape == (50, 5)
        assert all(np.array_equal(g, reference_normals(row)) for g, row in zip(got, u))

    def test_finite_at_the_ends_of_the_interval(self):
        u = np.array([[0.0, 0.0, 0.25, 0.5], [1.0 - 2.0 ** -53, 0.0, 0.75, 1.0 - 2.0 ** -53]])
        z = complex_normals(u)
        assert np.isfinite(z).all()
        assert z[0, 0] == 0 and z[0, 1] == 0  # a = 0 is radius 0
        assert np.isclose(abs(z[1, 0]), np.sqrt(106 * np.log(2.0)), rtol=1e-12, atol=0)

    def test_moments_of_a_standard_complex_normal(self):
        z = complex_normals(uniforms(1, 99, 50_000, 4)).ravel()  # 10^5 draws
        n = len(z)
        assert n == 100_000
        for part in (z.real, z.imag):
            assert abs(part.mean()) < 5 / np.sqrt(n)
            assert abs(part.var() - 1.0) < 0.02
        assert abs(np.corrcoef(z.real, z.imag)[0, 1]) < 5 / np.sqrt(n)
        # a Gaussian's fourth moment, 3: Box-Muller's radius law, not just its variance
        assert abs(np.mean(z.real ** 4) - 3.0) < 0.1


class TestDeriveSeed:
    @pytest.mark.parametrize("seed", ALL_SEEDS)
    @pytest.mark.parametrize("index", INDICES)
    def test_is_the_seed_sequence_of_the_triple(self, seed, index):
        assert derive_seed(seed, 3, index) == reference_derive_seed(seed, 3, index)

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError):
            derive_seed(-1, 1, 0)
        with pytest.raises(ValueError):
            random_state(2, -1)


class TestStreamGenerator:
    @pytest.mark.parametrize("stream", [seeding.STREAM_BLOCK, seeding.STREAM_COMMUTANT])
    def test_stream_generator_is_the_default_rng_of_the_stream(self, stream):
        got, want = stream_generator(stream), np.random.default_rng(stream)
        assert got.bit_generator.state == want.bit_generator.state
        assert np.array_equal(got.standard_normal(7), want.standard_normal(7))
        assert np.array_equal(got.random((2, 3)), want.random((2, 3)))

    @pytest.mark.parametrize("stream", [seeding.STREAM_BLOCK, seeding.STREAM_COMMUTANT])
    def test_stream_generators_are_fresh_on_every_call(self, stream):
        first, second = (stream_generator(stream) for _ in range(2))
        want = np.random.default_rng(stream).standard_normal(6)
        assert first is not second
        assert np.array_equal(first.standard_normal(6), want)
        assert np.array_equal(second.standard_normal(6), want)  # not advanced by the first

    def test_stream_ids_are_distinct(self):
        streams = {name: value for name, value in vars(seeding).items() if name.startswith("STREAM_")}
        assert "STREAM_COMMUTANT" in streams
        assert len(set(streams.values())) == len(streams)


def _reference_uniforms(monkeypatch) -> list:
    """Replace `uniforms`, wherever the package bound it, by rows built one at a time from the
    Philox formula; returns the streams it was called with."""
    called = []

    def rows_alone(seed, stream, count, width):
        called.append(stream)
        rows = [reference_uniforms(seed, stream, i, width) for i in range(count)]
        return np.array(rows).reshape(count, width)

    for module in (logic, scenarios, seeding, states):
        if hasattr(module, "uniforms"):
            monkeypatch.setattr(module, "uniforms", rows_alone)
    return called


SCENARIOS = {  # kind: (dim, parameters)
    "classical": (3, {"point_count": 3}),
    "weyl_finite": (3, {"modulus": 3}),
    "sectors": (4, {"blocks": [[2, 1], [1, 2]]}),
}


@pytest.mark.parametrize("kind", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", [0, 7, 2**40, 2**70 + 1])
def test_reports_equal_the_row_by_row_reference(kind, seed, monkeypatch):
    dim, parameters = SCENARIOS[kind]
    scenario = scenario_from_json({
        "name": f"{kind}-{seed}", "kind": kind, "dim": dim, "parameters": parameters,
        "trials": 30, "seed": seed, "states": [state_to_json(random_state(dim, 5))],
    })
    stacked = report_to_json(run_scenario(scenario))
    called = _reference_uniforms(monkeypatch)
    assert report_to_json(run_scenario(scenario)) == stacked
    # one call per stream: the lattice draws its pairs only, and a Boolean lattice is not
    # sampled at all
    lattice = [] if kind == "classical" else [seeding.STREAM_ORTHOMODULAR_Q]
    assert sorted(called) == sorted(lattice + [seeding.STREAM_STATE_CHECK,
                                               seeding.STREAM_SWEEP_FAMILY,
                                               seeding.STREAM_SWEEP_STATE])
