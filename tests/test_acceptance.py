"""End-to-end acceptance suite.

Each test implements one numbered guarantee at its stated tolerance and
prints a single PASS/FAIL line (visible with ``pytest -s``). The five
benchmark algebras are the eight-point classical algebra, the clock-shift
algebras for moduli 2 to 4, and the two-block sector sum.
"""

import numpy as np
import pytest

from oplattice import (
    LogicalState,
    Scenario,
    baire_envelope,
    block_decomposition,
    build_classical,
    build_sectors,
    build_weyl_finite,
    center,
    close,
    commutant,
    dirac_characters,
    distributivity_residual,
    evaluate,
    hs_norm,
    is_factor,
    is_pure,
    is_separating,
    join,
    meet,
    mvn_dimension,
    operator_norm,
    orthocomplement,
    orthomodularity_residual,
    projectors_equivalent,
    random_orthogonal_family,
    random_projector,
    random_state,
    report_to_json,
    run_scenario,
    sigma_orthoadditivity_residuals,
)
from oplattice.seeding import derive_seed
from tests.conftest import (IterationFailed, line_projector, meet_iterative,
                            reference_project_onto)


def _verdict(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def benchmark_algebras():
    return {
        "classical_8": close(build_classical(8)),
        "weyl_2": close(build_weyl_finite(2)),
        "weyl_3": close(build_weyl_finite(3)),
        "weyl_4": close(build_weyl_finite(4)),
        "sectors_2_3": close(build_sectors([(2, 1), (3, 1)])),
    }


@pytest.fixture(scope="module")
def benchmark_decompositions(benchmark_algebras):
    return {name: block_decomposition(alg) for name, alg in benchmark_algebras.items()}


def test_criterion_01_orthomodularity(benchmark_algebras):
    worst = 0.0
    for label, alg in benchmark_algebras.items():
        for i in range(1000):
            q = random_projector(alg, derive_seed(101, 1, i))
            r = random_projector(alg, derive_seed(101, 2, i))
            p = meet(r, q)
            worst = max(worst, orthomodularity_residual(p, q))
    _verdict(1, "orthomodularity on 1000 constrained pairs per algebra",
             worst <= 1e-7, f"worst residual {worst:.2e}")


def test_criterion_02_classical_distributivity(benchmark_algebras):
    alg = benchmark_algebras["classical_8"]
    worst_law = 0.0
    worst_product = 0.0
    for i in range(1000):
        p = random_projector(alg, derive_seed(202, 1, i))
        q = random_projector(alg, derive_seed(202, 2, i))
        r = random_projector(alg, derive_seed(202, 3, i))
        worst_law = max(worst_law, distributivity_residual(p, q, r))
        worst_product = max(worst_product, operator_norm(meet(p, q) - p @ q))
    _verdict(2, "classical lattice distributes and meets are plain products",
             worst_law <= 1e-7 and worst_product <= 1e-10,
             f"law {worst_law:.2e}, product {worst_product:.2e}")


def test_criterion_03_quantum_non_distributivity():
    scenario = Scenario(name="weyl2", kind="weyl_finite", dim=2,
                        parameters={"modulus": 2}, trials=400, seed=2026)
    report = run_scenario(scenario)
    recorded = (not report.lattice.distributive) and report.lattice.counterexample is not None
    p = line_projector(0.0)
    q = line_projector(np.pi / 4)
    r = line_projector(np.pi / 2)
    lhs = meet(p, join(q, r))
    rhs = join(meet(p, q), meet(p, r))
    sides_ok = operator_norm(lhs - p) <= 1e-9 and operator_norm(rhs) <= 1e-9
    residual = operator_norm(lhs - rhs)
    _verdict(3, "quantum counterexample recorded and the three-line triple violates",
             recorded and sides_ok and abs(residual - 1.0) <= 1e-9,
             f"recorded={recorded}, triple residual {residual:.12f}")


def test_criterion_04_meet_dual_algorithm_agreement(benchmark_algebras):
    alg = benchmark_algebras["weyl_4"]
    declared = 0
    worst = 0.0
    trials = 1000
    for i in range(trials):
        p = random_projector(alg, derive_seed(404, 1, i))
        q = random_projector(alg, derive_seed(404, 2, i))
        oracle = meet(p, q)
        try:
            iterated = meet_iterative(p, q)
        except IterationFailed:
            declared += 1
            continue
        worst = max(worst, operator_norm(iterated - oracle))
    _verdict(4, "iterated-product meets agree with the null-space oracle",
             worst <= 1e-8 and declared < 0.005 * trials,
             f"worst {worst:.2e}, declared failures {declared}/{trials}")


def test_criterion_05_double_commutant(benchmark_algebras):
    worst = 0.0
    for label, alg in benchmark_algebras.items():
        assert baire_envelope(alg) is alg, f"{label} is not its own envelope"
        envelope = commutant(commutant(alg))  # the bicommutant, off the commutant's blocks
        ok_dims = envelope.dim == alg.dim
        for v in alg.basis:
            worst = max(worst, hs_norm(v - reference_project_onto(envelope, v)))
        for v in envelope.basis:
            worst = max(worst, hs_norm(v - reference_project_onto(alg, v)))
        once = commutant(alg)
        thrice = commutant(commutant(once))
        ok_dims = ok_dims and once.dim == thrice.dim
        for v in once.basis:
            worst = max(worst, hs_norm(v - reference_project_onto(thrice, v)))
        for v in thrice.basis:
            worst = max(worst, hs_norm(v - reference_project_onto(once, v)))
        assert ok_dims, f"span dimensions diverged for {label}"
    _verdict(5, "generated von Neumann algebra equals the closure",
             worst <= 1e-8, f"worst basis-vector residual {worst:.2e}")


def test_criterion_06_clock_shift_relation():
    worst = 0.0
    dims_ok = True
    for d in range(2, 9):
        u, v = build_weyl_finite(d).generators
        omega = np.exp(2j * np.pi / d)
        worst = max(worst, operator_norm(v @ u - omega * (u @ v)))
        dims_ok = dims_ok and close(build_weyl_finite(d)).dim == d * d
    _verdict(6, "exchange relation and full closure for moduli 2-8",
             worst <= 1e-12 and dims_ok, f"worst relation residual {worst:.2e}")


def test_criterion_07_sigma_orthoadditivity(benchmark_algebras):
    worst_add = 0.0
    worst_comp = 0.0
    for label, alg in benchmark_algebras.items():
        envelope = baire_envelope(alg)
        for i in range(200):
            state = random_state(alg.ambient_dim, derive_seed(707, 1, i))
            logical = LogicalState(underlying=state, domain=envelope)
            family = random_orthogonal_family(alg, derive_seed(707, 2, i))
            add_res, comp_res = sigma_orthoadditivity_residuals(logical, family)
            worst_add = max(worst_add, add_res)
            worst_comp = max(worst_comp, comp_res)
    _verdict(7, "logical states are additive over orthogonal families",
             worst_add <= 1e-7 and worst_comp <= 1e-9,
             f"additivity {worst_add:.2e}, complement {worst_comp:.2e}")


def test_criterion_08_point_states(benchmark_algebras):
    alg = benchmark_algebras["classical_8"]
    characters = dirac_characters(alg)
    count_ok = len(characters) == 8
    rng = np.random.default_rng(808)
    worst_mult = 0.0
    for chi in characters:
        for _ in range(20):
            a = np.diag(rng.standard_normal(8)).astype(complex)
            b = np.diag(rng.standard_normal(8)).astype(complex)
            worst_mult = max(
                worst_mult, abs(evaluate(chi, a @ b) - evaluate(chi, a) * evaluate(chi, b))
            )
    pure_ok = all(is_pure(chi, alg) for chi in characters)
    separating_ok = is_separating(characters, alg)
    _verdict(8, "eight multiplicative pure point states separate the classical algebra",
             count_ok and worst_mult <= 1e-8 and pure_ok and separating_ok,
             f"count {len(characters)}, multiplicativity {worst_mult:.2e}")


def test_criterion_09_dimension_function(benchmark_algebras, benchmark_decompositions):
    additivity_ok = True
    agreement_ok = True
    zero_ok = True
    for label, alg in benchmark_algebras.items():
        decomp = benchmark_decompositions[label]
        zero = np.zeros((alg.ambient_dim, alg.ambient_dim), dtype=complex)
        zero_ok = zero_ok and all(x == 0 for x in mvn_dimension(alg, zero))
        for i in range(500):
            p = random_projector(alg, derive_seed(909, 1, i))
            q = meet(random_projector(alg, derive_seed(909, 2, i)), orthocomplement(p))
            dp = mvn_dimension(alg, p)
            dq = mvn_dimension(alg, q)
            dsum = mvn_dimension(alg, p + q)
            additivity_ok = additivity_ok and [a + b for a, b in zip(dp, dq)] == dsum
        for i in range(500):
            p = random_projector(alg, derive_seed(909, 3, i))
            q = random_projector(alg, derive_seed(909, 4, i))
            verdict = projectors_equivalent(alg, p, q)
            dims_equal = mvn_dimension(alg, p) == mvn_dimension(alg, q)
            agreement_ok = agreement_ok and verdict == dims_equal
    _verdict(9, "dimension function is additive, zero at 0, and decides equivalence",
             additivity_ok and agreement_ok and zero_ok)


def test_criterion_10_sector_round_trip():
    alg = close(build_sectors([(2, 1), (3, 1)]))
    decomp = block_decomposition(alg)
    blocks = sorted((s.block_size, s.multiplicity) for s in decomp.sectors)
    round_trip_ok = blocks == [(2, 1), (3, 1)]
    center_ok = center(alg).dim == 2 and not is_factor(alg)
    weyl = close(build_weyl_finite(3))
    weyl_decomp = block_decomposition(weyl)
    weyl_ok = (
        is_factor(weyl)
        and [(s.block_size, s.multiplicity) for s in weyl_decomp.sectors] == [(3, 1)]
    )
    _verdict(10, "sector structure round-trips and factors are recognized",
             round_trip_ok and center_ok and weyl_ok, f"blocks {blocks}")


def test_criterion_11_determinism():
    scenario = Scenario(name="sectors", kind="sectors", dim=5,
                        parameters={"blocks": [[2, 1], [3, 1]]}, trials=50, seed=31)
    first = report_to_json(run_scenario(scenario))
    second = report_to_json(run_scenario(scenario))
    _verdict(11, "scenario reports are byte-identical across runs",
             first == second,
             f"{len(first)} bytes")
