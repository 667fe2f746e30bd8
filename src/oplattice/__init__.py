"""Projector lattices, states and superselection sectors of
finite-dimensional operator algebras.

Build a unital *-algebra from generator matrices, take commutants and
the generated von Neumann algebra, decompose into blocks, compute with
the orthomodular lattice of its projectors, and restrict density-matrix
states to logical states on that lattice.
"""

from .errors import (
    CenterDiagonalizationFailed,
    DimensionMismatch,
    NotCommutative,
    NotHermitian,
    NotInAlgebra,
    NotNormalized,
    NotOrthogonalFamily,
    NotPositive,
    NotProjector,
    NumericalError,
    OperatorAlgebraError,
    PreconditionFailed,
    ReducedRankNotDivisible,
    SectorDimensionMismatch,
    SectorStructureError,
    TensorFormDefect,
    ValidationError,
)
from .numerics import (
    DEFAULT_TOL,
    Tolerance,
    adjoint,
    as_matrix,
    dumps,
    ensure_projector,
    hs_norm,
    is_projector,
    matrix_from_json,
    matrix_to_json,
    null_space,
    operator_norm,
    rank_of,
)
from .algebra import (
    AlgebraBasis,
    GeneratorSet,
    algebra_to_json,
    baire_envelope,
    center,
    close,
    commutant,
    contains,
    generated_algebra,
    generator_commutant,
    generator_set_from_json,
    generator_set_to_json,
    is_commutative,
    same_span,
)
from .sectors import (
    Sector,
    SectorDecomposition,
    block_decomposition,
    decomposition_to_json,
    is_factor,
    minimal_central_projectors,
    mvn_dimension,
    projectors_equivalent,
)
from .logic import (
    LatticeReport,
    check_distributive,
    check_orthomodular,
    distributivity_residual,
    is_atom,
    join,
    lattice_report,
    lattice_report_to_json,
    leq,
    meet,
    orthocomplement,
    orthogonal,
    orthomodularity_residual,
    random_projector,
)
from .states import (
    LogicalState,
    StateFunctional,
    check_sigma_orthoadditive,
    dirac_characters,
    evaluate,
    is_pure,
    is_separating,
    make_state,
    random_orthogonal_family,
    random_state,
    restrict_logical,
    sigma_orthoadditivity_residuals,
    state_from_json,
    state_to_json,
)
from .scenarios import (
    Expectation,
    Scenario,
    ScenarioReport,
    build_classical,
    build_sectors,
    build_weyl_finite,
    clock_matrix,
    report_to_json,
    report_to_json_dict,
    run_scenario,
    scenario_from_json,
    scenario_to_json,
    shift_matrix,
)

__version__ = "0.1.0"
