"""qfit: least-squares fitting on a dense state-vector simulator.

The package prepares the optimal-fit-parameter state of a linear
least-squares problem through phase-estimation passes over the Hermitian
embedding of the design matrix, estimates fit quality with a sampled
swap test, and learns sparse parameter vectors by support sampling plus
interferometric tomography.  Every simulated result is validated against
the classical Moore-Penrose solution.
"""

from .algorithms import (
    FitReport,
    LearnReport,
    PipelineSpec,
    PreparationResult,
    RunSettings,
    VARIANT_FUSED,
    VARIANT_THREE_STAGE,
    auto_t0,
    estimate_fit_quality,
    learn_sparse_fit,
    make_pipeline_spec,
    prepare_fit_parameters,
    select_support,
    support_shot_count,
)
from .cost import CostQuery, CostReport, cost_model, query_count
from .exceptions import (
    ConfigError,
    DimensionError,
    GenerationError,
    InvariantError,
    PostselectionError,
    QfitError,
    SchemaError,
    SingularMatrixError,
    TomographyError,
)
from .linalg import (
    ConditionEstimate,
    EigDecomposition,
    EmbeddedOperator,
    SparsityProfile,
    apply_matrix_function,
    condition_estimate,
    eig_hermitian,
    embed,
    pseudoinverse,
    sparsity_profile,
)
from .problems import (
    DataSet,
    FitBasis,
    FitProblem,
    FitSolution,
    ProblemSpec,
    build_design_matrix,
    classical_fit,
    denormalized_solution,
    generate_problem,
    load_problem,
    normalize_problem,
    problem_from_points,
    restrict_columns,
    save_problem,
)
from .sim import (
    MODE_INVERT,
    MODE_MULTIPLY,
    WINDOW_SINE,
    WINDOW_UNIFORM,
    PhaseEstimationConfig,
    PhaseEstimationPass,
    QuantumState,
    RegisterLayout,
    SwapTestPlan,
    SwapTestResult,
    apply_hermitian_via_pe,
    decode_eigenvalue,
    measure_computational,
    prepare_data_state,
    swap_test,
)
from .tomography import (
    ReconstructedState,
    TomographyBudget,
    canonicalize_phase,
    plan_budget,
    reconstruct_pure_state,
)

__version__ = "0.1.0"
