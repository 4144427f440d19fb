"""bregopt: stochastic Bregman gradient methods for relatively smooth
finite-sum optimization.

The package provides mirror maps (reference functions), finite-sum
objectives, stochastic and deterministic Bregman solvers with variance
reduction (SAGA and SVRG estimators), problem generators for Poisson inverse
problems, tomography and simulated distributed logistic regression, plus a
certification harness that checks the structural identities the convergence
theory rests on.
"""

from .errors import (
    AnchorsUnavailable,
    BregoptError,
    DomainViolation,
    InnerSolveFailure,
    InsufficientData,
    InvalidConstants,
    InvalidData,
    LabelError,
    ParseError,
    StepFailure,
    StepOutOfDomain,
    TraceInvariantError,
)
from .metrics import (
    CertReport,
    CheckResult,
    Trace,
    TraceRecord,
    certify_lemmas,
    plateau_level,
    rate_fit,
    sigma2_estimate,
)
from .mirror import (
    Euclidean,
    LogBarrier,
    NegEntropy,
    Preconditioner,
    ReferenceFunction,
    make_reference,
)
from .objective import (
    DiagonalQuadratic,
    FiniteSumObjective,
    LogisticL2,
    PoissonKL,
)
from .problems import (
    CommModel,
    ProblemInstance,
    gen_gaussian_logistic_data,
    gen_interpolation,
    gen_preconditioned,
    gen_tomography,
    load_instance,
    load_libsvm,
    poisson_sample,
    radon_matrix,
    save_instance,
    shepp_logan,
    solve_reference,
)
from .rng import make_rng
from .solver import (
    RunFailure,
    SagaState,
    SolverConfig,
    SvrgState,
    bsaga_step,
    bsvrg_step,
    gain_bound,
    run,
    saga_gradient,
    step_policy,
    svrg_gradient,
)

__version__ = "0.1.0"
