"""Spectral computations for second-order problems whose coefficients
are self-similar (Cantor-type) measures.

Everything is built from immutable dataclasses and pure functions, so
concurrent read access is safe.  Eigenvalue counts come from one inertia
sweep of the tridiagonal pencil per spectral parameter, and the pencil
remembers each sweep in a bounded memo of its own.  Threads that share a
pencil share that memo: at worst two of them sweep the same parameter
and store the same answer, and no result depends on what the memo holds.
A SpectralContext resolves a pencil's reference shift and zero band for
many queries.
"""

from .assembly import (
    BoundaryCondition,
    PencilDiscretization,
    assemble,
    assemble_iterated_pair,
    assemble_selfsimilar_pair,
    boundary_data,
    default_shift_grid,
    positivity_scan,
    resolvent_sandwich,
)
from .errors import (
    DegenerateMomentsError,
    DomainError,
    EigenvalueNotFoundError,
    FractalSturmError,
    GeometricRegimeError,
    IndefinitePencilError,
    InputError,
    InvalidParametersError,
    ParameterMismatchError,
    ResolventPoleError,
    UnsupportedConfigurationError,
)
from .measures import CompositeMeasure, StepFunction
from .reduction import pushforward_params, transform_measure
from .selfsim import (
    MonotonePrimitive,
    SelfSimilarParams,
    cantor_ladder,
    evaluate,
    identity_params,
    jump_atoms,
    junction_gaps,
    moments,
    pair_moments,
    support_cells,
    validate_contraction,
)
from .spectral import (
    AsymptoticsReport,
    CountingResult,
    GeometricReport,
    SpectralContext,
    SplittingCheck,
    asymptotics_report,
    count,
    counting_function,
    eigenvalue,
    eigenvalues,
    geometric_asymptotics,
    inertia,
    ladder_counts,
    period_and_case,
    spectral_dimension,
    splitting_inequality,
    write_counting_csv,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
