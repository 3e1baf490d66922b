"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: input/schema problems exit
with 2, structurally unsupported configurations with 3, and failures of
the spectral machinery itself with 4.
"""


class FractalSturmError(Exception):
    """Base class for all package errors."""


class InputError(FractalSturmError):
    """Malformed problem description (JSON schema, flag syntax)."""

    exit_code = 2


class InvalidParametersError(FractalSturmError, ValueError):
    """Parameter tuple violates a structural requirement."""

    exit_code = 2


class ParameterMismatchError(FractalSturmError):
    """Two parameter sets that must share cell geometry do not."""

    exit_code = 3


class DomainError(FractalSturmError, ValueError):
    """Evaluation point outside [0, 1]."""

    exit_code = 2


class DegenerateMomentsError(FractalSturmError):
    """Moment recursion hit a (near) singular normalization."""

    exit_code = 3


class UnsupportedConfigurationError(FractalSturmError):
    """Structurally sound input outside the supported class.

    Examples: coupled (non separated) boundary conditions, mass sitting
    on a plateau of the substitution primitive, nonzero potential in the
    direct two-function assembly, the arrays of a pair-route pencil whose
    walk would exceed the node cap (assembly._MAX_NODES rows).
    """

    exit_code = 3


class ResolventPoleError(FractalSturmError):
    """Linear solve at a spectral parameter hit a (near) pole."""

    exit_code = 4


class IndefinitePencilError(FractalSturmError):
    """No admissible reference shift: pencil not definitizable here."""

    exit_code = 4


class GeometricRegimeError(FractalSturmError):
    """Power-law exponent undefined: only one nonzero scaling product.

    Callers should switch to the geometric-progression asymptotics
    instead of the power-law report.
    """

    exit_code = 3


class EigenvalueNotFoundError(FractalSturmError):
    """Bisection bracket exhausted before the requested eigenvalue."""

    exit_code = 4
