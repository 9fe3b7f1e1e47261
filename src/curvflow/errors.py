"""Exception taxonomy shared across the package.

Every error raised on purpose derives from CurvFlowError so callers can
catch the whole family at an API boundary (the CLI maps them to exit
codes).  Parse errors carry the byte offset of the offending token.
"""

from __future__ import annotations


class CurvFlowError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CurvFlowError, ValueError):
    """Run or estimator parameter outside its valid range."""


class InvalidGridSpec(CurvFlowError):
    """Periodic grid request with bad counts/lengths."""


class MeshFormatError(CurvFlowError):
    """Surface mesh file violates the expected format or is not closed."""


class NonTriangleFace(CurvFlowError):
    """Mesh face with a vertex count other than three."""


class DegenerateTriangle(CurvFlowError):
    """Mesh simplex (an OFF file's triangle) with (near-)zero volume."""


class SizeMismatch(CurvFlowError):
    """Node field length does not match the manifold's node count."""


class ParseError(CurvFlowError):
    """Scalar-field expression could not be parsed.

    offset is the byte position in the source text where parsing failed.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"at byte {offset}: {message}")
        self.message = message
        self.offset = offset


class DimensionMismatch(CurvFlowError):
    """Expression references a coordinate the manifold does not have."""


class EvalDomainError(CurvFlowError):
    """Expression evaluation hit a domain error (division by zero, 0^negative, ...)."""


class NonPositiveField(CurvFlowError):
    """Operation requires a strictly positive node field."""


class ZeroDenominator(CurvFlowError):
    """Quotient with a vanishing denominator."""


class StepRejectedPositivity(CurvFlowError):
    """A proposed time step would drive the conformal factor nonpositive."""


class IllConditionedInitialData(CurvFlowError):
    """Initial data too close to zero somewhere after normalization."""


class NewtonNoConvergence(CurvFlowError):
    """Newton iteration failed to reach the requested tolerance."""


class PositivityLost(CurvFlowError):
    """Newton iterate left the positive cone and damping could not recover."""


class EigenNoConvergence(CurvFlowError):
    """Inverse iteration failed to reach the requested residual."""


class InnerSolverFailure(CurvFlowError):
    """Inner linear solver (preconditioned CG) did not converge."""


class InvalidDimension(CurvFlowError):
    """Operation defined only for a restricted range of dimensions."""
