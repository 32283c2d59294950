"""Exception taxonomy shared across the toolkit.

Callers can rely on the split when mapping failures to CLI exit codes:
contract/structure problems are validation errors, data/format/degeneracy
problems are data errors.  The input rules that several layers share,
counts, positive values and nonnegative values, are written once here; the
point-array rule lives beside ``PointCloud`` as ``cloud._points_of``.
"""

import math
from numbers import Integral


class DroError(Exception):
    """Base class for every error raised by this package."""


class UrdfError(DroError):
    """Malformed URDF XML; the message names the offending line when known."""


class StructureError(DroError):
    """Kinematic structure is unusable: loops, multiple roots, missing limits."""


class ContractError(DroError):
    """A caller violated an operation precondition (shapes, ranges, order)."""


class DataError(DroError):
    """Input data is well-formed but unusable (empty mesh, non-finite values)."""


class DegeneracyError(DroError):
    """Geometry is too degenerate for a well-posed solve."""


class FormatError(DroError):
    """A binary file is malformed; the message carries the byte offset."""


class StageError(DroError):
    """Wraps a pipeline-stage failure with the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause


def _require_integer(name: str, value, least: int | None = None) -> None:
    """ContractError naming ``name`` unless ``value`` is a Python or NumPy
    integer (a bool is not) and, when ``least`` is given, at least that."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ContractError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ContractError(f"{name} must be at least {least}, got {value}")


def _require_positive(name: str, value) -> None:
    """ContractError naming ``name`` unless ``value`` is positive and finite."""
    if not 0.0 < value < math.inf:  # NaN fails too
        raise ContractError(f"{name} must be positive and finite, got {value}")


def _require_nonnegative(name: str, value) -> None:
    """ContractError naming ``name`` unless ``value`` is nonnegative and finite."""
    if not 0.0 <= value < math.inf:  # NaN fails too
        raise ContractError(f"{name} must be nonnegative and finite, got {value}")
