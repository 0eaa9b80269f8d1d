"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "BlockRankError",
    "CapExceededError",
    "ConfigurationError",
    "ConvergenceError",
    "CoverageError",
    "DimensionError",
    "ParseError",
    "ReducibleModelError",
]


class BlockRankError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(BlockRankError):
    """Malformed or empty input text (edge lists, block files); ``line`` is
    the malformed line's number, ``byte`` the offset of the first byte that
    is not UTF-8, when either is the fault."""

    def __init__(self, message: str, line: int | None = None, byte: int | None = None):
        super().__init__(message)
        self.line = line
        self.byte = byte


class CoverageError(BlockRankError):
    """Blocks file and graph disagree: unknown node, or a node left uncovered."""


class ConfigurationError(BlockRankError):
    """Invalid parameter combination (policies, weights, stop rule)."""


class DimensionError(BlockRankError):
    """Operands with incompatible shapes or a non-square matrix."""


class CapExceededError(BlockRankError):
    """A dense/debug operation was refused because the input exceeds its size cap."""


class ConvergenceError(BlockRankError):
    """Power iteration failed to reach the requested tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class ReducibleModelError(BlockRankError):
    """Strict-mode refusal of no-teleportation ranking whose ranking vector
    may be ill-defined: a reducible block indicator matrix, whose blocking
    ``components`` it carries, or ``mu = 0``, which that matrix does not decide."""

    def __init__(self, message: str, components: tuple[tuple[int, ...], ...]):
        super().__init__(message)
        self.components = components
