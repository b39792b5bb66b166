"""Exceptions shared across the package."""

__all__ = ["ParameterError", "ResourceLimitError"]


class ParameterError(ValueError):
    """A parameter is outside its documented domain (bad p, n, regime, ...)."""


class ResourceLimitError(RuntimeError):
    """An exhaustive computation was requested beyond its size cutoff."""
