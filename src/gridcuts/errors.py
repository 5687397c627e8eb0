"""The base of every error gridcuts raises for a result it will not give."""

__all__ = ["GridcutsError"]


class GridcutsError(Exception):
    """A refused or failed computation; the CLI reports it as one line, exit 2.

    Each subclass also derives from RuntimeError, ValueError or
    ArithmeticError, so callers that catch those builtins catch it too.
    """
