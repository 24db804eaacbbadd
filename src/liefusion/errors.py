"""Named failures raised by the verification code.

``InvariantError`` is a ``VerificationError``, so the CLI maps both to exit
code 1. Invariant checks raise it instead of using ``assert``, which
``python -O`` strips.
"""
from __future__ import annotations


class VerificationError(Exception):
    """A structural verification failed; carries the detailed report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report or {}


class InvariantError(VerificationError):
    """An identity the mathematics guarantees did not hold."""
