"""Named failures raised by the verification code.

``InvariantError`` is a ``VerificationError``, so the CLI maps both to exit
code 1. Invariant checks raise it instead of using ``assert``, which
``python -O`` strips. Both carry only their message: where the verification
suite catches one, the message is the FAIL's detail.
"""
from __future__ import annotations


class VerificationError(Exception):
    """A structural verification failed; the message says what."""


class InvariantError(VerificationError):
    """An identity the mathematics guarantees did not hold."""
