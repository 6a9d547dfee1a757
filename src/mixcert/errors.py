"""Error types shared across the package.

Every failure mode that callers are expected to branch on gets a named
class; plain ValueError is reserved for garden-variety argument misuse.
"""
from __future__ import annotations


class NonUniqueStationary(Exception):
    """The chain has no power with all-positive entries, so the stationary
    law is not certified unique by the primitivity test."""


class DimensionMismatch(ValueError):
    """Vector or matrix shapes are incompatible."""


class TooLarge(ValueError):
    """An exact enumeration would exceed the configured budget."""


class BadLabel(ValueError):
    """A class label is outside {1..K} or K < 2."""


class NonpositiveGamma(ValueError):
    """Margin scale gamma must be strictly positive."""


class EmptyDataset(ValueError):
    """An operation needs at least one sample."""


class WrongKind(ValueError):
    """A dataset of a different kind was supplied (sequence vs target_iid)."""


class DivergedLoss(RuntimeError):
    """The training loss became non-finite."""


class BadDelta(ValueError):
    """Confidence level delta is outside (0, 1)."""


class NotDiscrete(ValueError):
    """The operation needs discrete emissions with finite support."""


class NoConvergenceWarning(RuntimeWarning):
    """Power iteration hit its iteration cap; the best estimate is returned."""
