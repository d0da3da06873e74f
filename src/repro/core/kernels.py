"""The name of the candidate-scan implementation, for stats and benchmark rows.

Every :class:`~repro.core.selection.engine.EntropyEngine` scores candidates
with one implementation: the batched NumPy scan of
:meth:`~repro.core.selection.engine.EntropyEngine.scan`.  This module only
reports its name.
"""

from __future__ import annotations


def default_tier() -> str:
    """The candidate-scan implementation every engine runs (``"numpy"``)."""
    return "numpy"
