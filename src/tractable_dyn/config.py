"""Resource caps for table and cell enumerations."""

from __future__ import annotations

import os

from .errors import ValidationError

DEFAULT_CELL_CAP = 1 << 24
CAP_ENV_VAR = "TRACTABLE_DYN_CELL_CAP"


def resolve_cell_cap() -> int:
    """The TRACTABLE_DYN_CELL_CAP env var, else 2^24."""
    env = os.environ.get(CAP_ENV_VAR)
    if env is not None:
        try:
            value = int(env)
            if value < 1:
                raise ValueError
        except ValueError:
            raise ValidationError(
                f"{CAP_ENV_VAR} must be a positive integer, got {env!r}") from None
        return value
    return DEFAULT_CELL_CAP
