"""Float summation with a fixed, interpreter-independent order."""

from __future__ import annotations

import sys
from typing import Iterable

if sys.version_info >= (3, 12):

    def ordered_sum(values: Iterable[float]) -> float:
        """Left-to-right float sum: ``((v0 + v1) + v2) + ...``.

        From Python 3.12 builtin :func:`sum` compensates float rounding,
        so it no longer equals the sequential accumulation that the
        scalar HPWL loops and numpy's ``cumsum`` perform; every total
        that must match those twins bit for bit goes through here.
        """
        total = 0  # builtin sum's start: an empty input gives int 0
        for value in values:
            total += value
        return total

else:  # builtin sum is already sequential (and C-fast) before 3.12
    ordered_sum = sum
