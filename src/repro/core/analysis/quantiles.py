"""Medians and percentiles as numpy computes them, without ``numpy.ma``.

``np.median`` and ``np.percentile`` check their result for NaN through
``numpy.ma``, which a process then imports (~1 MiB) for no analysis's
sake. :func:`median` and :func:`percentile` return numpy's numbers bit
for bit on 1-D input: each partitions the same copy at the same
positions with ``np.partition`` and then does numpy's own arithmetic on
the order statistics (the mean of the middle one or two for the median;
the default ``"linear"`` interpolation for a percentile). A NaN in the
input gives the NaN, as numpy's does.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["median", "percentile"]


def median(values) -> float:
    """``float(np.median(values))`` of non-empty 1-D ``values``.

    Raises:
        ValueError: when ``values`` is empty.
    """
    data = _nonempty(values)
    half = data.size // 2
    kth = [half - 1, half] if data.size % 2 == 0 else [half]
    inexact = np.issubdtype(data.dtype, np.inexact)
    if inexact:
        kth.append(-1)
    part = np.partition(data, kth)
    if inexact and np.isnan(part[-1]):
        return float(part[-1])
    return float(part[kth[0]:half + 1].mean())  # the middle one or two


def percentile(values, q: float) -> float:
    """``float(np.percentile(values, q))`` of non-empty 1-D ``values``,
    for a number ``q`` in [0, 100].

    Raises:
        ValueError: when ``values`` is empty or ``q`` is out of range.
    """
    fraction = q / 100
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"percentile {q!r} is not in [0, 100]")
    data = _nonempty(values)
    index = (data.size - 1) * fraction
    below = math.floor(index)
    above = below + 1
    if index >= data.size - 1:
        below = above = -1
    part = np.partition(data, sorted({0, -1, below, above}))
    if np.issubdtype(data.dtype, np.inexact) and np.isnan(part[-1]):
        return float(part[-1])
    gamma = index - below
    lower, upper = part[below], part[above]
    step = upper - lower
    if gamma >= 0.5:
        return float(upper - step * (1 - gamma))
    return float(lower + step * gamma)


def _nonempty(values) -> np.ndarray:
    data = np.asarray(values)
    if data.ndim != 1 or data.size == 0:
        raise ValueError(
            f"need a non-empty 1-D sample, got shape {data.shape}"
        )
    return data
