"""The numpy-twin medians and percentiles the analyses report.

:mod:`repro.core.analysis.quantiles` stands in for ``np.median`` and
``np.percentile`` so that no analysis imports ``numpy.ma``; every
pinned report depends on it returning numpy's numbers bit for bit.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analysis.quantiles import median, percentile

#: Ints, finite floats (with ±0.0, subnormals and huge magnitudes), and
#: floats with infinities and NaNs, each 1 to 59 values long.
samples = st.one_of(
    st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=59),
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False),
        min_size=1, max_size=59,
    ),
    st.lists(st.floats(), min_size=1, max_size=59),
).map(np.array)
levels = st.one_of(
    st.sampled_from([0, 5, 25, 50, 90, 95, 100]),
    st.floats(min_value=0.0, max_value=100.0),
)


def _same(ours: float, theirs) -> bool:
    """Equal to the bit, or both NaN."""
    theirs = np.float64(theirs)
    if np.isnan(theirs):
        return bool(np.isnan(ours))
    return np.float64(ours).tobytes() == theirs.tobytes()


@settings(max_examples=400, deadline=None)
@given(samples)
def test_median_is_numpys(values):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf
        expected = np.median(values)
        ours = median(values)
    assert _same(ours, expected)


@settings(max_examples=400, deadline=None)
@given(samples, levels)
def test_percentile_is_numpys(values, q):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        expected = np.percentile(values, q)
        ours = percentile(values, q)
    assert _same(ours, expected)


def test_results_are_floats():
    assert type(median(np.array([3, 1, 2]))) is float
    assert type(percentile(np.array([3, 1, 2]), 90)) is float
    assert median([1, 2]) == 1.5
    assert percentile([1, 2, 3, 4, 5], 25) == 2.0


@pytest.mark.parametrize("call", [
    lambda: median([]),
    lambda: percentile([], 50),
    lambda: percentile([1.0, 2.0], 101),
    lambda: percentile([1.0, 2.0], -1),
    lambda: median(np.ones((2, 2))),
])
def test_empty_samples_and_out_of_range_levels_are_refused(call):
    with pytest.raises(ValueError):
        call()
