"""Hypothesis property tests for the floating-point core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emu import kernel
from repro.fp.formats import FPFormat
from repro.fp.quantize import quantize
from repro.fp.rounding import round_float, rounding_candidates

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e30, max_value=1e30
)

format_strategy = st.builds(
    FPFormat,
    st.integers(min_value=3, max_value=8),
    st.integers(min_value=1, max_value=23),
    st.booleans(),
)


@given(finite_floats, format_strategy)
@settings(max_examples=300, deadline=None)
def test_rn_result_is_nearest_representable(value, fmt):
    """RN output is one of the two candidates and no farther than half ulp."""
    result = round_float(value, fmt, "nearest")
    if result in (float("inf"), float("-inf")) or result == 0.0:
        return
    down, up, _ = rounding_candidates(value, fmt)
    from fractions import Fraction

    result_fraction = Fraction(result)
    assert result_fraction in (down, up) or abs(value) < fmt.min_normal
    assert abs(result_fraction - Fraction(value)) <= \
        fmt.exact_ulp(Fraction(value)) / 2


@given(finite_floats, format_strategy,
       st.integers(min_value=3, max_value=20),
       st.integers(min_value=0))
@settings(max_examples=300, deadline=None)
def test_sr_result_is_a_candidate(value, fmt, rbits, seed):
    """SR returns one of the two neighbors (or 0/inf at the edges)."""
    random_int = seed % (1 << rbits)
    result = round_float(value, fmt, "stochastic", random_int=random_int,
                         rbits=rbits)
    if result in (float("inf"), float("-inf")) or result == 0.0:
        return
    down, up, _ = rounding_candidates(value, fmt)
    from fractions import Fraction

    assert Fraction(result) in (down, up)


def _compiled(values, fmt, mode, **kwargs):
    """``quantize`` on the compiled rounding, ``MacKernel.round``."""
    mac = kernel.round_kernel(fmt, kwargs.get("rbits"))
    if mac is None:
        pytest.skip("the compiled rounding did not load")
    return quantize(values, fmt, mode, kernel=mac, **kwargs)


@given(st.lists(finite_floats, min_size=1, max_size=64), format_strategy)
@settings(max_examples=200, deadline=None)
def test_compiled_rounding_matches_reference_nearest(values, fmt):
    arr = np.array(values)
    ref = quantize(arr, fmt, "nearest")
    compiled = _compiled(arr, fmt, "nearest")
    assert np.array_equal(ref.view(np.int64), compiled.view(np.int64))


@given(st.lists(finite_floats, min_size=1, max_size=64),
       st.integers(min_value=3, max_value=13),
       st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=200, deadline=None)
def test_compiled_rounding_matches_reference_sr(values, rbits, seed):
    fmt = FPFormat(6, 5, subnormals=bool(seed % 2))
    arr = np.array(values)
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, 1 << rbits, size=arr.shape)
    ref = quantize(arr, fmt, "stochastic", rbits=rbits, random_ints=draws)
    compiled = _compiled(arr, fmt, "stochastic", rbits=rbits,
                         random_ints=draws)
    assert np.array_equal(ref.view(np.int64), compiled.view(np.int64))


@given(finite_floats, format_strategy)
@settings(max_examples=200, deadline=None)
def test_monotonicity_of_rn(value, fmt):
    """RN is monotone: quantizing a larger value never gives a smaller one."""
    bigger = np.nextafter(value, np.inf)
    q1 = round_float(value, fmt, "nearest")
    q2 = round_float(bigger, fmt, "nearest")
    assert q2 >= q1


@given(st.lists(finite_floats, min_size=1, max_size=32), format_strategy)
@settings(max_examples=150, deadline=None)
def test_quantization_error_bounded_by_ulp(values, fmt):
    arr = np.array(values)
    out = quantize(arr, fmt, "toward_zero")
    for v, q in zip(arr, out):
        if not np.isfinite(q):
            continue
        if abs(v) < fmt.min_normal and not fmt.subnormals:
            assert q == 0.0
            continue
        assert abs(v - q) < fmt.ulp(v) + 1e-300
        assert abs(q) <= abs(v)  # truncation never grows magnitude
