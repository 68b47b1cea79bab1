import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodbench import numerics


def test_logsumexp_numeric_examples():
    assert math.isclose(float(numerics.logsumexp(np.zeros(10))), math.log(10.0),
                        rel_tol=1e-12)
    assert float(numerics.logsumexp(np.array([1000.0, 1000.0]))) == pytest.approx(
        1000.0 + math.log(2.0), rel=1e-15)


def test_logsumexp_shift_property():
    x = np.array([0.1, -3.0, 2.2])
    base = float(numerics.logsumexp(x))
    shifted = float(numerics.logsumexp(x + 7.5))
    assert shifted == pytest.approx(base + 7.5, rel=1e-12)


# numpy's own errors: an empty reduction has no maximum, and an axis out of
# range is an AxisError, a ValueError. numpy reduces a 0-d array along axis 0
# as an axis of length 1, so there axis 1 is the first one out of range.
def test_logsumexp_empty_axis_raises():
    with pytest.raises(ValueError, match="zero-size array"):
        numerics.logsumexp(np.zeros((0, 3)), axis=0)
    with pytest.raises(ValueError, match="zero-size array"):
        numerics.logsumexp(np.zeros((2, 0)), axis=-1)


def test_logsumexp_empty_input_raises():
    with pytest.raises(ValueError, match="zero-size array"):
        numerics.logsumexp(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="zero-size array"):
        numerics.log_softmax(np.zeros(0), axis=None)


@pytest.mark.parametrize("shape, axis", [((2, 3), 2), ((2, 3), -3), ((), 1), ((4,), 1)])
def test_axis_out_of_range_raises(shape, axis):
    x = np.zeros(shape)
    with pytest.raises(np.exceptions.AxisError, match=f"axis {axis} is out of bounds"):
        numerics.logsumexp(x, axis=axis)
    with pytest.raises(np.exceptions.AxisError, match=f"axis {axis} is out of bounds"):
        numerics.log_softmax(x, axis=axis)


def test_logsumexp_keepdims_and_axis():
    x = np.arange(6.0).reshape(2, 3)
    rows = numerics.logsumexp(x, axis=1)
    assert rows.shape == (2,)
    assert numerics.logsumexp(x, axis=1, keepdims=True).shape == (2, 1)
    assert numerics.logsumexp(x, axis=0).shape == (3,)
    assert numerics.logsumexp(x).shape == ()
    np.testing.assert_allclose(rows, np.log(np.exp(x).sum(axis=1)), rtol=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=20))
def test_logsumexp_bounds_property(values):
    x = np.asarray(values)
    lse = float(numerics.logsumexp(x))
    assert lse >= np.max(x) - 1e-12
    assert lse <= np.max(x) + math.log(len(values)) + 1e-12


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.floats(min_value=-50, max_value=50), min_size=3, max_size=3),
                min_size=1, max_size=8))
def test_softmax_rows_sum_to_one(rows):
    out = numerics.softmax(np.asarray(rows), axis=-1)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)


def test_softmax_along_the_first_axis():
    x = np.array([[0.0, 1.0], [0.0, 3.0]])
    out = numerics.softmax(x, axis=0)
    np.testing.assert_allclose(out[:, 0], [0.5, 0.5], rtol=1e-15)
    np.testing.assert_allclose(out.sum(axis=0), 1.0, rtol=1e-15)


def test_log_softmax_hand_example():
    out = numerics.log_softmax(np.array([[0.0, math.log(3.0)]]))
    np.testing.assert_allclose(out, [[math.log(0.25), math.log(0.75)]], rtol=1e-15)


def test_log_softmax_is_log_of_softmax():
    x = np.random.default_rng(3).normal(0.0, 5.0, (6, 5))
    np.testing.assert_allclose(numerics.log_softmax(x), np.log(numerics.softmax(x)),
                               rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(numerics.log_softmax(x, axis=0),
                               np.log(numerics.softmax(x, axis=0)), rtol=1e-13, atol=1e-13)


def test_log_softmax_stays_finite_at_large_logits():
    out = numerics.log_softmax(np.array([[1000.0, 0.0], [-1000.0, 1000.0]]))
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [[0.0, -1000.0], [-2000.0, 0.0]], rtol=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=20),
       st.floats(min_value=-1e3, max_value=1e3))
def test_log_softmax_normalizes_and_ignores_a_shift(values, shift):
    x = np.asarray(values)
    out = numerics.log_softmax(x)
    assert np.all(out <= 1e-12)
    assert float(numerics.logsumexp(out)) == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(numerics.log_softmax(x + shift), out, rtol=1e-9, atol=1e-9)


def test_derive_seed_is_a_deterministic_32_bit_value():
    a = numerics.derive_seed(3, 5)
    assert a == numerics.derive_seed(3, 5)
    assert a != numerics.derive_seed(5, 3)
    assert 0 <= a < 2**32


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**40 + 5, 10**30])
def test_rng_draws_the_stream_of_pcg64(seed):
    # rng(s) is the stream PCG64(s) seeds, and rng(s, p) that of PCG64([s, p]).
    def draws(*entropy):
        return numerics.rng(*entropy).integers(0, 2**63, size=8).tolist()

    assert draws(seed) == np.random.Generator(np.random.PCG64(seed)).integers(
        0, 2**63, size=8).tolist()
    assert draws(seed, 3) == np.random.Generator(np.random.PCG64([seed, 3])).integers(
        0, 2**63, size=8).tolist()
    assert draws(seed, 3) != draws(seed)
