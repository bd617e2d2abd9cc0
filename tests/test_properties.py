"""Property-based tests for the algebraic invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from congames.experts import (
    SleepingExpertState,
    ada_predict,
    ada_update,
)
from congames.kernels import Matern, SquaredExponential, evaluate
from congames.strategy import renormalize

finite_floats = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


@given(
    st.floats(0.2, 4.0),
    arrays(float, 3, elements=finite_floats),
    arrays(float, 3, elements=finite_floats),
)
def test_se_symmetric_bounded(lengthscale, x, y):
    spec = SquaredExponential(lengthscale=lengthscale)
    v = evaluate(spec, x, y)
    assert v == evaluate(spec, y, x)
    # strictly positive in exact arithmetic; may underflow to 0 in floats
    assert 0.0 <= v <= 1.0 + 1e-12


@given(
    st.sampled_from([0.5, 1.5, 2.5]),
    arrays(float, 2, elements=finite_floats),
    arrays(float, 2, elements=finite_floats),
)
def test_matern_symmetric_bounded(nu, x, y):
    spec = Matern(lengthscale=1.0, nu=nu)
    v = evaluate(spec, x, y)
    assert abs(v - evaluate(spec, y, x)) <= 1e-15
    assert 0.0 <= v <= 1.0 + 1e-12


@given(
    arrays(float, 4, elements=st.floats(-20.0, 20.0)),
    arrays(float, 4, elements=st.floats(0.0, 40.0)),
)
def test_ada_predict_is_distribution(regrets, magnitudes):
    state = SleepingExpertState(regrets=regrets, magnitudes=magnitudes)
    p = ada_predict(state)
    assert np.all(p >= 0.0)
    assert abs(p.sum() - 1.0) <= 1e-12


@given(
    arrays(bool, 5),
    arrays(float, 5, elements=st.floats(0.0, 1.0)),
    st.integers(0, 4),
)
@settings(max_examples=200)
def test_ada_update_triangle_invariant(awake, rewards, forced_awake):
    awake = awake.copy()
    awake[forced_awake] = True
    state = SleepingExpertState.fresh(5)
    p = renormalize(ada_predict(state), awake)
    state = ada_update(state, awake, rewards, p)
    assert np.all(np.abs(state.regrets) <= state.magnitudes + 1e-12)


@given(
    arrays(float, 6, elements=st.floats(0.0, 1.0)),
    arrays(bool, 6),
    st.integers(0, 5),
)
def test_renormalize_is_masked_distribution(p, mask, forced):
    mask = mask.copy()
    mask[forced] = True
    out = renormalize(p, mask)
    assert abs(out.sum() - 1.0) <= 1e-12
    assert np.all(out[~mask] == 0.0)
