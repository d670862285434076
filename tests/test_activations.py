import numpy as np
import pytest

from moelearn import Activation
from moelearn.errors import ConfigError


def test_sigmoid_values_at_zero():
    act = Activation.sigmoid()
    assert float(act(0.0, 0)) == pytest.approx(0.5)
    # g' = g(1-g) evaluated at 0.5
    assert float(act(0.0, 1)) == pytest.approx(0.25)


def test_linear_third_derivative_vanishes():
    act = Activation.linear()
    for t in (-3.0, 0.0, 1.7):
        assert float(act(t, 3)) == 0.0
        assert float(act(t, 1)) == 1.0


def test_relu_conventions():
    act = Activation.relu()
    assert float(act(-1.0, 0)) == 0.0
    assert float(act(2.5, 0)) == 2.5
    assert float(act(0.0, 1)) == 0.0       # subgradient pinned to 0
    assert float(act(1e-12, 1)) == 1.0
    t = np.linspace(-2, 2, 9)
    assert np.all(act(t, 2) == 0.0)
    assert np.all(act(t, 3) == 0.0)


def test_sigmoid_derivatives_match_finite_differences():
    act = Activation.sigmoid()
    h = 1e-5
    for t in (-2.0, -0.3, 0.0, 1.1, 3.0):
        for order in (1, 2, 3):
            fd = (act(t + h, order - 1) - act(t - h, order - 1)) / (2 * h)
            assert act(t, order) == pytest.approx(fd, abs=1e-6)


def test_sigmoid_stable_for_large_arguments():
    act = Activation.sigmoid()
    assert act(800.0, 0) == pytest.approx(1.0)
    assert act(-800.0, 0) == pytest.approx(0.0)
    assert np.isfinite(act(np.array([-800.0, 800.0]), 3)).all()


def test_custom_activation_roundtrip_and_validation():
    tanh = Activation.custom("tanh", (
        np.tanh,
        lambda t: 1 - np.tanh(t) ** 2,
        lambda t: -2 * np.tanh(t) * (1 - np.tanh(t) ** 2),
        lambda t: (1 - np.tanh(t) ** 2) * (6 * np.tanh(t) ** 2 - 2),
    ))
    h = 1e-5
    fd = (tanh(0.4 + h, 2) - tanh(0.4 - h, 2)) / (2 * h)
    assert tanh(0.4, 3) == pytest.approx(fd, abs=1e-6)
    with pytest.raises(ConfigError):
        Activation.custom("broken", (np.tanh,))
    with pytest.raises(ConfigError):
        Activation.by_name("swish")
    with pytest.raises(ConfigError):
        tanh(0.0, 4)


def _two_half_sigmoid(t):
    """The sigmoid as two masked halves: 1/(1+exp(-t)) for t >= 0 and
    exp(t)/(1+exp(t)) below, each evaluated on its own half only."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_one_exp_matches_two_half_form():
    act = Activation.sigmoid()
    rng = np.random.default_rng(5)
    t = np.concatenate([scale * rng.standard_normal(2000)
                        for scale in (0.5, 3.0, 40.0, 800.0)]
                       + [[0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, np.nan]])
    assert np.array_equal(act(t), _two_half_sigmoid(t), equal_nan=True)
    for s in (-0.0, 0.7, -745.5, np.inf):
        got = act(s)
        assert np.ndim(got) == 0 and got == _two_half_sigmoid(s)[0]
