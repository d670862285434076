"""The benchmark's tracer rebinds package functions by name; a rename in the
package must fail here, not later in a traced benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from moelearn import (Dataset, InputDistribution, gating_em, joint_em, moments, sample_dataset,
                      solve_cqt)

from conftest import make_model

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(tracing):
    for owner, attr, label in tracing.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} ({label})"
    labels = {label for _, _, label in tracing.TARGETS}
    assert set(tracing._HOOKS) <= labels


def test_traced_em_reproduces_untraced_and_counts_accepted_steps(tracing):
    """The accept-ratio hook relies on m_step passing each line-search
    candidate, as the same object, to q_value and then to q_gradient."""
    model = make_model(5, k=3, d=4, sigma=0.3)
    data = sample_dataset(model, InputDistribution.standard_gaussian(4), 600, seed=2)
    plain = gating_em.run_em(data.x, data.y, model.a, 0.3, model.activation,
                             radius=2.0, seed=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = gating_em.run_em(data.x, data.y, model.a, 0.3, model.activation,
                                  radius=2.0, seed=1)
    finally:
        tracer.uninstall()
    assert np.array_equal(plain.w, traced.w)
    layer = tracer.per_layer()
    assert layer["gating_em.outer_iters"] == len(plain.trace)
    assert layer["gating_em.m_step.calls"] == len(plain.trace)
    assert 0.0 < layer["gating_em.m_step.accept_ratio"] <= 1.0


def test_traced_accumulate_counts_rejected_rows(tracing):
    """The accumulate hook reads the rejected tally of the chunks each call
    appended to ``acc.chunks``; over two calls and three chunks it must match
    the accumulator's own count."""
    model = make_model(4, k=2, d=5, sigma=0.1, activation="relu")
    dist = InputDistribution.standard_gaussian(5)
    data = sample_dataset(model, dist, 2 * moments.CHUNK + 500, seed=9)
    acc = moments.MomentAccumulator(5, solve_cqt(model.activation, 0.1), dist)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for a, b in ((0, moments.CHUNK), (moments.CHUNK, data.n)):
            moments.accumulate(acc, Dataset(data.x[a:b], data.y[a:b]))
    finally:
        tracer.uninstall()
    assert len(acc.chunks) == 3
    assert acc.chunks[0].rejected > 0    # ReLU labels reach the cap on their own
    assert tracer.counters["moments.rejected"] == acc.n_rejected
    assert tracer.counters["moments.rows"] == data.n


def test_traced_joint_em_reproduces_untraced_and_counts_expert_time(tracing):
    """Joint EM runs the shared EM loop; its spans count as joint EM, not as
    gating EM, and the expert step is what is left after the E- and M-steps."""
    model = make_model(6, k=3, d=4, sigma=0.3)
    data = sample_dataset(model, InputDistribution.standard_gaussian(4), 600, seed=3)
    plain = joint_em.run_joint_em(data.x, data.y, 3, 0.3, model.activation, seed=1,
                                  max_iters=15)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = joint_em.run_joint_em(data.x, data.y, 3, 0.3, model.activation, seed=1,
                                       max_iters=15)
    finally:
        tracer.uninstall()
    assert np.array_equal(plain.a, traced.a)
    assert np.array_equal(plain.w, traced.w)
    layer = tracer.per_layer()
    assert layer["joint_em.outer_iters"] == len(plain.trace)
    assert layer["gating_em.outer_iters"] == 0
    assert layer["gating_em.m_step.calls"] == len(plain.trace)
    assert layer["joint_em.expert_step.self_s"] > 0.0
