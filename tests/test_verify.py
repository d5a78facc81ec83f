"""The invariant suite's seeded momentum sampling and its algebra check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonwalk import algebra
from bosonwalk.kernel import mirror_phase, phase
from bosonwalk.verify import _check_algebra, _safe_momenta


def one_at_a_time_safe_momenta(rng, count, margin):
    """Rejection sampling one momentum per draw with the scalar phases."""
    out = []
    while len(out) < count:
        k = rng.uniform(-math.pi, math.pi, 3)
        phases = (phase(k), mirror_phase(k))
        if min(min(p, math.pi - p) for p in phases) > margin:
            out.append(k)
    return np.array(out)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 40),
       margin=st.floats(0.0, 0.6))
def test_property_batched_safe_momenta_match_one_at_a_time(seed, count, margin):
    batched_rng = np.random.default_rng(seed)
    reference_rng = np.random.default_rng(seed)
    batched = _safe_momenta(batched_rng, count, margin)
    reference = one_at_a_time_safe_momenta(reference_rng, count, margin)
    assert batched.shape == (count, 3)
    np.testing.assert_array_equal(batched, reference)
    assert batched_rng.bit_generator.state == reference_rng.bit_generator.state


def test_projector_check_fails_on_a_sandwich_constant_off_its_value(monkeypatch):
    # each identity is tested against its own measured trace ratio, so only
    # the offset of the measured 1/4 from C_SIDE can see a wrong constant
    monkeypatch.setattr(algebra, "C_SIDE", 0.3)
    results = []
    _check_algebra(results)
    check = next(c for c in results if c.name == "algebra.projector_conditions")
    assert not check.passed
    assert check.residual == pytest.approx(0.05)
