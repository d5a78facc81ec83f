"""The invariant suite's seeded momentum sampling."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonwalk.kernel import mirror_phase, phase
from bosonwalk.verify import _safe_momenta


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

