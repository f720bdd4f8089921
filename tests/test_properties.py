"""Properties checked over generated inputs rather than hand-picked cases."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from splitburg import BoundaryKind, CflViolation, FluxFunction  # noqa: E402
from splitburg.burgers import _eo_step  # noqa: E402

# values that include exact zeros, both signs and a wide range of magnitudes
CELL_VALUES = st.one_of(
    st.just(0.0), st.just(-0.0),
    st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
)


def _one_row(row, dt, flux, bc, dx):
    try:
        return _eo_step(row, dt, flux, bc, dx)
    except CflViolation:
        return None


@settings(max_examples=200, deadline=None)
@given(
    stack=st.tuples(st.integers(1, 5), st.integers(2, 12)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=CELL_VALUES)),
    dt=st.floats(1e-4, 0.5),
    flux=st.sampled_from(["burgers_half", "burgers_square", "zero"]),
    bc=st.sampled_from(list(BoundaryKind)),
)
def test_eo_step_on_a_stack_equals_one_call_per_row(stack, dt, flux, bc):
    flux, dx = FluxFunction(flux), 1.0 / stack.shape[1]
    rows = [_one_row(row, dt, flux, bc, dx) for row in stack]
    if any(r is None for r in rows):
        with pytest.raises(CflViolation):
            _eo_step(stack, dt, flux, bc, dx)
    else:
        batched = _eo_step(stack, dt, flux, bc, dx)
        assert batched.tobytes() == np.array(rows).tobytes()
