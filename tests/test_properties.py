"""Properties checked over generated inputs rather than hand-picked cases."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, given, settings  # noqa: E402
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


# --- the streamed integrator equals stepping by hand -----------------------

from splitburg import (  # noqa: E402
    InitialCondition,
    NoiseAmplitude,
    SchemeConfig,
    SpatialGrid,
    generate_path,
    integrate,
    make_initial_state,
)
from splitburg.schemes import SCHEMES, _PathIncrements  # noqa: E402

_FINE = 0.01
_GRID = SpatialGrid(0.0, 1.0, 12)


def _step_by_hand(c0, cfg, path, m, n_steps):
    """Fixed steps of m fine steps through `SCHEMES[...].advance`, with the
    increments summed from the path as each step asks: (final state, steps
    taken, (blow-up time, reason), residual rows)."""
    traits = SCHEMES[cfg.scheme]
    draw = _PathIncrements(path)
    companion = c0 if cfg.iterations > 1 and cfg.inner_mode in traits.companion else None
    state, rows = c0, []
    for step in range(n_steps):
        try:
            rec, companion = traits.advance(state, m * path.dt_fine, draw, step * m, m,
                                            cfg, companion)
        except CflViolation:
            return state, step, (state.time, "cfl_rejected"), rows
        state = rec.state_after
        rows += [(step, state.time, sweep, residual)
                 for sweep, residual in enumerate(rec.iterate_residuals, start=2)]
        peak = float(np.max(np.abs(state.values)))
        if not np.isfinite(peak):
            return state, step + 1, (state.time, "non_finite"), rows
        if peak > cfg.blowup_threshold:
            return state, step + 1, (state.time, "threshold"), rows
    return state, n_steps, (None, None), rows


@st.composite
def _scheme_cfgs(draw):
    scheme = draw(st.sampled_from(sorted(SCHEMES)))
    return SchemeConfig(
        scheme,
        sigma=NoiseAmplitude("linear", draw(st.floats(0.0, 2.0))),
        iterations=draw(st.sampled_from(SCHEMES[scheme].iterations or range(1, 2))),
        stochastic_substep=draw(st.sampled_from(["em", "milstein"])),
        inner_mode=draw(st.sampled_from(["whole_step", "half_steps"])),
        # small thresholds trip "threshold"; iter_before I=2 half_steps does
        # on its own
        blowup_threshold=draw(st.one_of(st.floats(0.3, 5.0), st.just(1e6))),
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(
    cfg=_scheme_cfgs(),
    seed=st.integers(0, 2**63),
    amplitude=st.floats(-4.0, 4.0),
    # up to 8 fine steps of 0.01 on a 12-cell mesh trips "cfl_rejected"
    m=st.sampled_from([1, 2, 4, 6, 8]),
    n_steps=st.integers(1, 6),
)
def test_integrate_equals_stepping_by_hand(cfg, seed, amplitude, m, n_steps):
    m *= cfg.quantum
    c0 = make_initial_state(_GRID, InitialCondition.sine_bump())
    c0 = c0.with_values(amplitude * c0.values)
    t_end = n_steps * m * _FINE
    path = generate_path(seed, t_end, _FINE)
    traj = integrate(c0, t_end, cfg, path, dt=m * _FINE)
    event(f"ends: {traj.blowup_reason or 'at t_end'}")
    state, steps, (blowup_time, reason), rows = _step_by_hand(c0, cfg, path, m, n_steps)
    assert traj.final_state.values.tobytes() == state.values.tobytes()
    assert traj.final_state.time == state.time
    assert traj.n_steps == steps
    assert (traj.blowup_time, traj.blowup_reason) == (blowup_time, reason)
    want = np.array(rows, dtype=np.float64).reshape(-1, 4)
    assert traj.residuals.shape == want.shape
    assert traj.residuals.tobytes() == want.tobytes()
