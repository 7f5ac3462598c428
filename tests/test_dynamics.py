"""Integrator and trajectory machinery against independent oracles."""

import functools
import json
import math
import os
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from test_model import ThreeModes, lab_frame_hamiltonian, reference_coupled, three_mode_record
from test_operators import embed, embedded_product, partial_trace_modes, tocsr

from ghzforge.analytic import (
    GHZ_CONVENTIONS,
    decoupling_time,
    decoupling_unitary,
    ghz_target,
    mode_displacement_amplitude,
    pair_phase_matrix,
)
from ghzforge.dynamics import (
    _BUILDERS,
    MAX_RK4_STEPS,
    MAX_SAMPLES,
    _SAMPLES_PER_PRODUCT,
    _STEPS_PER_TABLE,
    VARIANTS,
    Trajectory,
    _Basis,
    _accumulate,
    _exact_blocks,
    _observe,
    _observed,
    _observing,
    _rk4_blocks,
    _sample_grid,
    _segments,
    _trajectory,
    ground_vacuum_state,
    resolve_step,
    run,
    sweep_drive_strength,
    worker_count,
)
from ghzforge.errors import ApproximationWarning, PreconditionError
from ghzforge.model import (
    QubitSpec,
    SingleTlrCircuit,
    TimeDependentHamiltonian,
    effective_hamiltonian,
    exchange_sector,
    full_simulation_hamiltonian,
    qubit_drive_from_resonator_drive,
    rotating_frame_hamiltonian,
)
from ghzforge.operators import (
    HilbertSpace,
    assemble,
    number_operator,
    annihilation,
    pauli,
    sigma_plus,
)
from ghzforge.scenario import bundled_scenario_names, bundled_scenario_path, load_scenario

TWO_PI = 2.0 * np.pi


def reference_single(rabi_mult=20.0, n_qubits=2, detuning_sign=-1.0):
    omega_d = TWO_PI * 10.1
    qubits = tuple(
        QubitSpec(gap=omega_d, coupling=TWO_PI * 0.05) for _ in range(n_qubits)
    )
    return SingleTlrCircuit(
        omega_r=omega_d + detuning_sign * TWO_PI * 0.1,
        qubits=qubits,
        omega_d=omega_d,
        rabi=rabi_mult * TWO_PI * 0.1,
    )


def framed(states, frame, times):
    """e^{iKt} psi(t) for each row psi(t) of states: an exact stream's states,
    propagated in the frame K, back in the Hamiltonian's own frame."""
    return states * np.exp(1j * np.asarray(times, dtype=float)[:, None] * frame)


def streamed(hamiltonian, psi0, times, dt=None, exact=False):
    """Every state of a run's exact or RK4 stream, in one (samples, dim) array,
    in the Hamiltonian's own frame."""
    times = np.asarray(times, dtype=float)
    if exact:
        blocks = _exact_blocks(hamiltonian, psi0, times)
    else:
        dt = resolve_step(hamiltonian, dt)
        blocks = _rk4_blocks(hamiltonian, psi0, times, dt, _segments(times, dt))
    states = np.concatenate([states.copy() for _, states in blocks])  # the buffer is reused
    return framed(states, hamiltonian.frame, times) if exact else states


def lift(sector, states):
    """V phi for each row phi of a (samples, sector dim) array."""
    full = states[:, sector.column] * sector.weight
    full += 0.0  # a negative weight on a zero amplitude leaves -0
    return full


def ghz_overlap(states, space, target):
    """<target| Tr_modes |psi><psi| |target> for each state of a (..., dim) array.

    Writing psi as a (qubit, mode) matrix A, the reduced state is A A^dag, so
    the fidelity is sum_m |<target|A[:, m]>|^2; no density matrix is formed.
    """
    q = 2**space.n_qubits
    states = np.asarray(states)
    amplitudes = np.conj(target) @ states.reshape(*states.shape[:-1], q, space.dim // q)
    return np.sum(np.abs(amplitudes) ** 2, axis=-1)


# ---------------------------------------------------------------------------
# integrator against closed-form and independent solvers
# ---------------------------------------------------------------------------


def test_static_diagonal_phases_exact():
    space = HilbertSpace(n_qubits=0, mode_levels=(5,))
    h = TimeDependentHamiltonian(
        space, 0.7 * number_operator(5), (), 0.7, "diag"
    )
    psi0 = np.ones(5, dtype=complex) / np.sqrt(5.0)
    t = 3.3
    psi = streamed(h, psi0, [t], 5e-4)[-1]
    expected = np.exp(-1j * 0.7 * np.arange(5) * t) * psi0
    assert np.max(np.abs(psi - expected)) < 1e-11


def test_zero_hamiltonian_returns_initial_state_exactly():
    """No static part and no terms: the block row is one zero block."""
    space = HilbertSpace(n_qubits=1, mode_levels=(3,))
    h = TimeDependentHamiltonian(space, None, (), 1.0, "zero")
    rng = np.random.default_rng(7)
    psi0 = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    states = streamed(h, psi0, [0.0, 0.3, 2.0, 2.0, 9.5])
    assert np.array_equal(states, np.tile(psi0, (5, 1)))


def test_phase_table_pieces_leave_the_trajectory_unchanged(monkeypatch):
    """A long segment is tabulated in pieces over one global half-step grid,
    so the piece size cannot change a single bit of the result."""
    circuit = reference_single(n_qubits=1)
    space = HilbertSpace(n_qubits=1, mode_levels=(4,))
    h = full_simulation_hamiltonian(circuit, space)
    psi0 = ground_vacuum_state(space)
    dt = 5e-4
    whole = streamed(h, psi0, [0.3, 0.5], dt)
    monkeypatch.setattr("ghzforge.dynamics._STEPS_PER_TABLE", 7)
    assert np.array_equal(streamed(h, psi0, [0.3, 0.5], dt), whole)


# ---------------------------------------------------------------------------
# the run-wide step schedule against the per-segment loop it replaced
# ---------------------------------------------------------------------------


def reference_rk4(hamiltonian, psi0, sample_times, dt=None):
    """Reference for the RK4 stream: a phase table per sample segment, fresh
    arrays for every RK4 stage and update, the public sparse product, and a
    finiteness check at every sample.  Each stage is t_i = R @ (w_i (x) v)
    for the block row R and the block weights w_i scaled by alpha_i =
    h/2, h/2, h, h/6, and the update is y + ((t1 + 2 t2 + t3) / 3 + t4),
    with 2 t2 formed as t2 + t2 and / 3 as * (1/3).  The stream must match
    it bit for bit."""
    samples = np.asarray(sample_times, dtype=float)
    dt = resolve_step(hamiltonian, dt)
    y = np.asarray(psi0, dtype=complex).copy()
    block_row = hamiltonian.block_row

    def stage(w, v):
        return block_row @ np.outer(w, v).ravel()

    out = np.empty((samples.size, y.size), dtype=complex)
    t_now = 0.0
    for idx, t_target in enumerate(samples):
        span = t_target - t_now
        if span > 1e-15:
            n_steps = max(1, int(np.ceil(span / dt - 1e-12)))
            h = span / n_steps
            phases = hamiltonian.coefficients(t_now + (0.5 * h) * np.arange(2 * n_steps + 1))
            for row in range(0, 2 * n_steps, 2):
                t1 = stage(phases[row] * (0.5 * h), y)
                t2 = stage(phases[row + 1] * (0.5 * h), y + t1)
                t3 = stage(phases[row + 1] * h, y + t2)
                t4 = stage(phases[row + 2] * (h / 6.0), y + t3)
                y = y + ((t1 + (t2 + t2) + t3) * (1.0 / 3.0) + t4)
            t_now = t_target
        if not np.isfinite(y).all():
            raise PreconditionError(
                f"state stopped being finite by t = {t_target:g} ns; the step "
                f"{dt:g} ns or the Hamiltonian's entries are out of range"
            )
        out[idx] = y
    return out


def textbook_rk4(hamiltonian, psi0, sample_times, dt):
    """Classic RK4 on the same step schedule: k_i = -i H(t) v from the
    block column [static; M_j; M_j^dag] and the phase table, stages
    y + (h/2) k1, y + (h/2) k2, y + h k3, and y + (h/6)(k1 + 2 k2 + 2 k3 + k4)."""
    samples = np.asarray(sample_times, dtype=float)
    y = np.asarray(psi0, dtype=complex).copy()
    row, dim = hamiltonian.block_row, y.size
    column = sparse.vstack(
        [row[:, b : b + dim] for b in range(0, row.shape[1], dim)], format="csr"
    )
    blocks = (column.shape[0] // dim, dim)

    def stage(c, v):
        return c @ (column @ v).reshape(blocks)

    out = np.empty((samples.size, dim), dtype=complex)
    t_now = 0.0
    for idx, t_target in enumerate(samples):
        span = t_target - t_now
        if span > 1e-15:
            n_steps = max(1, int(np.ceil(span / dt - 1e-12)))
            h = span / n_steps
            phases = hamiltonian.coefficients(t_now + (0.5 * h) * np.arange(2 * n_steps + 1))
            for j in range(0, 2 * n_steps, 2):
                k1 = stage(phases[j], y)
                k2 = stage(phases[j + 1], y + (0.5 * h) * k1)
                k3 = stage(phases[j + 1], y + (0.5 * h) * k2)
                k4 = stage(phases[j + 2], y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t_now = t_target
        out[idx] = y
    return out


def assert_same_bits(a, b):
    """Equal bit for bit, signed zeros included (np.array_equal is not)."""
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


SCHEDULE_DT = 5e-4  # below a 50th of the full model's fastest period (0.05 ns)
_SCHEDULE_SPACE = HilbertSpace(n_qubits=1, mode_levels=(3,))
_SCHEDULE_H = full_simulation_hamiltonian(reference_single(n_qubits=1), _SCHEDULE_SPACE)


@st.composite
def sample_grids(draw):
    """Non-decreasing grids in units of SCHEDULE_DT: t = 0 samples, then
    gaps that are exact duplicates, near-duplicates (<= 1e-15 ns, which
    open no segment), one-step segments or segments of up to 30 steps."""
    gap = st.one_of(
        st.just(0.0),
        st.sampled_from([1e-16, 5e-16, 1e-15]),
        st.floats(0.05, 1.0).map(lambda f: f * SCHEDULE_DT),
        st.floats(1.0, 30.0).map(lambda f: f * SCHEDULE_DT),
    )
    t = draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0 * SCHEDULE_DT)))
    times = [0.0] * draw(st.integers(0, 2)) + [t]
    for step in draw(st.lists(gap, min_size=1, max_size=12)):
        t += step
        times.append(t)
    return times


# seven one-step segments fill the first 7-step chunk exactly, then a
# 20-step segment ends its chunks mid-segment
_BOUNDARY_GRID = (
    [0.0, 0.0]
    + [i * SCHEDULE_DT for i in range(1, 8)]
    + [7 * SCHEDULE_DT, 7 * SCHEDULE_DT + 1e-16, 27.5 * SCHEDULE_DT]
)


# the segment that reaches 6 dt fills rows 6-8, across the edge of a 7-sample block
_BLOCK_EDGE_GRID = [i * SCHEDULE_DT for i in (0, 1, 2, 3, 4, 5, 6, 6, 6, 7, 9)]

# samples 3e-16 ns apart: 5 and 9 are 1.2e-15 ns past the time reached and
# open one-step segments, though none is more than 1e-15 ns past the one before
_CREEPING_GRID = [0.0, 3 * SCHEDULE_DT] + [3 * SCHEDULE_DT + 3e-16 * k for k in range(1, 9)]


def reference_segments(samples, dt):
    """_segments' schedule by the per-sample loop: a sample opens a segment
    when it is more than 1e-15 ns past the time already reached."""
    starts, spans, ends = [], [], []
    t_now = 0.0
    for idx, t_target in enumerate(samples.tolist()):
        span = t_target - t_now
        if span > 1e-15:
            starts.append(t_now)
            spans.append(span)
            ends.append(idx)
            t_now = t_target
    spans = np.array(spans, dtype=float)
    steps = np.maximum(1.0, np.ceil(spans / dt - 1e-12))
    return (
        np.array(starts, dtype=float),
        steps.astype(np.int64),
        spans / steps,
        np.array(ends, dtype=np.int64),
    )


def assert_same_schedule(samples, dt):
    for got, expected in zip(_segments(samples, dt), reference_segments(samples, dt), strict=True):
        assert_same_bits(got, expected)


@settings(max_examples=60, deadline=None)
@given(sample_grids())
@example(_BOUNDARY_GRID)
@example(_BLOCK_EDGE_GRID)
@example(_CREEPING_GRID)
def test_step_schedule_matches_the_reference_loop(times):
    assert_same_schedule(np.array(times), SCHEDULE_DT)
    psi0 = random_state(_SCHEDULE_SPACE.dim, seed=3)
    expected = reference_rk4(_SCHEDULE_H, psi0, times, SCHEDULE_DT)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("ghzforge.dynamics._STEPS_PER_TABLE", 7)
        patch.setattr("ghzforge.dynamics._SAMPLES_PER_PRODUCT", 7)
        assert_same_bits(streamed(_SCHEDULE_H, psi0, times, SCHEDULE_DT), expected)
    assert_same_bits(streamed(_SCHEDULE_H, psi0, times, SCHEDULE_DT), expected)


@pytest.mark.parametrize("t_ns", [1.0, 3.0, 6.0])
def test_schedule_on_one_ulp_steps_matches_the_reference_loop(t_ns):
    """Forty samples one ulp apart after t_ns: each is at most 1e-15 ns past
    the one before, and every few of them open a segment through the time
    reached (the ulp is 2.2e-16, 4.4e-16 and 8.9e-16 ns)."""
    grid = [0.0, t_ns]
    for _ in range(40):
        grid.append(np.nextafter(grid[-1], math.inf))
    samples = np.array(grid)
    assert (np.diff(samples)[1:] <= 1e-15).all()
    assert reference_segments(samples, SCHEDULE_DT)[3].size > 2
    assert_same_schedule(samples, SCHEDULE_DT)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", bundled_scenario_names())
def test_every_builder_matches_the_reference_loop(name, variant, monkeypatch):
    scenario = load_scenario(bundled_scenario_path(name))
    space = HilbertSpace(n_qubits=scenario.circuit.n_qubits, mode_levels=scenario.fock)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ApproximationWarning)
        h = _BUILDERS[variant](scenario.circuit, space)
    # duplicates, a one-step segment and multi-step segments at every step
    times = resolve_step(h, scenario.dt) * np.array([0.0, 0.0, 0.6, 0.6, 4.5, 13.0])
    psi0 = ground_vacuum_state(space)
    expected = reference_rk4(h, psi0, times, scenario.dt)
    monkeypatch.setattr("ghzforge.dynamics._STEPS_PER_TABLE", 7)
    assert_same_bits(streamed(h, psi0, times, scenario.dt), expected)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", bundled_scenario_names())
def test_block_row_loop_stays_within_1e13_of_textbook_rk4(name, variant):
    """The folded weights and the (t1 + 2 t2 + t3)/3 + t4 update only
    reorder the rounding of classic RK4 on the same schedule."""
    scenario = load_scenario(bundled_scenario_path(name))
    space = HilbertSpace(n_qubits=scenario.circuit.n_qubits, mode_levels=scenario.fock)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ApproximationWarning)
        h = _BUILDERS[variant](scenario.circuit, space)
    dt = resolve_step(h, scenario.dt)
    times = dt * np.array([0.0, 0.6, 4.5, 13.0, 40.0])
    psi0 = ground_vacuum_state(space)
    textbook = textbook_rk4(h, psi0, times, dt)
    assert np.abs(streamed(h, psi0, times, dt) - textbook).max() <= 1e-13


@pytest.mark.parametrize("case", ["zero", "coupled-full"])
def test_stage_product_is_the_public_sparse_product(case):
    """The stages call SciPy's private CSR kernel into a zeroed buffer; it
    must give what `block_row @ x` gives, bit for bit, so a change to that
    entry point fails here rather than in a trajectory."""
    if case == "zero":  # one all-zero block, no stored entries
        space = HilbertSpace(n_qubits=1, mode_levels=(3,))
        h = TimeDependentHamiltonian(space, None, (), 1.0, "zero")
    else:  # static part and two oscillating terms: five blocks
        space = HilbertSpace(n_qubits=2, mode_levels=(3, 3))
        h = full_simulation_hamiltonian(reference_coupled(), space)
    kernel = _accumulate(h.block_row)
    assert h.block_row.shape == (space.dim, (1 + 2 * len(h.terms)) * space.dim)
    t = np.empty(space.dim, dtype=complex)
    for seed, time_ns in ((1, 0.0), (2, 0.37)):
        x = np.outer(h.coefficients(time_ns), random_state(space.dim, seed)).ravel()
        t.fill(0.0)
        kernel(x, t)
        assert_same_bits(t, h.block_row @ x)


@pytest.mark.parametrize("steps_per_table", [_STEPS_PER_TABLE, 7])
def test_non_finite_state_is_named_at_the_reference_sample(steps_per_table, monkeypatch):
    """The state overflows partway through a phase-table chunk that spans
    many samples; the error still names the first non-finite sample."""
    space = HilbertSpace(n_qubits=1)
    growth = np.diag([100j, 0.0])  # -i H grows |0> as e^{100 t}
    h = TimeDependentHamiltonian(space, growth, ((0.5 * sigma_plus(), 3.0),), 10.0, "growing")
    times = np.arange(2000) * 0.01  # one step per sample; overflow near t = 7
    psi0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    monkeypatch.setattr("ghzforge.dynamics._STEPS_PER_TABLE", steps_per_table)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(PreconditionError) as expected:
            reference_rk4(h, psi0, times, 0.01)
        with pytest.raises(PreconditionError) as got:
            streamed(h, psi0, times, 0.01)
    assert str(got.value) == str(expected.value)
    named = float(re.search(r"t = (\S+) ns", str(got.value)).group(1))
    assert times[1] < named < times[-1]


def test_a_blown_up_rk4_run_stops_within_one_table_chunk(monkeypatch):
    """The state is checked after every chunk of _STEPS_PER_TABLE steps, on
    the samples stored since the last check, not once per block of
    samples: after the chunk that stores the first non-finite sample, at
    most one more chunk tabulates its weights."""
    space = HilbertSpace(n_qubits=1)
    growth = np.diag([100j, 0.0])  # -i H grows |0> as e^{100 t}
    h = TimeDependentHamiltonian(space, growth, ((0.5 * sigma_plus(), 3.0),), 10.0, "growing")
    times = np.arange(2000) * 0.01  # overflow near t = 7, inside the third block of 256
    psi0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    assert (_segments(times, 0.01)[1] == 1).all()  # sample i is stored by step i - 1
    monkeypatch.setattr("ghzforge.dynamics._STEPS_PER_TABLE", 4)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(PreconditionError) as expected:
            reference_rk4(h, psi0, times, 0.01)
        named = float(re.search(r"t = (\S+) ns", str(expected.value)).group(1))
        first_bad = int(np.argmin(np.abs(times - named)))
        tables, real = [], h.coefficients
        monkeypatch.setattr(h, "coefficients", lambda t: tables.append(t) or real(t))
        with pytest.raises(PreconditionError) as got:
            streamed(h, psi0, times, 0.01)
    assert str(got.value) == str(expected.value)
    assert first_bad > 2 * _SAMPLES_PER_PRODUCT
    assert len(tables) <= (first_bad - 1) // 4 + 2


def test_a_blown_up_rk4_run_warns_nothing_and_names_the_sample():
    """The overflow inside the step loop raises no RuntimeWarning: the
    finiteness check after the chunk reports it, with the reference message."""
    space = HilbertSpace(n_qubits=1)
    growth = np.diag([100j, 0.0])  # -i H grows |0> as e^{100 t}
    h = TimeDependentHamiltonian(space, growth, ((0.5 * sigma_plus(), 3.0),), 10.0, "growing")
    times = np.arange(2000) * 0.01
    psi0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(PreconditionError) as expected:
            reference_rk4(h, psi0, times, 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(PreconditionError) as got:
            streamed(h, psi0, times, 0.01)
    assert str(got.value) == str(expected.value)


def test_rabi_flop_oracle():
    """Decoupled qubit under the transverse drive: textbook Rabi rotation."""
    circuit = SingleTlrCircuit(
        omega_r=TWO_PI * 10.0,
        qubits=(QubitSpec(gap=TWO_PI * 10.1, coupling=0.0),),
        omega_d=TWO_PI * 10.1,
        rabi=TWO_PI * 0.25,
    )
    space = HilbertSpace(n_qubits=1, mode_levels=(2,))
    h = rotating_frame_hamiltonian(circuit, space)
    psi0 = ground_vacuum_state(space)
    for t in (0.4, 1.0, 2.7):
        psi = streamed(h, psi0, [t], 5e-4)[-1]
        theta = 0.5 * circuit.rabi * t
        # ground component (qubit index 1, vacuum) and excited (index 0)
        assert psi[2] == pytest.approx(np.cos(theta), abs=1e-10)
        assert psi[0] == pytest.approx(-1j * np.sin(theta), abs=1e-10)


def test_fixed_step_matches_adaptive_dop853():
    """Full time-dependent Hamiltonian vs an independent adaptive solver."""
    circuit = reference_single(n_qubits=1)
    space = HilbertSpace(n_qubits=1, mode_levels=(6,))
    h = full_simulation_hamiltonian(circuit, space)
    psi0 = ground_vacuum_state(space)
    t_final = 2.0
    psi_rk4 = streamed(h, psi0, [t_final], 1e-4)[-1]

    def rhs(t, y):
        z = y[: space.dim] + 1j * y[space.dim :]
        dz = -1j * (h(t) @ z)
        return np.concatenate([dz.real, dz.imag])

    y0 = np.concatenate([psi0.real, psi0.imag])
    sol = solve_ivp(
        rhs, (0.0, t_final), y0, method="DOP853", rtol=1e-11, atol=1e-12
    )
    psi_ref = sol.y[: space.dim, -1] + 1j * sol.y[space.dim :, -1]
    assert np.max(np.abs(psi_rk4 - psi_ref)) < 1e-7


def test_mode_occupation_follows_conditional_displacement():
    """Effective variant: <n>(t) = sum_S P(S) |S B(t)|^2 over the sigma_x
    decomposition of the initial register; 2 |B|^2 for two ground qubits."""
    circuit = reference_single()
    t_half = 0.5 * decoupling_time(circuit.detuning, 1)
    traj = run(
        circuit, "effective", decoupling_time(circuit.detuning, 1), t_half / 2.0, (10,)
    )
    g = circuit.qubits[0].coupling
    for i, t in enumerate(traj.times):
        expected = 2.0 * abs(
            mode_displacement_amplitude(t, g, circuit.detuning)
        ) ** 2
        assert traj.mode_occupation[i, 0] == pytest.approx(expected, abs=2e-4)
    # the loop closes: the mode is back near vacuum at the gate time
    assert traj.mode_occupation[-1, 0] < 1e-4


def test_effective_run_matches_closure_unitary():
    """State-level agreement with the closed-form propagator at T_1."""
    circuit = reference_single()
    space = HilbertSpace(n_qubits=2, mode_levels=(10,))
    t_gate = decoupling_time(circuit.detuning, 1)
    psi = streamed(
        effective_hamiltonian(circuit, space), ground_vacuum_state(space), [t_gate]
    )[-1]
    u = decoupling_unitary(
        pair_phase_matrix(circuit.coupling_matrix, circuit.mode_detunings, t_gate)
    )
    qubit_state = u @ np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
    closure = np.kron(qubit_state, np.eye(10)[0])
    fidelity = abs(np.vdot(closure, psi)) ** 2
    assert fidelity > 0.9999


def test_effective_gate_fidelity_is_converged_in_the_fock_cutoff():
    """At the single-resonator reference point the gate fidelity moves by
    less than 1e-5 between 8 and 12 Fock levels."""
    circuit = reference_single()
    t_gate = decoupling_time(circuit.detuning, 1)
    f8, f12 = (run(circuit, "effective", t_gate, 1.0, (n,)).final_fidelity for n in (8, 12))
    assert abs(f8 - f12) < 1e-5


# ---------------------------------------------------------------------------
# exact propagation of Hamiltonians that are static in a diagonal frame
# ---------------------------------------------------------------------------


EXACT_CASES = {
    # (record, Fock cutoffs, span): the single gate is the whole 10 ns
    "single": (reference_single, (6,), 10.0),
    "coupled": (reference_coupled, (5, 5), 1.0),
    "three-mode": (three_mode_record, (3, 3, 3), 1.0),
}


@pytest.mark.parametrize("variant", ["rotating", "effective"])
@pytest.mark.parametrize("case", sorted(EXACT_CASES))
def test_exact_states_match_rk4_at_a_256th_of_the_step(case, variant):
    make, fock, span = EXACT_CASES[case]
    circuit = make()
    space = HilbertSpace(n_qubits=circuit.n_qubits, mode_levels=fock)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ApproximationWarning)
        h = _BUILDERS[variant](circuit, space)
    times = np.linspace(0.0, span, 6)
    psi0 = ground_vacuum_state(space)
    exact = streamed(h, psi0, times, exact=True)
    fine = streamed(h, psi0, times, resolve_step(h, None) / 256)
    assert np.max(np.linalg.norm(exact - fine, axis=1)) <= 1e-10


def reference_exact(hamiltonian, psi0, sample_times):
    """Reference for the exact stream: the phases by np.exp of imaginary
    angles, e^{iKt} on every diagonal entry of K, and one product for all
    samples."""
    t = np.asarray(sample_times, dtype=float)[:, None]
    h = hamiltonian(0.0)
    h[np.diag_indices_from(h)] += hamiltonian.frame
    energies, vectors = np.linalg.eigh(h if h.imag.any() else h.real)
    amplitudes = vectors.conj().T @ psi0
    states = (np.exp(-1j * t * energies) * amplitudes) @ vectors.T
    return states * np.exp(1j * t * hamiltonian.frame)


EXACT_GRIDS = {  # sample times as fractions of the case's span
    "600-samples": np.linspace(0.0, 1.0, 600),  # more than two products' worth
    "duplicates": np.array([0.0, 0.0, 1e-16, 0.013, 0.013, 0.2, 0.7501, 0.7501, 1.0]),
}


@pytest.mark.parametrize("grid", sorted(EXACT_GRIDS))
@pytest.mark.parametrize("variant", ["rotating", "effective"])
@pytest.mark.parametrize("case", sorted(EXACT_CASES))
def test_exact_states_match_the_complex_exponential_reference(case, variant, grid, monkeypatch):
    """The phase tables come from cos and sin of real angles, e^{iKt} from
    K's distinct levels only; that moves no state by more than 1e-13, and
    the number of samples per product moves no bit."""
    make, fock, span = EXACT_CASES[case]
    circuit = make()
    space = HilbertSpace(n_qubits=circuit.n_qubits, mode_levels=fock)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ApproximationWarning)
        h = _BUILDERS[variant](circuit, space)
    times = span * EXACT_GRIDS[grid]
    assert EXACT_GRIDS["600-samples"].size > 2 * _SAMPLES_PER_PRODUCT
    psi0 = random_state(space.dim, seed=5)
    states = streamed(h, psi0, times, exact=True)
    assert np.max(np.abs(states - reference_exact(h, psi0, times))) <= 1e-13
    monkeypatch.setattr("ghzforge.dynamics._SAMPLES_PER_PRODUCT", 7)
    assert_same_bits(streamed(h, psi0, times, exact=True), states)


def test_repeat_exact_runs_are_bit_identical():
    for variant in ("rotating", "effective"):
        a, b = (run(reference_coupled(), variant, 1.0, 0.1, (4, 4)) for _ in range(2))
        assert a.propagator == b.propagator == "exact"
        assert np.array_equal(a.fidelity, b.fidelity)
        assert np.array_equal(a.norm, b.norm)
        assert np.array_equal(a.mode_occupation, b.mode_occupation)


def _one_ulp_uneven(circuit):
    """The circuit with its second coupling one ulp higher: no exchange sector."""
    first, second, *rest = circuit.qubits
    second = replace(second, coupling=np.nextafter(second.coupling, 1.0))
    return replace(circuit, qubits=(first, second, *rest))


def _with_duplicates(times):
    """times with sample 6 three times and sample 253 twice: each fill spans
    a block edge, of 7-sample blocks (rows 6-8) and of 256-sample ones (255-256)."""
    times = np.insert(times, [7, 7, 254], times[[6, 6, 253]])
    assert times[6] == times[8] and times[255] == times[256] != times[254]
    return times


BLOCK_RUNS = {  # (circuit, variant, sample times, fock, runs in a sector)
    "exact-sector": lambda: (
        reference_coupled(), "effective", _sample_grid(25.0, 0.01), (6, 6), True
    ),
    "exact-no-sector": lambda: (
        _one_ulp_uneven(reference_single()), "effective", _sample_grid(10.0, 0.004), (6,), False
    ),
    "rk4": lambda: (reference_single(), "full", _sample_grid(0.6, 0.001), (4,), True),
    "rk4-duplicates": lambda: (
        reference_single(), "full", _with_duplicates(_sample_grid(0.6, 0.001)), (4,), True
    ),
    # at Fock 20 a BLAS product over a block's rows rounded a row by the block's size
    "exact-fock-20": lambda: (
        reference_single(), "effective", _sample_grid(10.0, 0.004), (20,), True
    ),
}


@pytest.mark.parametrize("case", sorted(BLOCK_RUNS))
def test_block_boundaries_leave_no_trace(case, monkeypatch):
    """A run propagates and observes _SAMPLES_PER_PRODUCT samples at a
    time; blocks of 7 samples move no bit of any observable, the winning
    convention or the diagnostics."""
    circuit, variant, times, fock, in_sector = BLOCK_RUNS[case]()
    whole = _trajectory(circuit, variant, times, fock, None, "auto")
    assert whole.times.size > 2 * _SAMPLES_PER_PRODUCT
    assert (whole.diagnostics["propagated_dim"] < whole.dim) == in_sector
    monkeypatch.setattr("ghzforge.dynamics._SAMPLES_PER_PRODUCT", 7)
    blocked = _trajectory(circuit, variant, times, fock, None, "auto")
    for c in GHZ_CONVENTIONS:
        assert_same_bits(blocked.fidelity_by_convention[c], whole.fidelity_by_convention[c])
    assert_same_bits(blocked.fidelity, whole.fidelity)
    assert_same_bits(blocked.norm, whole.norm)
    assert_same_bits(blocked.mode_occupation, whole.mode_occupation)
    assert blocked.convention == whole.convention
    assert blocked.diagnostics == whole.diagnostics


def test_an_exact_run_holds_one_block_of_states():
    """The coupled effective gate at Fock 8 x 8 (dim 256) over 25 ns: ten
    times the samples, 25,001 instead of 2,501, less than doubles the
    traced peak, since only the per-sample observables grow; an array of
    every sample's full-space states would grow tenfold with them."""
    run(reference_coupled(), "effective", 25.0, 0.01, (8, 8))  # nothing lazy is traced
    peaks = []
    for every in (0.01, 0.001):
        tracemalloc.start()
        try:
            trajectory = run(reference_coupled(), "effective", 25.0, every, (8, 8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert trajectory.times.size == 25_001
    assert peaks[1] < 2 * peaks[0]


def test_an_rk4_run_holds_one_block_of_states():
    """The coupled full gate at Fock 6 x 6 (a sector of 72) over 2 ns: ten
    times the samples, 5,001 instead of 501, less than doubles the traced
    peak, since only the per-sample observables and the step schedule
    grow; an array of every sample's propagated states would grow tenfold."""
    run(reference_coupled(), "full", 0.05, 0.01, (6, 6))  # nothing lazy is traced
    peaks = []
    for every in (0.004, 0.0004):
        tracemalloc.start()
        try:
            trajectory = run(reference_coupled(), "full", 2.0, every, (6, 6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert trajectory.times.size == 5_001 and trajectory.propagator == "rk4"
    assert peaks[1] < 2 * peaks[0]


def test_max_samples_is_checked_on_both_sides(monkeypatch):
    """run and sweep_drive_strength refuse a span of MAX_SAMPLES sample
    intervals or more with ValueError before the grid is allocated, which
    at 1e300 samples it could not be; just inside the limit they run."""
    circuit = reference_single()
    for span, every in ((10.0, 10.0 / MAX_SAMPLES), (1e300, 1.0)):
        with pytest.raises(ValueError, match=f"samples; the limit is {MAX_SAMPLES}"):
            run(circuit, "effective", span, every, (6,))
        with pytest.raises(ValueError, match=f"samples; the limit is {MAX_SAMPLES}"):
            sweep_drive_strength(circuit, "effective", [20.0], (0.0, span), every, workers=1)
    monkeypatch.setattr("ghzforge.dynamics.MAX_SAMPLES", 64)
    every = 10.0 / 63.5
    assert run(circuit, "effective", 10.0, every, (6,)).times.size == 65
    (point,) = sweep_drive_strength(circuit, "effective", [20.0], (0.0, 10.0), every, workers=1)
    assert point.times.size == 64
    with pytest.raises(ValueError, match="samples; the limit is 64"):
        run(circuit, "effective", 10.0, 10.0 / 64.5, (6,))
    with pytest.raises(ValueError, match="samples; the limit is 64"):
        sweep_drive_strength(circuit, "effective", [20.0], (0.0, 10.0), 10.0 / 64.5, workers=1)


def test_a_frame_the_terms_contradict_is_refused():
    space = HilbertSpace(n_qubits=0, mode_levels=(3,))
    a = annihilation(3)
    n = np.arange(3.0)
    # a lowers n by one, so K = 0.7 n carries a only at -0.7 rad/ns
    h = TimeDependentHamiltonian(space, None, ((a, -0.7),), 0.7, "ok", 0.7 * n)
    assert np.array_equal(h.frame, 0.7 * n)
    with pytest.raises(ValueError, match="frame"):
        TimeDependentHamiltonian(space, None, ((a, 0.7),), 0.7, "wrong sign", 0.7 * n)
    with pytest.raises(ValueError, match="frame"):  # a static part that K does not conserve
        TimeDependentHamiltonian(space, a + a.T, (), 1.0, "static", 0.7 * n)
    with pytest.raises(ValueError, match="frame"):
        TimeDependentHamiltonian(space, None, ((a, -0.7),), 0.7, "short", 0.7 * n[:2])


def test_exact_path_checks_its_input_like_rk4():
    space = HilbertSpace(n_qubits=1)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    blown = TimeDependentHamiltonian(space, np.diag([np.inf, 0.0]), (), 1.0, "blown-up")
    with pytest.raises(PreconditionError, match="finite"):
        streamed(blown, psi0, [0.0, 1.0], exact=True)


def test_run_takes_rk4_for_time_dependent_h(monkeypatch):
    calls = []
    real = _rk4_blocks

    def recording(hamiltonian, *args):
        calls.append(hamiltonian.space.dim)
        return real(hamiltonian, *args)

    monkeypatch.setattr("ghzforge.dynamics._rk4_blocks", recording)
    circuit = reference_single()
    full = run(circuit, "full", 0.2, 0.1, (4,))
    # the two identical qubits: RK4 runs in the exchange-symmetric sector,
    # the qubits' triplet times the mode, while the trajectory keeps the full space
    assert full.propagator == "rk4" and calls == [12] and full.dim == 16
    assert full.diagnostics["propagated_dim"] == 12
    dt = TWO_PI / (circuit.omega + circuit.omega_d) / 64
    assert full.steps == 2 * math.ceil(0.1 / dt - 1e-12)
    assert full.diagnostics["dt"] == dt


@pytest.mark.parametrize("variant, builds", [("full", 1), ("effective", 0)])
def test_an_rk4_run_builds_its_schedule_once(variant, builds, monkeypatch):
    """The run builds the step schedule inside its build timing, reads its
    step count from it and hands it to the stream: one build per RK4 run."""
    calls, real = [], _segments

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr("ghzforge.dynamics._segments", counting)
    trajectory = run(reference_single(), variant, 0.2, 0.05, (4,))
    assert len(calls) == builds
    assert trajectory.steps == (int(real(*calls[0])[1].sum()) if builds else 0)


@pytest.mark.parametrize("variant", ["effective", "rotating"])
def test_frame_static_runs_are_exact_in_the_sector_at_dimension_1024(variant, monkeypatch):
    """Coupled Fock 16 x 16: the run is exact, takes no step, propagates
    the sector of 512, and its states, lifted by V and framed, are those of
    the full-space exact stream to 1e-12."""
    observed, real_observe = [], _observe

    def observing(states, *args):  # once per block; a block's buffer may be reused
        observed.append(states.copy())
        return real_observe(states, *args)

    monkeypatch.setattr("ghzforge.dynamics._observe", observing)
    circuit, fock = reference_coupled(), (16, 16)
    trajectory = run(circuit, variant, 2.0, 0.5, fock)
    assert (trajectory.propagator, trajectory.steps, trajectory.dim) == ("exact", 0, 1024)
    assert trajectory.diagnostics["propagated_dim"] == 512
    space = HilbertSpace(n_qubits=2, mode_levels=fock)
    h = _BUILDERS[variant](circuit, space)
    full = streamed(h, ground_vacuum_state(space), trajectory.times, exact=True)
    (states,) = observed
    sector = exchange_sector(h, circuit.coupling_matrix)
    states = lift(sector, framed(states, sector.hamiltonian.frame, trajectory.times))
    assert np.abs(states - full).max() <= 1e-12


@pytest.mark.parametrize("variant", VARIANTS)
def test_only_rk4_runs_build_the_csr_column(variant, monkeypatch):
    """An exact run never builds the CSR block row `block_row`, so it needs
    no scipy.sparse.  An RK4 run of the two identical qubits builds it for the
    exchange-sector Hamiltonian it propagates, before its build timing
    closes, and never for the full-space one."""
    hamiltonians, propagated = [], []
    builder, real_evolve = _BUILDERS[variant], _rk4_blocks

    def recording(circuit, space):
        hamiltonians.append(builder(circuit, space))
        return hamiltonians[-1]

    def evolving(hamiltonian, *args):
        propagated.append((hamiltonian, "block_row" in vars(hamiltonian)))
        return real_evolve(hamiltonian, *args)

    monkeypatch.setitem(_BUILDERS, variant, recording)
    monkeypatch.setattr("ghzforge.dynamics._rk4_blocks", evolving)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ApproximationWarning)
        trajectory = run(reference_single(), variant, 0.2, 0.1, (4,))
    (h,) = hamiltonians
    rk4 = variant in ("full", "intermediate")
    assert trajectory.propagator == ("rk4" if rk4 else "exact")
    assert "block_row" not in vars(h)
    if rk4:
        ((sector_h, built_before_evolve),) = propagated
        assert built_before_evolve and sector_h is not h
        assert sector_h.space.dim == trajectory.diagnostics["propagated_dim"] == 12
    else:
        assert propagated == []


# ---------------------------------------------------------------------------
# the qubit-exchange sector RK4 runs in
# ---------------------------------------------------------------------------


class SignedThreeModes(ThreeModes):
    """Three modes, two qubits with |G_0| = |G_1|: modes 0 and 2 change sign."""

    coupling_matrix = np.array([[0.05, 0.02, -0.03], [-0.05, 0.02, 0.03]])


def signed_three_mode_record():
    record = three_mode_record()
    return SignedThreeModes(record.qubits, record.omega_d, record.rabi)


def _negative_hopping(circuit):
    j = circuit.hopping[0][1]
    return replace(circuit, hopping=((0.0, -j), (-j, 0.0)))


SECTOR_LAYOUTS = {
    "single": lambda: (reference_single(), (4,)),
    "coupled-J>0": lambda: (reference_coupled(), (3, 3)),
    "coupled-J<0": lambda: (_negative_hopping(reference_coupled()), (3, 3)),
    "three-qubits": lambda: (reference_single(n_qubits=3), (3,)),
    "three-modes": lambda: (three_mode_record(), (2, 3, 2)),
    "three-modes-signed": lambda: (signed_three_mode_record(), (2, 3, 2)),
}


def exchange_matrix(space, coupling_matrix):
    """P built by Kronecker products: SWAP of qubits 0 and 1, then (-1)^n on
    every mode whose two coupling entries differ in sign."""
    swap = np.eye(4)[[0, 2, 1, 3]]
    flips = coupling_matrix[0] * coupling_matrix[1] < 0
    factors = [swap, np.eye(2 ** (space.n_qubits - 2))]
    for flip, levels in zip(flips, space.mode_levels):
        factors.append(np.diag((-1.0) ** np.arange(levels)) if flip else np.eye(levels))
    return functools.reduce(np.kron, factors)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("layout", SECTOR_LAYOUTS)
def test_exchange_sector_commutes_with_every_block_and_lifts_rk4(layout, variant):
    """For identical qubits every block of every builder commutes exactly
    with P; V is an isometry onto P's whole +1 eigenspace that holds the
    ground-vacuum state bit for bit; the sector blocks are V^dag B V; and
    RK4 in the sector, lifted by V, follows full-space RK4 to 1e-13, and
    with a declared frame the exact path follows its full-space run to
    1e-12.  A layout whose first two coupling rows differ in magnitude has
    no sector."""
    circuit, levels = SECTOR_LAYOUTS[layout]()
    space = HilbertSpace(n_qubits=circuit.n_qubits, mode_levels=levels)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ApproximationWarning)
        h = _BUILDERS[variant](circuit, space)
    sector = exchange_sector(h, circuit.coupling_matrix)
    g = np.abs(circuit.coupling_matrix)
    if not np.array_equal(g[0], g[1]):
        assert sector is None
        return
    p = exchange_matrix(space, circuit.coupling_matrix)
    for block in h.blocks:
        b = block.toarray()
        assert np.array_equal(p @ b, b @ p)
    n = sector.hamiltonian.space.dim
    v = np.zeros((space.dim, n))
    v[np.arange(space.dim), sector.column] = sector.weight
    assert np.abs(v.T @ v - np.eye(n)).max() <= 4 * np.finfo(float).eps
    assert np.array_equal(p @ v, v) and 2 * n == space.dim + np.trace(p)
    psi0 = ground_vacuum_state(space)
    assert np.array_equal(v.T @ psi0, sector.reduce(psi0))
    assert_same_bits(lift(sector, sector.reduce(psi0)[None])[0], psi0)
    for block, reduced in zip(h.blocks, sector.hamiltonian.blocks):
        b = block.toarray()
        assert np.abs(reduced.toarray() - v.T @ b @ v).max() <= 1e-15 * max(1.0, np.abs(b).max())
    times = np.linspace(0.0, 0.2, 5)
    full = streamed(h, psi0, times)
    lifted = lift(sector, streamed(sector.hamiltonian, sector.reduce(psi0), times))
    assert np.abs(lifted - full).max() <= 1e-13
    if h.frame is None:
        assert sector.hamiltonian.frame is None
        return
    # the sector frame is K at the sector's first states, and the exact path lifts too
    assert np.array_equal(sector.hamiltonian.frame, h.frame[sector.rows])
    full = streamed(h, psi0, times, exact=True)
    lifted = lift(sector, streamed(sector.hamiltonian, sector.reduce(psi0), times, exact=True))
    assert np.abs(lifted - full).max() <= 1e-12


def test_couplings_one_ulp_apart_give_no_sector_and_the_full_space_run(monkeypatch):
    """One ulp between the two couplings is enough to refuse the sector,
    and the run is then the full-space RK4 run bit for bit; so is a block
    that breaks the exchange while the couplings match, in a value or in
    the position of an entry."""
    circuit = reference_single()
    first, second = circuit.qubits
    uneven = replace(
        circuit, qubits=(first, replace(second, coupling=np.nextafter(second.coupling, 1.0)))
    )
    space = HilbertSpace(n_qubits=2, mode_levels=(4,))
    h = full_simulation_hamiltonian(uneven, space)
    assert exchange_sector(h, uneven.coupling_matrix) is None
    even = full_simulation_hamiltonian(circuit, space)
    assert exchange_sector(even, circuit.coupling_matrix) is not None
    broken_static = even.static.toarray() + 1e-3 * embed(pauli("z"), 0, space).toarray()
    broken = TimeDependentHamiltonian(space, broken_static, even.terms, even.fastest_frequency, "b")
    assert exchange_sector(broken, circuit.coupling_matrix) is None
    # sigma_+ on qubit 0 alone: the exchange moves its entries where the block stores none
    raising = ((embed(sigma_plus(), 0, space), 1.0), *even.terms)
    lopsided = TimeDependentHamiltonian(space, even.static, raising, even.fastest_frequency, "p")
    assert exchange_sector(lopsided, circuit.coupling_matrix) is None

    recorded, real_evolve = [], _rk4_blocks

    def evolving(*args):
        for first, states in real_evolve(*args):
            recorded.append(states.copy())  # a block's buffer may be reused
            yield first, states

    monkeypatch.setattr("ghzforge.dynamics._rk4_blocks", evolving)
    trajectory = run(uneven, "full", 0.2, 0.05, (4,))
    (states,) = recorded  # one block of 5 samples
    assert trajectory.diagnostics["propagated_dim"] == trajectory.dim == 16
    assert_same_bits(states, streamed(h, ground_vacuum_state(space), trajectory.times))


@pytest.mark.parametrize("frame_qubits, propagated_dim", [((0, 1), 6), ((0,), 8)])
def test_a_frame_the_exchange_changes_gives_no_sector(frame_qubits, propagated_dim, monkeypatch):
    """H = Z_0 + Z_1 on two qubits and a two-level mode keeps the exchange;
    with the frame K = sum of Z over frame_qubits, so does K when both
    qubits are in it, and the run takes the sector of 6.  K = Z_0 alone is
    changed by the exchange: there is no sector, and the run is exact in
    the full space of 8."""
    space = HilbertSpace(n_qubits=2, mode_levels=(2,))
    z = [embed(pauli("z"), q, space).toarray() for q in (0, 1)]
    frame = sum(z[q].diagonal().real for q in frame_qubits)
    toy = TimeDependentHamiltonian(space, z[0] + z[1], (), 1.0, "toy", frame)
    circuit = reference_single()
    sector = exchange_sector(toy, circuit.coupling_matrix)
    assert (sector is None) == (propagated_dim == space.dim)
    monkeypatch.setitem(_BUILDERS, "rotating", lambda circuit, space: toy)
    trajectory = run(circuit, "rotating", 0.2, 0.1, (2,))
    assert (trajectory.propagator, trajectory.dim) == ("exact", space.dim)
    assert trajectory.diagnostics["propagated_dim"] == propagated_dim


def turning_toy(w):
    """Two qubits and a 3-level mode in the frame K = (w/2)(Z_0 + Z_1) + 0.7 n:
    a static part that K conserves, a^dag at 0.7 rad/ns, and sigma_+ sigma_+
    at K(|ee,m>) - K(|gg,m>) = 2w, the one relative GHZ level."""
    space = HilbertSpace(n_qubits=2, mode_levels=(3,))
    z = embed(pauli("z"), 0, space).toarray() + embed(pauli("z"), 1, space).toarray()
    n = embed(number_operator(3), 2, space).toarray()
    hop = embedded_product(space, {0: sigma_plus(), 1: sigma_plus().T}).toarray()
    static = 0.4 * z + 0.25 * (hop + hop.T) + 0.15 * n @ z
    terms = (
        (0.3 * embedded_product(space, {0: sigma_plus(), 1: sigma_plus()}).toarray(), 2.0 * w),
        (0.2 * embed(annihilation(3).T, 2, space).toarray(), 0.7),
    )
    frame = (0.5 * w * z + 0.7 * n).diagonal().real
    return TimeDependentHamiltonian(space, static, terms, max(2.0 * w, 0.7), "turning", frame)


@pytest.mark.parametrize("uneven", [False, True], ids=["sector", "full-basis"])
def test_a_nonzero_relative_level_turns_the_ee_amplitudes(uneven, monkeypatch):
    """An exact run observes in the frame it propagates in, applying
    e^{i level t} to the |e..e,m> amplitudes only: its observables match the
    per-sample reference on the framed full-space states to 1e-13, in the
    exchange sector and in the full basis, and the reference on the
    unframed states misses them."""
    toy = turning_toy(2.3)
    basis = _Basis(toy.space, None, toy.frame)
    assert basis.levels.tolist() == [4.6] and basis.turning.size == 3
    monkeypatch.setitem(_BUILDERS, "rotating", lambda circuit, space: toy)
    circuit = _one_ulp_uneven(reference_single()) if uneven else reference_single()
    trajectory = run(circuit, "rotating", 3.0, 0.01, (3,))
    assert trajectory.times.size > _SAMPLES_PER_PRODUCT
    assert (trajectory.diagnostics["propagated_dim"] < trajectory.dim) != uneven
    psi0 = ground_vacuum_state(toy.space)
    states = reference_exact(toy, psi0, trajectory.times)
    fids, occupations, norms, _ = observe_by_sample(states, toy.space)
    for c in GHZ_CONVENTIONS:
        assert np.abs(trajectory.fidelity_by_convention[c] - fids[c]).max() <= 1e-13
    assert np.abs(trajectory.mode_occupation - occupations).max() <= 1e-13
    assert np.abs(trajectory.norm - norms).max() <= 1e-13
    unframed = states * np.exp(-1j * trajectory.times[:, None] * toy.frame)
    missed, _, _, _ = observe_by_sample(unframed, toy.space)
    assert max(np.abs(missed[c] - fids[c]).max() for c in GHZ_CONVENTIONS) > 0.1


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("layout", ["single", "coupled-J>0", "three-qubits"])
def test_sector_runs_observe_what_their_lifted_framed_states_show(layout, variant, monkeypatch):
    """A run observes the states it propagates, in the exchange sector and
    in the frame, with no lift: its observables and diagnostics are those of
    its states lifted by V and, for an exact run, framed by e^{iKt}, observed
    in the full basis."""
    circuit, levels = SECTOR_LAYOUTS[layout]()
    observed, real_observe = [], _observe

    def observing(states, *args):  # once per block; a block's buffer may be reused
        observed.append(states.copy())
        return real_observe(states, *args)

    monkeypatch.setattr("ghzforge.dynamics._observe", observing)
    monkeypatch.setattr("ghzforge.dynamics._SAMPLES_PER_PRODUCT", 16)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ApproximationWarning)
        trajectory = run(circuit, variant, 0.5, 0.01, levels)
        space = HilbertSpace(n_qubits=circuit.n_qubits, mode_levels=levels)
        h = _BUILDERS[variant](circuit, space)
    sector = exchange_sector(h, circuit.coupling_matrix)
    assert trajectory.diagnostics["propagated_dim"] == sector.hamiltonian.space.dim
    states = np.concatenate(observed)
    if trajectory.propagator == "exact":
        states = framed(states, sector.hamiltonian.frame, trajectory.times)
    lifted = observe_in_blocks(lift(sector, states), space, "auto")
    tol = dict(rtol=1e-13, atol=1e-15)
    for c in GHZ_CONVENTIONS:
        np.testing.assert_allclose(
            trajectory.fidelity_by_convention[c], lifted.fidelity_by_convention[c], **tol
        )
    np.testing.assert_allclose(trajectory.mode_occupation, lifted.mode_occupation, **tol)
    np.testing.assert_allclose(trajectory.norm, lifted.norm, **tol)
    assert trajectory.convention == lifted.convention
    np.testing.assert_allclose(
        trajectory.diagnostics["top_fock_population"],
        lifted.diagnostics["top_fock_population"],
        **tol,
    )


def test_an_overflowing_relative_phase_exits_3(tmp_path, monkeypatch, capsys):
    """K(|ee,m>) - K(|gg,m>) = 1e308 rad/ns: the eigenphases stay finite to
    3 ns, but the relative GHZ phase overflows at 2 ns, and the run exits 3
    naming that sample instead of writing NaN."""
    from ghzforge.cli import main

    toy = turning_toy(5e307)
    monkeypatch.setitem(_BUILDERS, "rotating", lambda circuit, space: toy)
    doc = json.loads(bundled_scenario_path("single_tlr_ghz_effective").read_text())
    doc.update(variant="rotating", fock_cutoff=3, t_final_ns=3.0, sample_every_ns=0.5)
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        "precondition violated: state stopped being finite by t = 2 ns; "
        "the Hamiltonian's entries are out of range\n"
    )
    assert not list(tmp_path.glob("out/*.csv"))


# ---------------------------------------------------------------------------
# sampling and step-size rules
# ---------------------------------------------------------------------------


def test_evolve_sampled_hits_times_exactly():
    space = HilbertSpace(n_qubits=0, mode_levels=(4,))
    h = TimeDependentHamiltonian(space, 1.3 * number_operator(4), (), 1.3, "diag")
    psi0 = np.ones(4, dtype=complex) / 2.0
    times = [0.0, 0.333, 0.9999, 2.5]
    states = streamed(h, psi0, times, 1e-3)
    for row, t in zip(states, times):
        expected = np.exp(-1j * 1.3 * np.arange(4) * t) * psi0
        assert np.max(np.abs(row - expected)) < 1e-10
    # t = 0 row is the initial state, bit for bit
    assert np.array_equal(states[0], psi0)


def test_exact_non_finite_state_names_the_sample_and_the_hamiltonian():
    """An exact run takes no step, so its error names none: H = diag(1e308,
    -1e308) is finite, but its phases overflow from t = 2 ns."""
    space = HilbertSpace(n_qubits=1)
    h = TimeDependentHamiltonian(space, np.diag([1e308, -1e308]), (), 1.0, "huge", np.zeros(2))
    psi0 = np.array([1.0, 0.0], dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(PreconditionError) as raised:
            streamed(h, psi0, [0.0, 1.0, 2.0, 3.0], exact=True)
    assert str(raised.value) == (
        "state stopped being finite by t = 2 ns; the Hamiltonian's entries are out of range"
    )


def test_evolve_sampled_rejects_non_finite_state():
    space = HilbertSpace(n_qubits=1)
    static = np.array([[np.inf, 0.0], [0.0, 0.0]], dtype=complex)
    h = TimeDependentHamiltonian(space, static, (), 1.0, "blown-up")
    psi0 = np.array([1.0, 0.0], dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(PreconditionError, match="finite"):
            streamed(h, psi0, [0.0, 0.5, 1.0], 1e-2)


@pytest.mark.parametrize(
    "t_final, sample_every",
    [(np.nan, 0.5), (np.inf, 0.5), (1.0, np.nan), (1.0, np.inf), (1.0, 0.0), (-1.0, 0.5)],
)
def test_run_rejects_a_bad_sample_grid(t_final, sample_every):
    with pytest.raises(ValueError, match="positive and finite"):
        run(reference_single(), "effective", t_final, sample_every, (6,))


def test_run_rejects_a_sample_grid_past_the_sample_limit():
    # 1e301 samples: refused by count, not left to numpy's allocation error
    with pytest.raises(ValueError, match="samples"):
        run(reference_single(), "effective", 1e300, 0.1, (6,))


def test_resolve_step_rules():
    space = HilbertSpace(n_qubits=1)
    h = TimeDependentHamiltonian(space, pauli("x"), (), TWO_PI, "toy")
    # default: a 64th of the fastest period (here: period = 1)
    assert resolve_step(h, None) == pytest.approx(1.0 / 64.0)
    # explicit finer step accepted verbatim
    assert resolve_step(h, 1e-3) == 1e-3
    # coarser than a 50th of the period: refused, not silently clamped
    with pytest.raises(PreconditionError, match="too coarse"):
        resolve_step(h, 0.5)
    # a step must be positive; NaN is not
    for dt in (-1.0, np.nan):
        with pytest.raises(ValueError, match="positive"):
            resolve_step(h, dt)


def test_segments_take_exactly_the_step_budget_and_refuse_one_step_more():
    """The budget is checked on the schedule's own step count, before any
    step is taken; dt = 2**-20 ns makes both one-segment counts exact."""
    dt = 2.0**-20
    starts, steps, sizes, ends = _segments(np.array([0.0, MAX_RK4_STEPS * dt]), dt)
    assert (starts.tolist(), steps.tolist(), sizes.tolist()) == ([0.0], [MAX_RK4_STEPS], [dt])
    assert ends.tolist() == [1]
    with pytest.raises(PreconditionError, match=r"dt = 9\.53674e-07 ns would take 100000001 RK4"):
        _segments(np.array([0.0, (MAX_RK4_STEPS + 1) * dt]), dt)


def test_trajectory_sample_grid_ends_at_t_final():
    circuit = reference_single()
    traj = run(circuit, "effective", 10.0, 0.3, (6,))
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 10.0
    assert np.all(np.diff(traj.times) > 0)


def test_repeat_runs_are_bit_identical():
    circuit = reference_single()
    a = run(circuit, "rotating", 2.0, 0.1, (6,))
    b = run(circuit, "rotating", 2.0, 0.1, (6,))
    assert np.array_equal(a.fidelity, b.fidelity)
    assert np.array_equal(a.norm, b.norm)
    assert np.array_equal(a.mode_occupation, b.mode_occupation)


# ---------------------------------------------------------------------------
# trajectory bookkeeping
# ---------------------------------------------------------------------------


def test_run_rejects_unknown_variant():
    circuit = reference_single()
    with pytest.raises(ValueError, match="variant"):
        run(circuit, "exact", 1.0, 0.5, (10,))


def test_an_unknown_convention_is_refused_before_any_build(monkeypatch):
    """run and sweep_drive_strength refuse a convention they do not know
    before the Hamiltonian builder runs, not after propagating."""

    def never(circuit, space):
        raise AssertionError("the builder ran")

    monkeypatch.setitem(_BUILDERS, "full", never)
    with pytest.raises(ValueError, match="convention 'bogus'"):
        run(reference_single(), "full", 0.5, 0.1, (10,), convention="bogus")
    with pytest.raises(ValueError, match="convention 'bogus'"):
        sweep_drive_strength(
            reference_single(), "full", [10.0, 20.0], (0.4, 0.5), 0.05, convention="bogus",
            workers=1,
        )


def test_run_rejects_a_fractional_fock_cutoff():
    """A cutoff of 10.7 is refused, not truncated to 10 levels."""
    with pytest.raises(ValueError, match="integers"):
        run(reference_single(), "effective", 1.0, 0.5, (10.7,))


def test_coupled_intermediate_converges_to_rotating():
    """Every variant runs on every layout.  At the coupled gate time the
    drive rotation is whole, so the interaction picture and the rotating
    frame give the same fidelity; at period/256 RK4 leaves them <= 1e-6
    apart (period/64 leaves ~1.6e-5)."""
    coupled = reference_coupled()
    t_gate = decoupling_time(coupled.loop_rate, 1)
    fastest = abs(coupled.rabi) + max(abs(d) for d in coupled.mode_detunings)
    dt = TWO_PI / fastest / 256
    fidelity = {
        variant: run(coupled, variant, t_gate, t_gate, (6, 6), dt=dt).final_fidelity
        for variant in ("rotating", "intermediate")
    }
    assert abs(fidelity["intermediate"] - fidelity["rotating"]) <= 1e-6


def test_auto_convention_tracks_detuning_sign():
    for sign, expected in ((-1.0, "i_power"), (+1.0, "plus_i")):
        circuit = reference_single(detuning_sign=sign)
        t_gate = decoupling_time(circuit.detuning, 1)
        traj = run(circuit, "effective", t_gate, 1.0, (8,))
        assert traj.convention == expected
        assert traj.final_fidelity > 0.999
        assert set(traj.fidelity_by_convention) == {"i_power", "plus_i"}
    # a pinned convention is honored even when it is the losing one
    circuit = reference_single()
    t_gate = decoupling_time(circuit.detuning, 1)
    pinned = run(circuit, "effective", t_gate, 1.0, (8,), convention="plus_i")
    assert pinned.convention == "plus_i"
    assert pinned.final_fidelity < 0.5


def test_trajectory_peak_properties():
    traj = Trajectory(
        times=np.array([0.0, 1.0, 2.0]),
        fidelity=np.array([0.2, 0.9, 0.4]),
        norm=np.ones(3),
        mode_occupation=np.zeros((3, 1)),
        label="toy",
        convention="i_power",
    )
    assert traj.peak_fidelity == 0.9
    assert traj.peak_time == 1.0
    assert traj.final_fidelity == 0.4


def test_ghz_fidelity_of_product_state():
    space = HilbertSpace(n_qubits=2, mode_levels=(3,))
    psi = ground_vacuum_state(space)
    target = ghz_target(2, "i_power")
    assert float(ghz_overlap(psi, space, target)) == pytest.approx(0.5, abs=1e-14)


def random_states(space, n_states, seed):
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(n_states, space.dim)) + 1j * rng.normal(size=(n_states, space.dim))
    return states / np.linalg.norm(states, axis=1, keepdims=True)


def test_ghz_fidelity_matches_the_partial_trace():
    for space in (
        HilbertSpace(n_qubits=2, mode_levels=(6,)),
        HilbertSpace(n_qubits=3, mode_levels=(4, 3)),
        HilbertSpace(n_qubits=2, mode_levels=(2, 3, 2)),
    ):
        for psi in random_states(space, 20, seed=space.dim):
            rho_q = partial_trace_modes(psi, space)
            for c in GHZ_CONVENTIONS:
                target = ghz_target(space.n_qubits, c)
                expected = np.real(np.vdot(target, rho_q @ target))
                assert abs(float(ghz_overlap(psi, space, target)) - expected) < 1e-14


def observe_by_sample(states, space):
    """Per-sample reference for _observe: dense number operators and one
    partial trace per state; returns fidelities, occupations, norms, winner."""
    targets = {c: ghz_target(space.n_qubits, c) for c in GHZ_CONVENTIONS}
    number_ops = [
        tocsr(embed(number_operator(space.mode_levels[m]), space.mode_factor(m), space))
        for m in range(space.n_modes)
    ]
    occupations = np.empty((len(states), space.n_modes))
    fids = {c: np.empty(len(states)) for c in GHZ_CONVENTIONS}
    for i, psi in enumerate(states):
        for m, n_op in enumerate(number_ops):
            occupations[i, m] = np.real(np.vdot(psi, n_op @ psi))
        rho_q = partial_trace_modes(psi, space)
        for c, tgt in targets.items():
            fids[c][i] = np.real(np.vdot(tgt, rho_q @ tgt))
    stacked = np.vstack([fids[c] for c in GHZ_CONVENTIONS])
    winner = GHZ_CONVENTIONS[int(np.argmax(stacked[:, int(np.argmax(stacked.max(axis=0)))]))]
    return fids, occupations, np.linalg.norm(states, axis=1), winner


def _sampled(builder, circuit, mode_levels, t_final, sample_every):
    space = HilbertSpace(n_qubits=circuit.n_qubits, mode_levels=mode_levels)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ApproximationWarning)
        h = builder(circuit, space)
    times = np.arange(0.0, t_final + 1e-12, sample_every)
    return streamed(h, ground_vacuum_state(space), times), space


OBSERVE_CASES = {
    "one-mode": lambda: _sampled(
        effective_hamiltonian, reference_single(), (10,), 10.0, 0.05
    ),
    "coupled-8x8": lambda: _sampled(
        effective_hamiltonian, reference_coupled(), (8, 8), 25.0, 0.25
    ),
    "three-mode": lambda: _sampled(
        rotating_frame_hamiltonian, three_mode_record(), (2, 3, 2), 3.0, 0.05
    ),
    "random-3q-2modes": lambda: (
        random_states(HilbertSpace(3, (4, 3)), 50, seed=1), HilbertSpace(3, (4, 3))
    ),
    "random-2q-3modes": lambda: (
        random_states(HilbertSpace(2, (3, 2, 4)), 50, seed=2), HilbertSpace(2, (3, 2, 4))
    ),
}


def observe_in_blocks(states, space, convention, size=16):
    """The Trajectory _observe gives, called once per block of size samples
    as a run calls it, then assembled by _observed."""
    observing = _observing(np.arange(len(states), dtype=float), space, "case")
    basis = _Basis(space)
    for first in range(0, len(states), size):
        _observe(states[first : first + size], basis, observing, first)
    return _observed(observing, convention)


@pytest.mark.parametrize("case", sorted(OBSERVE_CASES))
def test_observe_matches_the_per_sample_reference(case):
    states, space = OBSERVE_CASES[case]()
    fids, occupations, norms, winner = observe_by_sample(states, space)
    traj = observe_in_blocks(states, space, "auto")
    tol = dict(rtol=1e-12, atol=1e-14)
    for c in GHZ_CONVENTIONS:
        np.testing.assert_allclose(traj.fidelity_by_convention[c], fids[c], **tol)
        pinned = observe_in_blocks(states, space, c)
        np.testing.assert_allclose(pinned.fidelity, fids[c], **tol)
        assert pinned.convention == c
    np.testing.assert_allclose(traj.mode_occupation, occupations, **tol)
    np.testing.assert_allclose(traj.norm, norms, **tol)
    assert traj.convention == winner


@pytest.mark.parametrize("case", sorted(OBSERVE_CASES))
def test_observe_diagnostics_match_the_per_sample_reference(case):
    """max_norm_drift is the largest |norm - 1| and top_fock_population the
    largest <P_top> per mode over the samples, P_top the projector on the
    mode's top Fock level."""
    states, space = OBSERVE_CASES[case]()
    _, _, norms, _ = observe_by_sample(states, space)
    diagnostics = observe_in_blocks(states, space, "auto").diagnostics
    assert diagnostics["max_norm_drift"] == pytest.approx(np.max(np.abs(norms - 1.0)), abs=1e-14)
    top = []
    for m, levels in enumerate(space.mode_levels):
        projector = np.zeros((levels, levels))
        projector[-1, -1] = 1.0
        p_top = tocsr(embed(projector, space.mode_factor(m), space))
        top.append(max(np.real(np.vdot(psi, p_top @ psi)) for psi in states))
    np.testing.assert_allclose(diagnostics["top_fock_population"], top, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# drive-strength sweep and the worker pool
# ---------------------------------------------------------------------------


def test_sweep_orders_results_and_restricts_window():
    circuit = reference_single()
    mults = [10.0, 20.0]
    out = sweep_drive_strength(
        circuit, "effective", mults, window=(9.5, 10.0), window_sample_every=0.1,
        fock=(6,), workers=1,
    )
    assert len(out) == 2
    for traj, mult in zip(out, mults):
        assert f"rabi={mult * TWO_PI * 0.1:.9g}" in traj.label
        assert traj.times[0] == pytest.approx(9.5)
        assert traj.times[-1] == pytest.approx(10.0)


def test_sweep_workers_agree_with_serial():
    circuit = reference_single()
    mults = [5.0, 20.0]
    kw = dict(
        variant="effective", multipliers=mults, window=(9.0, 10.0),
        window_sample_every=0.25, fock=(6,),
    )
    serial = sweep_drive_strength(circuit, workers=1, **kw)
    pooled = sweep_drive_strength(circuit, workers=2, **kw)
    for a, b in zip(serial, pooled):
        assert a.label == b.label
        assert np.array_equal(a.fidelity, b.fidelity)


def test_sweep_validates_input():
    circuit = reference_single()
    with pytest.raises(ValueError):
        sweep_drive_strength(circuit, "effective", [], (9.0, 10.0), 0.1)
    with pytest.raises(ValueError):
        sweep_drive_strength(circuit, "effective", [5.0], (10.0, 9.0), 0.1)
    with pytest.raises(TypeError):
        sweep_drive_strength("circuit", "effective", [5.0], (9.0, 10.0), 0.1)


@pytest.mark.parametrize("multiplier", [np.nan, np.inf])
def test_sweep_rejects_a_non_finite_multiplier(multiplier):
    """A NaN or infinite multiplier makes a non-finite Omega_R, which the
    layout record refuses before any run."""
    with pytest.raises(ValueError, match="rabi must be finite"):
        sweep_drive_strength(
            reference_single(), "effective", [multiplier], (9.0, 10.0), 0.1, workers=1
        )


@pytest.mark.parametrize("window", [(0.0, np.inf), (0.0, 1e300)], ids=["infinite", "huge"])
def test_sweep_rejects_an_unbounded_window(window):
    with pytest.raises(ValueError, match="window"):
        sweep_drive_strength(reference_single(), "effective", [5.0], window, 0.1, workers=1)


@pytest.mark.parametrize("every", [0.0, np.nan, -0.1, np.inf])
def test_sweep_rejects_a_bad_window_sample_every(every):
    with pytest.raises(ValueError, match="window_sample_every"):
        sweep_drive_strength(reference_single(), "effective", [5.0], (9.0, 10.0), every, workers=1)


def test_worker_count_rules():
    assert worker_count() == (os.cpu_count() or 1)
    assert worker_count(3) == 3
    assert worker_count(8, n_tasks=2) == 2
    with pytest.raises(ValueError):
        worker_count(0)


# ---------------------------------------------------------------------------
# the rotating frame against the laboratory frame
# ---------------------------------------------------------------------------


def lab_frame_overlap(circuit, amplitude, fock_cutoff, t_final, full=full_simulation_hamiltonian):
    """Overlap and aligned norm difference of two runs of one qubit on one
    TLR, from ground and vacuum, at t_final.

    The lab-frame run under the resonator tone starts displaced by D(beta0),
    beta0 = -amplitude/delta; its end state is displaced back by
    D(-beta(t)), beta(t) = beta0 e^{-i omega_d t}, taken to the energy
    eigenbasis and un-rotated at omega_d.  The other run is ``full`` with
    the equivalent qubit drive.
    """
    space = HilbertSpace(n_qubits=1, mode_levels=(fock_cutoff,))
    a = annihilation(fock_cutoff)

    def displace(beta):
        return tocsr(embed(expm(beta * a.conj().T - np.conj(beta) * a), 1, space))

    qubit_map = tocsr(embed(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), 0, space))
    ground = ground_vacuum_state(space)
    beta0 = -amplitude / circuit.detuning
    h_lab = lab_frame_hamiltonian(circuit, amplitude, space)
    psi_lab = streamed(h_lab, displace(beta0) @ (qubit_map @ ground), [t_final])[-1]
    beta_t = beta0 * np.exp(-1j * circuit.omega_d * t_final)
    psi_disp = qubit_map @ (displace(-beta_t) @ psi_lab)
    # undo the omega_d rotation of mode and qubit, generated by omega_d (n + sigma_z/2)
    generator = tocsr(assemble(
        space, [(1.0, {1: number_operator(fock_cutoff)}), (0.5, {0: pauli("z")})]
    ))
    psi_rot = np.exp(1j * (circuit.omega_d * generator).diagonal() * t_final) * psi_disp

    driven, _ = qubit_drive_from_resonator_drive(circuit, amplitude)
    psi_full = streamed(full(driven, space), ground, [t_final])[-1]
    phase = np.vdot(psi_rot, psi_full)
    return abs(phase) ** 2, float(np.linalg.norm(psi_full - psi_rot * phase / abs(phase)))


def one_qubit_lab_circuit():
    """One qubit, delta = -2pi*0.1, g = 2pi*0.05, no qubit drive yet."""
    return SingleTlrCircuit(
        omega_r=TWO_PI * 10.0,
        qubits=(QubitSpec(gap=TWO_PI * 10.1, coupling=TWO_PI * 0.05),),
        omega_d=TWO_PI * 10.1,
    )


def test_frame_consistency_single_qubit():
    circuit = one_qubit_lab_circuit()
    driven, mapping = qubit_drive_from_resonator_drive(circuit, TWO_PI * 0.05)
    assert mapping.displacement_magnitude == pytest.approx(0.5, rel=1e-12)
    assert driven.rabi == pytest.approx(TWO_PI * 0.05, rel=1e-12)
    overlap, norm_difference = lab_frame_overlap(circuit, TWO_PI * 0.05, 12, 2.0)
    assert overlap > 0.9999
    assert norm_difference < 0.01


def test_lab_frame_turns_the_counter_rotating_coupling_at_twice_the_drive():
    """With the counter-rotating coupling of ``full`` re-tagged from
    omega + omega_d to 2 omega_d the lab frame agrees to truncation and step
    error: the qubit and the displaced mode both rotate at omega_d."""

    def full_at_twice_the_drive(circuit, space):
        h = full_simulation_hamiltonian(circuit, space)
        terms = tuple((m, 2.0 * circuit.omega_d) for m, _ in h.terms)
        return TimeDependentHamiltonian(space, h.static, terms, 2.0 * circuit.omega_d, h.label)

    overlap, _ = lab_frame_overlap(
        one_qubit_lab_circuit(), TWO_PI * 0.05, 12, 2.0, full=full_at_twice_the_drive
    )
    assert abs(1.0 - overlap) < 1e-9
