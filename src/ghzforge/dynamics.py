"""Schrodinger-equation propagation and fidelity trajectories.

One rule picks the space and the propagator.  A run whose Hamiltonian is
unchanged by exchanging two qubits (with the mode signs, and the frame, of
model.exchange_sector) runs in the exchange-even sector, which holds the
ground-vacuum start state: the coupled-pair gate at dimension 128 instead
of 256, the effective gate at 30 instead of 40.  The propagated
Hamiltonian then picks the propagator: one that declares a frame K (see
TimeDependentHamiltonian; 'rotating' and 'effective') is static in it,
H(t) = e^{iKt} H_F e^{-iKt}, and is propagated exactly and in that frame,
V e^{-iEt} V^dag psi0 from one dense eigendecomposition H_F = V E V^dag,
with no time step and one cos and one sin of the real angles -Et.
Dense eigh grows as the cube of the dimension: a 25 ns coupled run takes
about 0.05 s at Fock 16 x 16 (a sector of 512) and 0.35 s at 16 x 32
(one BLAS thread, 2-vCPU Xeon host).
'full' and 'intermediate', whose H really depends on time, take RK4.
resolve_step validates dt on both paths.

RK4 integrates d|psi>/dt = -i H(t) |psi> with the step size tied to the
fastest angular frequency the Hamiltonian builder declares: default
dt = (2 pi / omega_fastest)/64, and anything coarser than
(2 pi / omega_fastest)/50 is rejected outright.  Fixed stepping keeps
trajectories bit-reproducible, which the CSV regression harness relies on.
Each sample segment's step count and uniformly shrunk step are fixed up
front, in one schedule built inside the run's build timing.  The run walks
it one block of _SAMPLES_PER_PRODUCT samples at a time, and tabulates the
block weights at the half-step times per chunk of at most _STEPS_PER_TABLE
steps, across segment boundaries inside a block, each stage's row scaled
by its step factor alpha = h/2, h/2, h, h/6.  -i H(t) v is the CSR block row
[static | M_j | M_j^dag] times the outer product (weights (x) v), so a
stage is one outer product and one sparse product, by the kernel behind
``block_row @ x``, yielding t_i = alpha_i k_i; the stage inputs are
y + t_i and the update is y += (t1 + 2 t2 + t3) / 3 + t4, all in place.
The block row, and scipy.sparse with it, is built inside the run's build
timing, by RK4 runs only: an exact run needs numpy alone.  Whether the
state is still finite is checked once per chunk and before each block.

Fidelity against the GHZ target is evaluated for both phase conventions at
every sample; the trajectory keeps the pointwise maximum and records which
convention won at the peak.  The produced phase depends on the sign of the
detuning and the elapsed drive rotation, so fixing one convention a priori
would report ~0 fidelity for a perfectly good GHZ state half the time.

Observation takes one block of _SAMPLES_PER_PRODUCT samples at a time, as
either propagator yields it, in the basis and frame it was propagated in,
through one small table per run (_Basis), so a run holds one block's
states and never lifts them; every sum runs along one sample, so block
size moves no bit.  The diagnostics are the largest |norm - 1| and, per
mode, the running maximum of the population of its top Fock level, which
flags truncation.

Drive-strength sweeps fan out across a process pool (size from the
``workers`` argument, else the CPU count; multiprocessing is imported only
for more than one worker); results are ordered by multiplier index
regardless of completion order.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .analytic import GHZ_CONVENTIONS, ghz_target
from .errors import PreconditionError
from .model import (
    TimeDependentHamiltonian,
    effective_hamiltonian,
    exchange_sector,
    full_simulation_hamiltonian,
    interaction_picture_hamiltonian,
    rotating_frame_hamiltonian,
)
from .operators import HilbertSpace

__all__ = [
    "VARIANTS",
    "Trajectory",
    "ground_vacuum_state",
    "resolve_step",
    "run",
    "sweep_drive_strength",
]

DEFAULT_STEP_DIVISOR = 64
MINIMUM_STEP_DIVISOR = 50
_STEPS_PER_TABLE = 4096  # steps per phase table: bounds its memory on long runs
_SAMPLES_PER_PRODUCT = 256  # samples per block: bounds a run's states and temporaries
MAX_SAMPLES = 2**21  # per trajectory: about 80 B a sample, 90 B with RK4's step schedule
MAX_RK4_STEPS = 10**8  # per run: at 30-45 us a step, about an hour

# Every variant maps to a builder, and every layout accepts every variant.
_BUILDERS = {
    "full": full_simulation_hamiltonian,
    "rotating": rotating_frame_hamiltonian,
    "intermediate": interaction_picture_hamiltonian,
    "effective": effective_hamiltonian,
}
VARIANTS = tuple(_BUILDERS)


@dataclass
class Trajectory:
    """Sampled observables from one integration run."""

    times: np.ndarray
    fidelity: np.ndarray
    norm: np.ndarray
    mode_occupation: np.ndarray  # shape (n_samples, n_modes)
    label: str
    convention: str
    fidelity_by_convention: dict[str, np.ndarray] = field(default_factory=dict)
    propagator: str = "exact"  # "exact" (one eigh) or "rk4"
    steps: int = 0  # RK4 steps taken; 0 for an exact run
    dim: int = 0  # of the Hilbert space
    timings_ms: dict[str, float] = field(default_factory=dict)  # build, propagate, observe
    # max_norm_drift, max |norm - 1|; top_fock_population, per mode the
    # largest population of its top Fock level at any sample (truncation);
    # propagated_dim (the exchange sector's or dim), dt, the propagated
    # block row's nnz, and approximation_warnings, the messages of the
    # ApproximationWarnings the builder raised
    diagnostics: dict = field(default_factory=dict)

    @property
    def peak_fidelity(self) -> float:
        return float(np.max(self.fidelity))

    @property
    def peak_time(self) -> float:
        return float(self.times[int(np.argmax(self.fidelity))])

    @property
    def final_fidelity(self) -> float:
        return float(self.fidelity[-1])


def ground_vacuum_state(space: HilbertSpace) -> np.ndarray:
    """All qubits in the energy ground state, all modes in vacuum."""
    index = np.ravel_multi_index(
        (1,) * space.n_qubits + (0,) * space.n_modes, space.dims
    )
    psi = np.zeros(space.dim, dtype=complex)
    psi[index] = 1.0
    return psi


def resolve_step(hamiltonian: TimeDependentHamiltonian, dt: float | None) -> float:
    """Step size for this Hamiltonian, enforcing the fastest-frequency rule.

    dt = None picks (2 pi / omega_fastest) / 64 from the Hamiltonian's
    declared fastest frequency; an explicit dt must be positive and no
    coarser than a 50th of that period.  The state is never renormalized
    in flight: norm drift is a diagnostic we want to see, not hide.
    """
    period = 2.0 * np.pi / hamiltonian.fastest_frequency
    if dt is None:
        return period / DEFAULT_STEP_DIVISOR
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    limit = period / MINIMUM_STEP_DIVISOR
    if dt > limit:
        raise PreconditionError(
            f"dt = {dt:g} ns too coarse for fastest frequency "
            f"{hamiltonian.fastest_frequency:g} rad/ns (limit {limit:g} ns, "
            f"= period/{MINIMUM_STEP_DIVISOR})"
        )
    return dt


def _segments(samples: np.ndarray, dt: float):
    """The run's step schedule: one (start, steps, step size, sample) per segment.

    Segment k starts at starts[k] and takes steps[k] RK4 steps of sizes[k]
    to reach sample ends[k] exactly (the step is shrunk uniformly inside a
    segment, so sampling never perturbs the grid elsewhere).  A sample no
    more than 1e-15 ns past the time already reached opens no segment: it
    takes the state reached, and the next segment still starts there.
    A schedule of more than MAX_RK4_STEPS steps raises PreconditionError.
    """
    # the time reached is never past the sample before, so a sample more than
    # 1e-15 ns past that one surely opens a segment; sure: the time those reach
    opens = np.diff(samples, prepend=0.0) > 1e-15
    close = np.flatnonzero(~opens)
    sure = np.maximum.accumulate(np.where(opens, samples, 0.0))[close]
    t_now = 0.0  # reached by the close samples that opened a segment
    for idx, t_sure, t_target in zip(close.tolist(), sure.tolist(), samples[close].tolist()):
        if t_target - max(t_sure, t_now) > 1e-15:
            opens[idx], t_now = True, t_target
    ends = np.flatnonzero(opens)
    reached = np.concatenate([[0.0], samples[ends]])  # before each segment, then at its end
    starts, spans = reached[:-1], np.diff(reached)
    with np.errstate(over="ignore"):  # a subnormal dt gives inf
        steps = np.maximum(1.0, np.ceil(spans / dt - 1e-12))
    total = steps.sum()
    if not total <= MAX_RK4_STEPS:
        raise PreconditionError(
            f"dt = {dt:g} ns would take {total:.9g} RK4 steps; the budget is {MAX_RK4_STEPS}"
        )
    return starts, steps.astype(np.int64), spans / steps, ends


def _accumulate(block_row):
    """kernel(x, y): y += block_row @ x, in place.

    The kernel is the one ``block_row @ x`` itself calls (SciPy's
    csr_matvec, into a zeroed result), without the public operator's
    checks and result allocation.
    """
    from scipy.sparse._sparsetools import csr_matvec  # the kernel behind csr @ vector

    m = block_row
    return partial(csr_matvec, *m.shape, m.indptr, m.indices, m.data)


def _require_finite(states: np.ndarray, first: int, samples: np.ndarray, cause: str) -> None:
    """Raise at the first non-finite row of states, which hold samples[first:]."""
    if np.isfinite(states).all():
        return
    t_target = samples[first + int(np.argmin(np.isfinite(states).all(axis=1)))]
    raise PreconditionError(
        f"state stopped being finite by t = {t_target:g} ns; {cause} out of range"
    )


def _rk4_blocks(hamiltonian: TimeDependentHamiltonian, psi0, samples, dt, schedule):
    """RK4 from psi0 at t = 0 as a stream: yields (first, states), the states at
    samples[first : first + len(states)], in one buffer of at most
    _SAMPLES_PER_PRODUCT rows, reused.  samples are finite, non-decreasing and
    non-negative, dt is resolve_step's and schedule is _segments(samples, dt).
    Raises PreconditionError at the first sample whose state is not finite."""
    y = psi0.copy()
    block_row = hamiltonian.block_row
    kernel = _accumulate(block_row)
    outer = np.empty((block_row.shape[1] // y.size, y.size), dtype=complex)  # w (x) v
    x, u = outer.reshape(-1), np.empty_like(y)
    t = np.empty((4, y.size), dtype=complex)
    t1, t2, t3, t4 = t  # t_i = alpha_i k_i, alpha = (h/2, h/2, h, h/6)

    starts, steps, sizes, ends = schedule
    first_step = np.concatenate([[0], np.cumsum(steps)])  # of each segment, run-wide
    block = np.empty((min(samples.size, _SAMPLES_PER_PRODUCT), y.size), dtype=complex)
    cause = f"the step {dt:g} ns or the Hamiltonian's entries are"
    for first in range(0, samples.size, len(block)):
        states = block[: samples.size - first]
        # the steps of the segments that end in this block's rows
        done, last = first_step[np.searchsorted(ends, [first, first + len(states)])].tolist()
        filled = checked = 0  # rows of states stored, and checked
        for g0 in range(done, last, _STEPS_PER_TABLE):
            # step s of segment k reads the weights at starts[k] + (h/2) j for
            # j = 2s, 2s+1, 2s+2, h = sizes[k]: one table for the whole chunk;
            # stages 1-4 take its rows j = 2s, 2s+1, 2s+1, 2s+2 times alpha_i
            g = np.arange(g0, min(g0 + _STEPS_PER_TABLE, last))
            seg = np.searchsorted(first_step, g, side="right") - 1
            local = g - first_step[seg]
            h = sizes[seg]
            phases = hamiltonian.coefficients(
                starts[seg, None] + (0.5 * h[:, None]) * (2 * local[:, None] + np.arange(3))
            )
            alphas = np.stack([0.5 * h, 0.5 * h, h, h / 6.0], axis=1)[..., None]
            weights = np.empty((g.size, 4, phases.shape[2], 1), dtype=complex)
            np.multiply(phases[:, :2], alphas[:, :2], out=weights[:, :2, :, 0])
            np.multiply(phases[:, 1:], alphas[:, 2:], out=weights[:, 2:, :, 0])
            # a segment's first step stores the state before it in the rows up to
            # the segment's end; 0 where a step opens no segment
            fills = np.where(local == 0, ends[seg] - first, 0).tolist()
            with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
                for w1, w2, w3, w4, fill in zip(*weights.swapaxes(0, 1), fills):
                    if fill:
                        states[filled:fill] = y
                        filled = fill
                    t.fill(0.0)
                    np.multiply(w1, y, out=outer)
                    kernel(x, t1)
                    np.add(y, t1, out=u)
                    np.multiply(w2, u, out=outer)
                    kernel(x, t2)
                    np.add(y, t2, out=u)
                    np.multiply(w3, u, out=outer)
                    kernel(x, t3)
                    np.add(y, t3, out=u)
                    np.multiply(w4, u, out=outer)
                    kernel(x, t4)
                    # y += (t1 + 2 t2 + t3) / 3 + t4, summed left to right
                    np.add(t2, t2, out=t2)
                    np.add(t1, t2, out=t1)
                    np.add(t1, t3, out=t1)
                    np.multiply(t1, 1.0 / 3.0, out=t1)
                    np.add(t1, t4, out=t1)
                    np.add(y, t1, out=y)
            # a blown-up run stops within the chunk that stored its first non-finite sample
            _require_finite(states[checked:filled], first + checked, samples, cause)
            checked = filled
        states[filled:] = y
        _require_finite(states[checked:], first + checked, samples, cause)
        yield first, states


def _exact_blocks(hamiltonian: TimeDependentHamiltonian, psi0, samples):
    """_rk4_blocks' stream for a Hamiltonian that declares a frame K, in that frame:
    V e^{-iEt} V^dag psi0, H_F = K + H(0) = V E V^dag from one dense eigh, then one
    matrix product per block into buffers made once.  Raises PreconditionError if
    H_F or an angle -Et is not finite (finite angles give finite states)."""
    h = hamiltonian(0.0)
    h[np.diag_indices_from(h)] += hamiltonian.frame
    if not np.isfinite(h).all():
        raise PreconditionError(f"{hamiltonian.label} has entries that are not finite")
    energies, vectors = np.linalg.eigh(h if h.imag.any() else h.real)
    amplitudes = vectors.conj().T @ psi0
    rates, vt = -energies, np.ascontiguousarray(vectors.T, dtype=complex)  # cast once
    rows = min(samples.size, _SAMPLES_PER_PRODUCT)
    angles = np.empty((rows, rates.size))
    table = np.empty((rows, rates.size), dtype=complex)
    block = np.empty((rows, psi0.size), dtype=complex)
    for first in range(0, samples.size, rows):
        t = samples[first : first + rows, None]
        theta, phases, states = angles[: t.size], table[: t.size], block[: t.size]
        with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
            np.multiply(t, rates, out=theta)
        _require_finite(theta, first, samples, "the Hamiltonian's entries are")
        np.cos(theta, out=phases.real)
        np.sin(theta, out=phases.imag)
        np.multiply(phases, amplitudes, out=phases)
        np.matmul(phases, vt, out=states)
        yield first, states


class _Basis:
    """What _observe reads of the basis a run is propagated in: the exchange
    sector's columns, else the basis states.  Per mode configuration m:
    ``ghz``, the columns of |g..g,m> and |e..e,m>; ``coefficients[c]``,
    <target_c| times their entries in V (0 off the sector).  An exact run's
    states lack the frame's diagonal e^{iKt}, which no norm or population
    sees and a GHZ overlap sees only through K(|e..e,m>) - K(|g..g,m>):
    ``turning`` holds the m where that is not 0, and ``level_of`` their
    index in ``levels``, the distinct ones.  ``counts`` has a row per real
    and per imaginary part of each column's amplitude: the photon number of
    each mode, whether each mode is in its top Fock level, and 1 (the states
    of a sector column share them)."""

    def __init__(self, space: HilbertSpace, sector=None, frame=None):
        configurations = space.dim >> space.n_qubits
        # |g..g,m> and |e..e,m>: qubit index 1 is the ground state
        states = np.array([[space.dim - configurations], [0]]) + np.arange(configurations)
        if sector is None:
            self.ghz, weights, first = states, np.ones(states.shape), np.arange(space.dim)
        else:
            self.ghz, weights, first = sector.column[states], sector.weight[states], sector.rows
        targets = np.array([ghz_target(space.n_qubits, c)[[-1, 0]] for c in GHZ_CONVENTIONS])
        self.coefficients = targets.conj()[:, :, None] * weights
        photons = np.array(np.unravel_index(first, space.dims)[space.n_qubits :])
        top = photons == np.array(space.mode_levels)[:, None] - 1
        counts = np.concatenate([photons, top, np.ones((1, first.size))]).T
        self.counts = np.repeat(counts, 2, axis=0)
        self.turning = self.levels = self.level_of = np.zeros(0, dtype=int)
        if frame is not None:
            with np.errstate(over="ignore"):  # an infinite level fails _observe's check
                relative = frame[states[1]] - frame[states[0]]
            self.turning = np.flatnonzero(relative)
            if self.turning.size:
                self.levels, self.level_of = np.unique(relative[self.turning], return_inverse=True)


def _observing(times: np.ndarray, space: HilbertSpace, label: str) -> Trajectory:
    """A Trajectory whose per-sample arrays _observe fills, block by block."""
    n, modes = times.size, space.n_modes
    return Trajectory(
        times=times, fidelity=np.empty(0), norm=np.empty(n), label=label, convention="auto",
        mode_occupation=np.empty((n, modes)),
        fidelity_by_convention={c: np.empty(n) for c in GHZ_CONVENTIONS},
        diagnostics={"top_fock_population": np.zeros(modes)},  # running maxima
    )


def _observe(states: np.ndarray, basis: _Basis, into: Trajectory, first: int) -> None:
    """Write the fidelities, norms and occupations of a block of states in the
    basis, samples first, first + 1, ... of into, and raise into's running
    top-level maxima.  A fidelity is sum_m |<GHZ|psi[:, m]>|^2 over the
    (qubit, mode) split, the |e..e,m> amplitudes turned by e^{i level t}."""
    rows = slice(first, first + len(states))
    # (samples, configurations) each, in C order: a row's sum over them is contiguous
    g, e = (np.take(states, columns, axis=1) for columns in basis.ghz)
    if basis.turning.size:
        with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
            angles = into.times[rows, None] * basis.levels
        _require_finite(angles, first, into.times, "the Hamiltonian's entries are")
        e[:, basis.turning] *= (np.cos(angles) + 1j * np.sin(angles))[:, basis.level_of]
    for c, (a, b) in zip(GHZ_CONVENTIONS, basis.coefficients):
        amplitudes = g * a
        amplitudes += e * b
        overlaps = np.abs(amplitudes)
        into.fidelity_by_convention[c][rows] = np.square(overlaps, out=overlaps).sum(axis=1)
    squares = np.square(np.ascontiguousarray(states).view(float))  # |psi|^2 in two parts
    sums = (squares[:, None] @ basis.counts)[:, 0]  # a product per row: no block-size bits
    top = into.diagnostics["top_fock_population"]
    into.mode_occupation[rows] = sums[:, : top.size]
    np.maximum(top, sums[:, top.size : -1].max(axis=0), out=top)
    into.norm[rows] = np.sqrt(sums[:, -1])


def _observed(observing: Trajectory, convention: str) -> Trajectory:
    """The observed Trajectory: its fidelity and winning convention, and its diagnostics."""
    fids = observing.fidelity_by_convention
    if convention == "auto":
        stacked = np.vstack([fids[c] for c in GHZ_CONVENTIONS])
        fidelity = stacked.max(axis=0)
        winner = GHZ_CONVENTIONS[int(np.argmax(stacked[:, np.argmax(fidelity)]))]
    else:
        fidelity, winner = fids[convention], convention
    drift = float(np.max(np.abs(observing.norm - 1.0)))
    top = observing.diagnostics["top_fock_population"].tolist()
    diagnostics = {"max_norm_drift": drift, "top_fock_population": top}
    return replace(observing, fidelity=fidelity, convention=winner, diagnostics=diagnostics)


def _check_choices(variant: str, convention: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if convention != "auto" and convention not in GHZ_CONVENTIONS:
        raise ValueError(f"unknown GHZ phase convention {convention!r}")


def _sample_count(span: float, every: float, what: str) -> int:
    count = span / every
    if not count < MAX_SAMPLES:
        raise ValueError(f"{what} gives {count:.3g} samples; the limit is {MAX_SAMPLES}")
    return int(np.floor(count + 1e-9))


def _sample_grid(t_final: float, sample_every: float) -> np.ndarray:
    if not (0 < t_final < math.inf and 0 < sample_every < math.inf):
        raise ValueError("t_final and sample_every must be positive and finite")
    n = _sample_count(t_final, sample_every, "t_final / sample_every")
    times = np.arange(n + 1) * sample_every
    if times[-1] < t_final - 1e-9 * max(1.0, t_final):
        times = np.append(times, t_final)
    else:
        times[-1] = t_final
    return times


def _trajectory(circuit, variant, times, fock_cutoffs, dt, convention) -> Trajectory:
    _check_choices(variant, convention)
    ticks = [time.perf_counter()]
    space = HilbertSpace(n_qubits=circuit.n_qubits, mode_levels=tuple(fock_cutoffs))
    hamiltonian = _BUILDERS[variant](circuit, space)
    sector = exchange_sector(hamiltonian, circuit.coupling_matrix)
    propagated = hamiltonian if sector is None else sector.hamiltonian
    psi0 = ground_vacuum_state(space)
    if sector is not None:  # the ground-vacuum state lies in every exchange sector
        psi0 = sector.reduce(psi0)
    step = resolve_step(hamiltonian, dt)
    if propagated.frame is None:  # RK4's block row (and scipy.sparse) and schedule count as build
        propagated.block_row
        schedule = _segments(times, step)
        propagator, steps = "rk4", int(schedule[1].sum())
        stream = _rk4_blocks(propagated, psi0, times, step, schedule)
        del schedule  # the stream lets it go when it ends, before the run is summed up
    else:
        propagator, steps, stream = "exact", 0, _exact_blocks(propagated, psi0, times)
    basis = _Basis(space, sector, hamiltonian.frame)
    ticks.append(time.perf_counter())
    observing, observe_s = _observing(times, space, hamiltonian.label), 0.0
    for first, states in stream:
        tick = time.perf_counter()
        _observe(states, basis, observing, first)
        observe_s += time.perf_counter() - tick
    ticks.append(time.perf_counter())
    trajectory = _observed(observing, convention)
    build, loop = (1e3 * np.diff(ticks)).tolist()
    timings = {"build": build, "propagate": loop - 1e3 * observe_s, "observe": 1e3 * observe_s}
    diagnostics = {
        **trajectory.diagnostics,
        "propagated_dim": propagated.space.dim,
        "dt": step,
        "nnz": propagated.nnz,
        "approximation_warnings": list(hamiltonian.warned),
    }
    return replace(
        trajectory,
        propagator=propagator,
        steps=steps,
        dim=space.dim,
        timings_ms=timings,
        diagnostics=diagnostics,
    )


def run(
    circuit,
    variant: str,
    t_final: float,
    sample_every: float,
    fock_cutoffs,
    dt: float | None = None,
    convention: str = "auto",
) -> Trajectory:
    """Fidelity trajectory of a layout record, sampled every sample_every.

    variant picks the Hamiltonian among VARIANTS, for any layout: 'full'
    (counter-rotating terms kept), 'rotating' (static RWA form),
    'intermediate' (interaction picture with the drive-oscillating error
    terms), 'effective' (strong-driving limit).  fock_cutoffs holds one
    Fock truncation per mode: (n,) for one resonator, (n_P, n_Q) for the
    coupled pair's normal modes.  t_final and sample_every must be positive
    and finite.  dt is the RK4 step, checked by resolve_step: 'rotating' and
    'effective' runs, which declare a frame, are propagated exactly, so
    there dt takes no steps; the trajectory's ``propagator`` and ``steps``
    say which path ran, and its ``diagnostics`` the dimension it ran in.
    """
    times = _sample_grid(t_final, sample_every)
    return _trajectory(circuit, variant, times, fock_cutoffs, dt, convention)


# ---------------------------------------------------------------------------
# drive-strength sweep
# ---------------------------------------------------------------------------


def _sweep_point(args):
    (circuit, variant, window_times, fock, dt, convention) = args
    traj = _trajectory(circuit, variant, window_times, fock, dt, convention)
    traj.label = f"{traj.label}:rabi={circuit.rabi:.9g}"
    return traj


def worker_count(requested: int | None = None, n_tasks: int | None = None) -> int:
    """Process-pool size: explicit argument, else CPU count."""
    if requested is None:
        requested = os.cpu_count() or 1
    if requested < 1:
        raise ValueError("worker count must be >= 1")
    if n_tasks is not None:
        requested = min(requested, n_tasks)
    return requested


def sweep_drive_strength(
    circuit,
    variant: str,
    multipliers,
    window: tuple[float, float],
    window_sample_every: float,
    fock=(10,),
    dt: float | None = None,
    convention: str = "auto",
    workers: int | None = None,
) -> list[Trajectory]:
    """One trajectory per Rabi amplitude, sampled densely inside a time window.

    The drive amplitude at each point is multiplier x circuit.loop_rate
    (|delta| for one resonator, max |J_rs| otherwise); fock holds one
    Fock cutoff per mode, as in :func:`run`.
    Each run still starts at t = 0; only the sampling is restricted to the
    window, dense enough to expose the fast fidelity oscillation at the
    drive frequency.  Results are ordered like the multipliers regardless
    of worker completion order.
    """
    _check_choices(variant, convention)
    multipliers = list(multipliers)
    if not multipliers:
        raise ValueError("multiplier list must not be empty")
    lo, hi = window
    if not 0 <= lo < hi < math.inf:
        raise ValueError("window must satisfy 0 <= start < end < inf")
    try:
        base = circuit.loop_rate
    except AttributeError:
        raise TypeError("circuit must be a layout record with a loop_rate") from None
    if not 0 < window_sample_every < math.inf:
        raise ValueError(f"window_sample_every must be positive and finite: {window_sample_every}")
    n_window = _sample_count(hi - lo, window_sample_every, "window / window_sample_every")
    window_times = lo + np.arange(n_window + 1) * window_sample_every
    tasks = [
        (replace(circuit, rabi=float(mult) * base), variant, window_times, fock, dt, convention)
        for mult in multipliers
    ]
    n_workers = worker_count(workers, len(tasks))
    if n_workers == 1:
        return [_sweep_point(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(_sweep_point, tasks))

