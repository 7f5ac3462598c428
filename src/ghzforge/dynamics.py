"""Schrodinger-equation propagation and fidelity trajectories.

One rule picks the space and the propagator.  A run whose Hamiltonian is
unchanged by exchanging two qubits (with the mode signs, and the frame, of
model.exchange_sector) runs in the exchange-even sector, which holds the
ground-vacuum start state; its states are lifted back by V before they
are observed.  The coupled-pair gate runs at dimension 128 instead of
256, the effective gate at 30 instead of 40.  The propagated Hamiltonian
then picks the propagator: one that declares a frame K (see
TimeDependentHamiltonian; 'rotating' and 'effective') is static in it,
H(t) = e^{iKt} H_F e^{-iKt}, and is propagated exactly,
psi(t) = e^{iKt} V e^{-iEt} V^dag psi0 from one dense eigendecomposition
H_F = V E V^dag, with no time step; the phase tables come from one cos
and one sin of the real angles, e^{iKt} on K's distinct levels only.
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
front, and the block weights are tabulated at the half-step times once
per chunk of _STEPS_PER_TABLE steps, each stage's row scaled by its step
factor alpha = h/2, h/2, h, h/6.  -i H(t) v is the CSR block row
[static | M_j | M_j^dag] times the outer product (weights (x) v), so a
stage is one outer product and one sparse product, by the kernel behind
``block_row @ x``, yielding t_i = alpha_i k_i; the stage inputs are
y + t_i and the update is y += (t1 + 2 t2 + t3) / 3 + t4, all in place.
The block row, and scipy.sparse with it, is built inside the run's build
timing, by RK4 runs only: an exact run needs numpy alone.  Whether the
state is still finite is checked once per chunk.

Fidelity against the GHZ target is evaluated for both phase conventions at
every sample; the trajectory keeps the pointwise maximum and records which
convention won at the peak.  The produced phase depends on the sign of the
detuning and the elapsed drive rotation, so fixing one convention a priori
would report ~0 fidelity for a perfectly good GHZ state half the time.

Observation is one array pass over the (samples, dim) states: a fidelity
is sum_m |<GHZ|psi[:, m]>|^2 over the (qubit, mode) split of each state, a
mode occupation is the photon-number marginal of |psi|^2, and neither a
density matrix nor a dense number operator is formed.  The same pass
yields the run's diagnostics: the largest |norm - 1| and, per mode, the
largest population of its top Fock level, which flags truncation.

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
    "ghz_fidelity",
    "resolve_step",
    "evolve_sampled",
    "propagate_exactly",
    "run",
    "sweep_drive_strength",
]

DEFAULT_STEP_DIVISOR = 64
MINIMUM_STEP_DIVISOR = 50
_STEPS_PER_TABLE = 4096  # steps per phase table: bounds its memory on long runs
_SAMPLES_PER_PRODUCT = 256  # samples per exact product: bounds its temporaries
MAX_SAMPLES = 2**24  # per trajectory: each sample stores at least one amplitude

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


def _ghz_overlap(states: np.ndarray, space: HilbertSpace, target: np.ndarray) -> np.ndarray:
    """<target| Tr_modes |psi><psi| |target> for each state of a (..., dim) array.

    Writing psi as a (qubit, mode) matrix A, the reduced state is A A^dag, so
    the fidelity is sum_m |<target|A[:, m]>|^2; no density matrix is formed.
    """
    q = 2**space.n_qubits
    states = np.asarray(states)
    amplitudes = np.conj(target) @ states.reshape(*states.shape[:-1], q, space.dim // q)
    return np.sum(np.abs(amplitudes) ** 2, axis=-1)


def ghz_fidelity(psi: np.ndarray, space: HilbertSpace, target: np.ndarray) -> float:
    """F = <target| Tr_modes |psi><psi| |target>, real in [0, 1]."""
    return float(_ghz_overlap(psi, space, target))


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
    A step so small that the step count could leave int64 raises
    PreconditionError.
    """
    with np.errstate(over="ignore"):  # a subnormal dt gives inf
        bound = samples[-1] / dt + samples.size  # no less than the run's step count
    if not bound < 2.0**62:
        raise PreconditionError(f"dt = {dt:g} ns would take {bound:.3g} RK4 steps, over 2**62")
    starts, steps, sizes, ends = [], [], [], []
    t_now = 0.0
    for idx, t_target in enumerate(samples.tolist()):
        span = t_target - t_now
        if span > 1e-15:
            n_steps = max(1, math.ceil(span / dt - 1e-12))
            starts.append(t_now)
            steps.append(n_steps)
            sizes.append(span / n_steps)
            ends.append(idx)
            t_now = t_target
    return (
        np.array(starts, dtype=float),
        np.array(steps, dtype=np.int64),
        np.array(sizes, dtype=float),
        np.array(ends, dtype=np.int64),
    )


def _accumulate(block_row):
    """kernel(x, y): y += block_row @ x, in place.

    The kernel is the one ``block_row @ x`` itself calls (SciPy's
    csr_matvec, into a zeroed result), without the public operator's
    checks and result allocation.
    """
    from scipy.sparse._sparsetools import csr_matvec  # the kernel behind csr @ vector

    m = block_row
    return partial(csr_matvec, *m.shape, m.indptr, m.indices, m.data)


def _require_finite(states: np.ndarray, first: int, samples: np.ndarray, dt: float) -> None:
    """Raise at the first non-finite row of states, which hold samples[first:]."""
    bad = ~np.isfinite(states).all(axis=1)
    if bad.any():
        t_target = samples[first + int(np.argmax(bad))]
        raise PreconditionError(
            f"state stopped being finite by t = {t_target:g} ns; the step "
            f"{dt:g} ns or the Hamiltonian's entries are out of range"
        )


def _checked_samples(sample_times) -> np.ndarray:
    samples = np.asarray(sample_times, dtype=float)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("sample_times must be a non-empty 1-D sequence")
    if not np.isfinite(samples).all():
        raise ValueError("sample_times must be finite")
    if samples[0] < 0 or np.any(np.diff(samples) < 0):
        raise ValueError("sample_times must be non-decreasing and start at t >= 0")
    return samples


def _checked_state(hamiltonian: TimeDependentHamiltonian, psi0) -> np.ndarray:
    y = np.asarray(psi0, dtype=complex).copy()
    if y.shape != (hamiltonian.space.dim,):
        raise ValueError("initial state does not match the Hamiltonian's space")
    return y


def evolve_sampled(
    hamiltonian: TimeDependentHamiltonian,
    psi0: np.ndarray,
    sample_times,
    dt: float | None = None,
) -> np.ndarray:
    """Integrate from t = 0 by RK4 and return the state at each requested time.

    sample_times must be finite, non-decreasing and non-negative; each is hit
    exactly (see _segments); dt is the step resolve_step checks or picks.
    Returns an array of shape (len(sample_times), dim).  Raises
    PreconditionError naming the first sample time at which the state is
    no longer finite.
    """
    samples = _checked_samples(sample_times)
    dt = resolve_step(hamiltonian, dt)

    y = _checked_state(hamiltonian, psi0)
    block_row = hamiltonian.block_row
    kernel = _accumulate(block_row)
    outer = np.empty((block_row.shape[1] // y.size, y.size), dtype=complex)  # w (x) v
    x, u = outer.reshape(-1), np.empty_like(y)
    t = np.empty((4, y.size), dtype=complex)
    t1, t2, t3, t4 = t  # t_i = alpha_i k_i, alpha = (h/2, h/2, h, h/6)

    starts, steps, sizes, ends = _segments(samples, dt)
    bounds = np.append(ends, samples.size).tolist()  # segment k fills bounds[k]:bounds[k+1]
    first_step = np.concatenate([[0], np.cumsum(steps)])  # of each segment, run-wide
    n_total = int(first_step[-1])
    out = np.empty((samples.size, y.size), dtype=complex)
    out[: bounds[0]] = y
    checked = 0
    for g0 in range(0, n_total, _STEPS_PER_TABLE):
        # step s of segment k reads the weights at starts[k] + (h/2) j for
        # j = 2s, 2s+1, 2s+2, h = sizes[k]: one table for the whole chunk;
        # stages 1-4 take its rows j = 2s, 2s+1, 2s+1, 2s+2 times alpha_i
        g = np.arange(g0, min(g0 + _STEPS_PER_TABLE, n_total))
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
        closes = local == steps[seg] - 1
        fills = [None] * g.size  # the sample rows a segment's last step stores
        for i, k in zip(np.flatnonzero(closes).tolist(), seg[closes].tolist()):
            fills[i] = slice(bounds[k], bounds[k + 1])
        stored = checked
        for w1, w2, w3, w4, fill in zip(*weights.swapaxes(0, 1), fills):
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
            if fill is not None:
                out[fill] = y
                stored = fill.stop
        _require_finite(out[checked:stored], checked, samples, dt)
        checked = stored
    _require_finite(out[checked:], checked, samples, dt)
    return out


def propagate_exactly(
    hamiltonian: TimeDependentHamiltonian,
    psi0: np.ndarray,
    sample_times,
    dt: float | None = None,
) -> np.ndarray:
    """The states at the sample times of a Hamiltonian that declares a frame.

    psi(t) = e^{iKt} V e^{-iEt} V^dag psi0 with H_F = K + H(0) = V E V^dag
    from one dense eigh, one matrix product per _SAMPLES_PER_PRODUCT
    samples.  Takes the same arguments, checks and errors as
    evolve_sampled; dt is validated by resolve_step but no step is taken.
    """
    samples = _checked_samples(sample_times)
    dt = resolve_step(hamiltonian, dt)
    psi0 = _checked_state(hamiltonian, psi0)
    if hamiltonian.frame is None:
        raise ValueError(f"{hamiltonian.label} declares no frame in which it is static")
    h = hamiltonian(0.0)
    h[np.diag_indices_from(h)] += hamiltonian.frame
    if not np.isfinite(h).all():
        raise PreconditionError(f"{hamiltonian.label} has entries that are not finite")
    energies, vectors = np.linalg.eigh(h if h.imag.any() else h.real)
    amplitudes = vectors.conj().T @ psi0
    # one table of e^{-iEt} and of e^{iKt} on K's distinct levels (see above)
    levels, level_of = np.unique(hamiltonian.frame, return_inverse=True)
    rates = np.concatenate([-energies, levels])
    table = np.empty((min(samples.size, _SAMPLES_PER_PRODUCT), rates.size), dtype=complex)
    states = np.empty((samples.size, psi0.size), dtype=complex)
    for first in range(0, samples.size, _SAMPLES_PER_PRODUCT):
        t = samples[first : first + _SAMPLES_PER_PRODUCT, None]
        block = states[first : first + _SAMPLES_PER_PRODUCT]
        phases, angles = table[: t.size], t * rates
        np.cos(angles, out=phases.real)
        np.sin(angles, out=phases.imag)
        np.matmul(phases[:, : energies.size] * amplitudes, vectors.T, out=block)
        block *= phases[:, energies.size + level_of]
    _require_finite(states, 0, samples, dt)
    return states


def _observe(
    states: np.ndarray,
    times: np.ndarray,
    space: HilbertSpace,
    label: str,
    convention: str,
) -> Trajectory:
    """Assemble a Trajectory from sampled states in one pass over the array."""
    fids = {
        c: _ghz_overlap(states, space, ghz_target(space.n_qubits, c))
        for c in GHZ_CONVENTIONS
    }
    populations = (np.abs(states) ** 2).reshape(len(states), *space.dims)
    occupations = np.empty((len(states), space.n_modes))
    top = np.empty(space.n_modes)
    for m, levels in enumerate(space.mode_levels):
        axis = 1 + space.mode_factor(m)
        others = tuple(a for a in range(1, populations.ndim) if a != axis)
        marginal = populations.sum(axis=others)
        occupations[:, m] = marginal @ np.arange(levels)
        top[m] = marginal[:, -1].max()
    norm = np.sqrt(populations.reshape(len(states), -1).sum(axis=1))
    if convention == "auto":
        stacked = np.vstack([fids[c] for c in GHZ_CONVENTIONS])
        fidelity = stacked.max(axis=0)
        peak_idx = int(np.argmax(fidelity))
        winner = GHZ_CONVENTIONS[int(np.argmax(stacked[:, peak_idx]))]
    else:
        if convention not in GHZ_CONVENTIONS:
            raise ValueError(f"unknown GHZ phase convention {convention!r}")
        fidelity = fids[convention]
        winner = convention
    return Trajectory(
        times=times,
        fidelity=fidelity,
        norm=norm,
        mode_occupation=occupations,
        label=label,
        convention=winner,
        fidelity_by_convention=fids,
        diagnostics={
            "max_norm_drift": float(np.max(np.abs(norm - 1.0))),
            "top_fock_population": top.tolist(),
        },
    )


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
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    ticks = [time.perf_counter()]
    space = HilbertSpace(n_qubits=circuit.n_qubits, mode_levels=tuple(fock_cutoffs))
    hamiltonian = _BUILDERS[variant](circuit, space)
    sector = exchange_sector(hamiltonian, circuit.coupling_matrix)
    propagated = hamiltonian if sector is None else sector.hamiltonian
    exact = propagated.frame is not None
    if not exact:
        propagated.block_row  # RK4's CSR block row (and scipy.sparse) count as build
    psi0 = ground_vacuum_state(space)
    step = resolve_step(hamiltonian, dt)
    ticks.append(time.perf_counter())
    propagate = propagate_exactly if exact else evolve_sampled
    if sector is None:
        states = propagate(hamiltonian, psi0, times, dt)
    else:  # the ground-vacuum state lies in every exchange sector
        states = sector.lift(propagate(propagated, sector.reduce(psi0), times, dt))
    ticks.append(time.perf_counter())
    trajectory = _observe(states, times, space, hamiltonian.label, convention)
    ticks.append(time.perf_counter())
    propagator, steps = ("exact", 0) if exact else ("rk4", int(_segments(times, step)[1].sum()))
    timings = dict(zip(("build", "propagate", "observe"), (1e3 * np.diff(ticks)).tolist()))
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
    coupled pair's normal modes.  dt is the RK4 step (see resolve_step):
    'rotating' and 'effective' runs, which declare a frame, are propagated
    exactly (propagate_exactly), so there dt is validated but takes no
    steps; the trajectory's ``propagator`` and ``steps`` say which path
    ran, and its ``diagnostics`` the dimension it ran in.
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

