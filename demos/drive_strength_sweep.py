"""Peak gate fidelity as a function of drive strength.

The drive has to beat the residual sigma_y/sigma_z error terms (favoring
a strong drive) without waking the counter-rotating terms (favoring a
weak one), so the peak fidelity is non-monotonic in Omega_R with a broad
optimum around 20 |delta|.  This script scans Omega_R / |delta| over a
decade and a half and prints the peak found in a window around the
nominal 10 ns gate time.
"""

import numpy as np

from ghzforge import QubitSpec, SingleTlrCircuit, sweep_drive_strength

TWO_PI = 2.0 * np.pi

OMEGA_D = TWO_PI * 10.1
DELTA = -TWO_PI * 0.1
G = TWO_PI * 0.05

circuit = SingleTlrCircuit(
    omega_r=OMEGA_D + DELTA,
    qubits=(QubitSpec(gap=OMEGA_D, coupling=G),) * 2,
    omega_d=OMEGA_D,
    rabi=0.0,  # the sweep sets this per point
)

multipliers = [5.0, 10.0, 20.0, 40.0, 100.0]
trajectories = sweep_drive_strength(
    circuit,
    "full",
    multipliers,
    window=(9.5, 10.5),
    window_sample_every=0.01,  # 10 ps: resolves the ripple at 2 Omega_R
    fock=(10,),
)

print(f"{'Omega_R/|delta|':>16} {'peak F':>10} {'at (ns)':>9} {'convention':>11}")
for mult, traj in zip(multipliers, trajectories):
    print(
        f"{mult:16.0f} {traj.peak_fidelity:10.6f} {traj.peak_time:9.2f} "
        f"{traj.convention:>11}"
    )

best = max(zip(multipliers, trajectories), key=lambda mt: mt[1].peak_fidelity)
print(f"\nbest multiplier: {best[0]:.0f} (peak F = {best[1].peak_fidelity:.6f})")
print("weak drives lose to the slow error terms, strong drives to the")
print("counter-rotating terms; the optimum sits in between.")
