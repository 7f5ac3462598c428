"""Two flux qubits in one driven resonator: the 10 ns GHZ gate.

Runs the full model (counter-rotating terms kept) next to the effective
strong-driving model at the reference operating point and prints both
fidelity trajectories side by side.  The full model takes a second or
two; everything is two qubits and a 10-level mode.
"""

import numpy as np

from ghzforge import (
    QubitSpec,
    SingleTlrCircuit,
    decoupling_time,
    estimated_drive_fidelity,
    run,
)

TWO_PI = 2.0 * np.pi

# reference operating point: g = 50 MHz, delta = -100 MHz, Omega_R = 20 |delta|
OMEGA_D = TWO_PI * 10.1
DELTA = -TWO_PI * 0.1
G = TWO_PI * 0.05

circuit = SingleTlrCircuit(
    omega_r=OMEGA_D + DELTA,
    qubits=(QubitSpec(gap=OMEGA_D, coupling=G),) * 2,
    omega_d=OMEGA_D,
    rabi=20.0 * abs(DELTA),
)

t_gate = decoupling_time(circuit.loop_rate, 1)
print(f"gate time (first displacement-loop closure): {t_gate:.2f} ns")
print(f"drive amplitude: {circuit.rabi / TWO_PI:.2f} GHz = 20 |delta|\n")

runs = {
    variant: run(circuit, variant, t_gate, 0.5, (10,))
    for variant in ("effective", "full")
}

print(f"{'t (ns)':>8} {'F_effective':>12} {'F_full':>12} {'<n> (full)':>12}")
full, eff = runs["full"], runs["effective"]
for i, t in enumerate(full.times):
    print(f"{t:8.2f} {eff.fidelity[i]:12.6f} {full.fidelity[i]:12.6f}"
          f" {full.mode_occupation[i, 0]:12.6f}")

print()
for variant, traj in runs.items():
    print(
        f"{variant:>10}: F({t_gate:.0f} ns) = {traj.final_fidelity:.6f} "
        f"(convention {traj.convention})"
    )
grid = np.linspace(0.0, t_gate, 4001)
drive_floor = min(estimated_drive_fidelity(2, G, circuit.rabi, t) for t in grid)
print(f"closed-form worst-case drive-error floor over the gate: {drive_floor:.6f}")
