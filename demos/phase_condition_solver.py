"""Solve the gate phase conditions instead of guessing parameters.

Single resonator: pick the winding number n (how many loops the mode
makes) and the phase branch m, get back the detuning magnitude and gate
time that make the displacement loop close exactly when the accumulated
pair phase hits pi/8.  Coupled pair: additionally pick the odd ratio
xi = delta'/J and the cross-pair branch l; the solver returns J, delta'
and the closure time, or explains why the branch is unsolvable.
"""

import json

import numpy as np

from ghzforge import (
    UnsolvableConditionError,
    solve_coupled_phase_condition,
    solve_single_phase_condition,
)
from ghzforge.scenario import scenario_document

TWO_PI = 2.0 * np.pi

g = TWO_PI * 0.05  # 50 MHz qubit-resonator coupling
print("single resonator, g = 50 MHz")
print(f"{'n':>3} {'m':>3} {'|delta| (MHz)':>14} {'T (ns)':>8} {'phase':>8}")
for n, m in ((1, 0), (2, 0), (4, 0), (1, 1)):
    sol = solve_single_phase_condition(g, n=n, m=m)
    print(
        f"{n:3d} {m:3d} {abs(sol.deltas[0]) / TWO_PI * 1e3:14.2f} "
        f"{sol.gate_time:8.2f} {sol.pair_phase:8.4f}"
    )
print("(both detuning signs work; the sign only flips the GHZ phase)\n")

g_coupled = np.sqrt(2.0) * TWO_PI * 0.04
print("coupled pair, g = sqrt(2) x 40 MHz")
for xi, m, l in ((3, 0, 0), (5, 3, 0), (7, 8, 1), (5, 0, 0)):
    try:
        sol = solve_coupled_phase_condition(g_coupled, xi, n=1, m=m, l=l)
    except UnsolvableConditionError as exc:
        print(f"  xi={xi}, m={m}, l={l}: unsolvable ({exc})")
        continue
    print(
        f"  xi={xi}, m={m}, l={l}: J = {sol.coupler_rate / TWO_PI * 1e3:.2f} MHz, "
        f"delta' = {sol.delta_prime / TWO_PI * 1e3:.2f} MHz, T = {sol.gate_time:.2f} ns"
    )

print()
sol = solve_single_phase_condition(g, n=1, m=0)
drive_ghz = 10.0 - sol.deltas[1] / TWO_PI  # qubits at the drive, 10 GHz resonator
fragment = scenario_document(
    "single",
    resonator=(10.0,),
    qubits=[(drive_ghz, g / TWO_PI, 0)] * 2,
    fock=(10,),
    rabi_ghz=20.0 * abs(sol.deltas[1]) / TWO_PI,
    drive_frequency_ghz=drive_ghz,
    variant="full",
    t_final_ns=sol.gate_time,
    sample_every_ns=sol.gate_time / 200.0,
)
print("scenario for the n=1 solution (pipe into `ghzforge run`):")
print(json.dumps(fragment, indent=2))
