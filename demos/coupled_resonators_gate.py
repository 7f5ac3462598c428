"""GHZ gate across two resonators joined by a tunable coupler.

Qubits sit in different resonators; the inter-resonator coupling J splits
the pair into normal modes P and Q detuned by delta' +- J from the drive,
and both loops close simultaneously at T = 2 pi / J (25 ns for
J = 40 MHz).  By default this runs the effective strong-driving model,
which takes a second; pass --full for the counter-rotating-terms model
with the step pinned low enough to hold norm drift below 1e-8 (about 7 s
on a 2-core host).
"""

import argparse

import numpy as np

from ghzforge import (
    CoupledTlrCircuit,
    QubitSpec,
    decoupling_time,
    run,
)

TWO_PI = 2.0 * np.pi

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--full", action="store_true", help="run the full model too")
args = parser.parse_args()

J = TWO_PI * 0.04
OMEGA = TWO_PI * 10.0
OMEGA_D = OMEGA + 3.0 * J  # delta' = -3 J keeps both normal modes off-resonant
G = np.sqrt(2.0) * J       # sqrt(2) restores the single-resonator phase rate

circuit = CoupledTlrCircuit(
    omega_a=OMEGA,
    omega_b=OMEGA,
    qubits=(
        QubitSpec(gap=OMEGA_D, coupling=G, resonator=0),
        QubitSpec(gap=OMEGA_D, coupling=G, resonator=1),
    ),
    coupler_rate=J,
    omega_d=OMEGA_D,
    rabi=42.0 * J,
)

t_gate = decoupling_time(circuit.loop_rate, 1)
print(f"normal-mode splitting J = {J / TWO_PI * 1e3:.0f} MHz")
print(f"gate time (both loops close): {t_gate:.2f} ns\n")

eff = run(circuit, "effective", t_gate, 2.5, (8, 8))
print(f"{'t (ns)':>8} {'F_eff':>10} {'<n_P>':>9} {'<n_Q>':>9}")
for i, t in enumerate(eff.times):
    print(
        f"{t:8.2f} {eff.fidelity[i]:10.6f} "
        f"{eff.mode_occupation[i, 0]:9.5f} {eff.mode_occupation[i, 1]:9.5f}"
    )
print(f"\neffective model: F({t_gate:.0f} ns) = {eff.final_fidelity:.6f}")

if args.full:
    print("\nintegrating the full model (a few seconds)...")
    full = run(circuit, "full", t_gate, 2.5, (8, 8), dt=0.000388)
    drift = float(np.max(np.abs(full.norm - 1.0)))
    print(
        f"full model: F({t_gate:.0f} ns) = {full.final_fidelity:.6f} "
        f"(norm drift {drift:.1e})"
    )
    print("the converged full-model value sits just under the single-")
    print("resonator result; the two normal-mode loops share the error budget.")
