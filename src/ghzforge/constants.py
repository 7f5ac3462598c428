"""Physical constants and unit conversions.

Internal unit system: hbar = 1, time in nanoseconds, angular frequencies in
rad/ns.  User-facing interfaces (scenario files, CLI flags) quote ordinary
frequencies in GHz; the conversion is a single factor of 2*pi applied on load.
Device quantities (inductances, currents, flux) are converted to SI here and
nowhere else.
"""

import math

# CODATA-2018 values.
HBAR_JS = 1.054571817e-34          # reduced Planck constant, J*s
FLUX_QUANTUM_WB = 2.067833848e-15  # superconducting flux quantum h/2e, Wb

TWO_PI = 2.0 * math.pi


def rad_per_ns_from_ghz(f_ghz: float) -> float:
    """Angular frequency in rad/ns for an ordinary frequency in GHz."""
    return TWO_PI * f_ghz


def ghz_from_rad_per_ns(omega: float) -> float:
    """Ordinary frequency in GHz for an angular frequency in rad/ns."""
    return omega / TWO_PI


def rad_per_ns_from_rad_per_s(omega_si: float) -> float:
    return omega_si * 1e-9


def henry_from_ph(value_ph: float) -> float:
    return value_ph * 1e-12


def ampere_from_na(value_na: float) -> float:
    return value_na * 1e-9


def ampere_from_ua(value_ua: float) -> float:
    return value_ua * 1e-6
