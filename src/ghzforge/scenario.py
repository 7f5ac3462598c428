"""Scenario files: JSON descriptions of a circuit plus run settings.

A scenario is the unit the command line works with.  All frequencies in
the file are ordinary frequencies in GHz and are multiplied by 2*pi on
load; times are in ns.  The schema is strict: unknown keys anywhere in
the document are rejected so that a typo cannot silently fall back to a
default.  What the schema knows about each layout lives in one table,
LAYOUTS, read by validate_scenario and by scenario_document, which writes
documents (`ghzforge solve` prints one).
"""

from __future__ import annotations

import json
import math
from collections.abc import Collection
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .analytic import GHZ_CONVENTIONS
from .constants import rad_per_ns_from_ghz
from .dynamics import VARIANTS, Trajectory, _sample_count, run
from .errors import ScenarioFormatError
from .model import (
    CoupledTlrCircuit,
    DriveMappingReport,
    QubitSpec,
    ResonatorArray,
    SingleTlrCircuit,
    qubit_drive_from_resonator_drive,
)

SCHEMA_VERSION = 1

GHZ_PHASE_CHOICES = ("auto", *GHZ_CONVENTIONS)

# Size limits, checked before anything is allocated: resource caps on the
# run.  At the dimension limit an exact run without an exchange sector
# peaks near 0.3 GB in its dense eigh.  The sample limit is
# dynamics.MAX_SAMPLES, which check_run_size applies as the run does.
MAX_DIMENSION = 2048

# Every top-level key, in the order scenario_document writes them.
_TOP_KEYS = (
    "schema_version", "description", "kind", "resonator", "drive_frequency_ghz", "qubits",
    "drive", "variant", "fock_cutoff", "fock_cutoffs", "t_final_ns", "sample_every_ns",
    "ghz_phase_convention", "integrator",
)


@dataclass(frozen=True)
class _Layout:
    """What the schema knows about one value of `kind`."""

    record: type  # the layout's constructor in model
    resonator: dict[str, tuple[str, bool]]  # file key -> (record field, must be > 0)
    fock_key: str  # holds one cutoff per mode; a bare integer when there is one mode
    labels: tuple[str, ...]  # a qubit's `resonator` value per resonator; none with one

    @property
    def modes(self) -> int:
        return len(self.labels) or 1


LAYOUTS = {
    "single": _Layout(SingleTlrCircuit, {"omega_ghz": ("omega_r", True)}, "fock_cutoff", ()),
    "coupled": _Layout(
        CoupledTlrCircuit,
        {
            "omega_a_ghz": ("omega_a", True),
            "omega_b_ghz": ("omega_b", True),
            "coupler_rate_ghz": ("coupler_rate", False),
        },
        "fock_cutoffs",
        ("A", "B"),
    ),
}


@dataclass
class LoadedScenario:
    """A validated scenario, converted to internal units (rad/ns)."""

    name: str
    circuit: ResonatorArray
    variant: str
    fock: tuple[int, ...]  # one Fock cutoff per mode
    t_final_ns: float
    sample_every_ns: float
    convention: str
    dt: float | None  # RK4 step (ns), None for the default; validated but unused on exact runs
    drive_mapping: DriveMappingReport | None
    raw: dict


def _fail(where: str, message: str) -> ScenarioFormatError:
    return ScenarioFormatError(f"{where}: {message}")


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise _fail(where, f"expected an object, got {type(value).__name__}")
    return value


def _reject_unknown(obj: dict, allowed: Collection[str], where: str) -> None:
    unknown = sorted(set(obj).difference(allowed))
    if unknown:
        raise _fail(where, f"unknown key(s) {unknown}; allowed keys are {sorted(allowed)}")


def _get(obj: dict, key: str, where: str):
    if key not in obj:
        raise _fail(where, f"missing required key {key!r}")
    return obj[key]


def _number(value, where: str, *, positive=False, nonnegative=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(where, f"expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        raise _fail(where, "integer is too large for a floating-point number") from None
    if not math.isfinite(out):
        raise _fail(where, f"must be finite, got {out}")
    if positive and not out > 0:
        raise _fail(where, f"must be > 0, got {out}")
    if nonnegative and out < 0:
        raise _fail(where, f"must be >= 0, got {out}")
    return out


def _frequency(value, where: str, **checks) -> float:
    """A frequency in GHz from the file, in rad/ns, still finite after scaling."""
    out = rad_per_ns_from_ghz(_number(value, where, **checks))
    if not math.isfinite(out):
        raise _fail(where, f"{value} GHz overflows the floating-point range")
    return out


def _is_cutoff(value) -> bool:
    """A Fock cutoff is an integer >= 2: a mode needs at least two levels."""
    return not isinstance(value, bool) and isinstance(value, int) and value >= 2


def _qubit_from_entry(entry, index: int, labels: tuple[str, ...]) -> QubitSpec:
    where = f"qubits[{index}]"
    obj = _require_mapping(entry, where)
    allowed = {"gap_ghz", "coupling_ghz", "bias_ghz"}
    if labels:
        allowed = allowed | {"resonator"}
    _reject_unknown(obj, allowed, where)
    gap = _frequency(_get(obj, "gap_ghz", where), f"{where}.gap_ghz", positive=True)
    coupling = _frequency(
        _get(obj, "coupling_ghz", where), f"{where}.coupling_ghz", nonnegative=True
    )
    bias = _number(obj.get("bias_ghz", 0.0), f"{where}.bias_ghz")
    if bias != 0.0:
        # The scheme needs the qubits parked at their degeneracy points;
        # a biased qubit changes the coupling operator, not just numbers.
        raise _fail(f"{where}.bias_ghz", "must be 0 (qubits sit at the degeneracy point)")
    if not labels:
        return QubitSpec(gap=gap, coupling=coupling)
    label = _get(obj, "resonator", where)
    if label not in labels:
        raise _fail(f"{where}.resonator", f"must be one of {labels}, got {label!r}")
    return QubitSpec(gap=gap, coupling=coupling, resonator=labels.index(label))


def _step_from_entry(entry, where: str) -> float | None:
    """The integrator entry's dt_ns, or None when it gives none."""
    if entry is None:
        return None
    obj = _require_mapping(entry, where)
    _reject_unknown(obj, {"dt_ns"}, where)
    dt = obj.get("dt_ns")
    if dt is not None:
        dt = _number(dt, f"{where}.dt_ns", positive=True)
    return dt


def validate_scenario(data, name: str = "<scenario>") -> LoadedScenario:
    """Validate a parsed scenario document and build the circuit it describes.

    Raises ScenarioFormatError on any structural problem, including keys
    the schema does not know about.
    """
    top = _require_mapping(data, name)
    _reject_unknown(top, _TOP_KEYS, name)

    version = _get(top, "schema_version", name)
    if version != SCHEMA_VERSION:
        raise _fail(name, f"schema_version must be {SCHEMA_VERSION}, got {version!r}")

    description = top.get("description", "")
    if not isinstance(description, str):
        raise _fail(f"{name}.description", "expected a string")

    kind = _get(top, "kind", name)
    layout = LAYOUTS.get(kind) if isinstance(kind, str) else None
    if layout is None:
        raise _fail(f"{name}.kind", f"must be one of {tuple(LAYOUTS)}, got {kind!r}")

    omega_d = _frequency(
        _get(top, "drive_frequency_ghz", name), f"{name}.drive_frequency_ghz", positive=True
    )

    qubit_entries = _get(top, "qubits", name)
    if not isinstance(qubit_entries, list) or not qubit_entries:
        raise _fail(f"{name}.qubits", "expected a non-empty list")
    if len(qubit_entries) < 2:
        raise _fail(f"{name}.qubits", "a GHZ state needs at least two qubits")
    qubits = tuple(
        _qubit_from_entry(entry, i, layout.labels) for i, entry in enumerate(qubit_entries)
    )

    drive = _require_mapping(_get(top, "drive", name), f"{name}.drive")
    _reject_unknown(drive, {"rabi_ghz", "resonator_amplitude_ghz"}, f"{name}.drive")
    if ("rabi_ghz" in drive) == ("resonator_amplitude_ghz" in drive):
        raise _fail(
            f"{name}.drive",
            "exactly one of 'rabi_ghz' (direct qubit drive) or "
            "'resonator_amplitude_ghz' (drive through the resonator) is required",
        )

    variant = _get(top, "variant", name)
    convention = top.get("ghz_phase_convention", "auto")
    if convention not in GHZ_PHASE_CHOICES:
        raise _fail(
            f"{name}.ghz_phase_convention",
            f"must be one of {GHZ_PHASE_CHOICES}, got {convention!r}",
        )

    t_final = _number(_get(top, "t_final_ns", name), f"{name}.t_final_ns", positive=True)
    sample_every = _number(
        _get(top, "sample_every_ns", name), f"{name}.sample_every_ns", positive=True
    )
    dt = _step_from_entry(top.get("integrator"), f"{name}.integrator")

    where = f"{name}.resonator"
    resonator = _require_mapping(_get(top, "resonator", name), where)
    _reject_unknown(resonator, layout.resonator, where)
    fields = {
        field: _frequency(_get(resonator, key, where), f"{where}.{key}", positive=positive)
        for key, (field, positive) in layout.resonator.items()
    }
    for other_kind, other in LAYOUTS.items():
        if other is not layout and other.fock_key in top:
            hint = f"{other.fock_key!r} is for {other_kind} scenarios; use {layout.fock_key!r}"
            raise _fail(name, hint)
    fock_entry = top.get(layout.fock_key, 8 if layout.modes == 1 else [8] * layout.modes)
    cutoffs = [fock_entry] if layout.modes == 1 else fock_entry
    if not (
        isinstance(cutoffs, list)
        and len(cutoffs) == layout.modes
        and all(_is_cutoff(n) for n in cutoffs)
    ):
        shape = "an integer" if layout.modes == 1 else f"{layout.modes} integers"
        raise _fail(f"{name}.{layout.fock_key}", f"expected {shape} >= 2, got {fock_entry!r}")
    fock = tuple(cutoffs)
    if "resonator_amplitude_ghz" in drive and layout.modes > 1:
        raise _fail(f"{name}.drive", "a resonator tone needs one resonator; use 'rabi_ghz' here")

    mapping = None
    try:
        if "rabi_ghz" in drive:
            rabi = _frequency(drive["rabi_ghz"], f"{name}.drive.rabi_ghz")
            circuit = layout.record(**fields, qubits=qubits, omega_d=omega_d, rabi=rabi)
        else:
            amplitude = _frequency(
                drive["resonator_amplitude_ghz"], f"{name}.drive.resonator_amplitude_ghz"
            )
            circuit, mapping = qubit_drive_from_resonator_drive(
                layout.record(**fields, qubits=qubits, omega_d=omega_d), amplitude
            )
    except ValueError as exc:
        raise _fail(name, str(exc)) from exc
    if variant not in VARIANTS:
        raise _fail(f"{name}.variant", f"must be one of {VARIANTS}, got {variant!r}")

    loaded = LoadedScenario(
        name=name,
        circuit=circuit,
        variant=variant,
        fock=fock,
        t_final_ns=t_final,
        sample_every_ns=sample_every,
        convention=convention,
        dt=dt,
        drive_mapping=mapping,
        raw=top,
    )
    check_run_size(loaded, t_final, name)
    return loaded


def scenario_document(kind: str, resonator, qubits, fock, rabi_ghz: float, **settings) -> dict:
    """A scenario document for validate_scenario, its keys in the schema's order.

    resonator holds the layout's resonator values in GHz, in LAYOUTS order;
    qubits holds (gap_ghz, coupling_ghz, resonator index) per qubit; fock
    one cutoff per mode; settings the other top-level keys (variant, ...).
    """
    layout = LAYOUTS[kind]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "resonator": dict(zip(layout.resonator, resonator, strict=True)),
        "qubits": [
            {"gap_ghz": gap, "coupling_ghz": coupling}
            | ({"resonator": layout.labels[host]} if layout.labels else {})
            for gap, coupling, host in qubits
        ],
        "drive": {"rabi_ghz": rabi_ghz},
        layout.fock_key: list(fock) if layout.modes > 1 else fock[0],
    }
    _reject_unknown(settings, set(_TOP_KEYS).difference(doc), "settings")
    doc.update(settings)
    return {key: doc[key] for key in _TOP_KEYS if key in doc}


def check_run_size(scenario: LoadedScenario, span_ns: float, where: str) -> None:
    """Reject a run past MAX_DIMENSION or dynamics.MAX_SAMPLES.

    span_ns is the time span sampled every scenario.sample_every_ns: the
    whole run, or a sweep window.
    """
    n_qubits = scenario.circuit.n_qubits
    dim = 2**n_qubits * math.prod(scenario.fock)
    if dim > MAX_DIMENSION:
        levels = " x ".join(str(n) for n in scenario.fock)
        raise _fail(
            where,
            f"Hilbert-space dimension 2^{n_qubits} x {levels} exceeds the limit "
            f"{MAX_DIMENSION}",
        )
    try:
        _sample_count(span_ns, scenario.sample_every_ns, "the span / sample_every_ns")
    except ValueError as exc:
        raise _fail(where, f"{exc}; sample less often") from None


def load_scenario(path) -> LoadedScenario:
    """Read and validate a scenario file from disk."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"{path.name}: not valid JSON ({exc})") from exc
    return validate_scenario(data, name=path.stem)


def run_scenario(scenario: LoadedScenario) -> Trajectory:
    """Integrate the scenario's circuit and return its trajectory."""
    return run(
        scenario.circuit,
        scenario.variant,
        scenario.t_final_ns,
        scenario.sample_every_ns,
        scenario.fock,
        dt=scenario.dt,
        convention=scenario.convention,
    )


def bundled_scenario_names() -> list[str]:
    """Names (without .json) of the scenario files shipped in the package."""
    root = resources.files(__package__) / "scenarios"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a bundled scenario (for reading and for tests)."""
    root = resources.files(__package__) / "scenarios"
    path = root / f"{name}.json"
    with resources.as_file(path) as concrete:
        if not concrete.exists():
            raise ScenarioFormatError(
                f"no bundled scenario named {name!r}; available: {bundled_scenario_names()}"
            )
        return Path(concrete)
