"""Dense statevector simulation of locally rotated measurements.

Amplitude conventions: the basis state with bitstring s has amplitude
``amplitudes[s]`` where bit i of the integer s is the outcome of qubit i
(qubit 0 = least significant bit, matching :mod:`xshadow.bitspace`).

Measurement of qubit i along a unit direction d uses the rotation gate G
defined by ``G^dagger P^z_s G = (1 + (-1)^s d.sigma)/2``: G maps the
eigenbasis of d.sigma onto the computational basis.  The leftover per-row
phase freedom is fixed by making the first nonzero entry of each row of G
real and positive; this reproduces the identity for d = z and the Hadamard
gate for d = x.

Exact simulation is capped at EXACT_SIM_MAX_QUBITS qubits.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .bitspace import BitString, hamming_weight
from .exceptions import CapabilityError

EXACT_SIM_MAX_QUBITS = 12

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_UNIT_TOL = 1e-12
_NORM_TOL = 1e-10


@dataclass(frozen=True)
class Direction:
    """A named single-qubit measurement axis (unit 3-vector)."""

    label: str
    vector: tuple[float, float, float]

    def __post_init__(self) -> None:
        if len(self.vector) != 3:
            raise ValueError("direction vector must have three components")
        object.__setattr__(self, "vector", tuple(float(c) for c in self.vector))
        norm = math.sqrt(sum(c * c for c in self.vector))
        if abs(norm - 1.0) > _UNIT_TOL:
            raise ValueError(f"direction {self.label!r} is not a unit vector (norm {norm})")


DIRECTION_X = Direction("x", (1.0, 0.0, 0.0))
DIRECTION_Y = Direction("y", (0.0, 1.0, 0.0))
DIRECTION_Z = Direction("z", (0.0, 0.0, 1.0))


def pauli_directions() -> tuple[Direction, Direction, Direction]:
    """The default direction set {x, y, z}."""
    return (DIRECTION_X, DIRECTION_Y, DIRECTION_Z)


def direction_from_label(label: str) -> Direction:
    """Look up one of the built-in axes by label."""
    table = {d.label: d for d in pauli_directions()}
    if label not in table:
        raise ValueError(f"unknown direction label {label!r}; known: {sorted(table)}")
    return table[label]


def pauli_operator(direction: Direction) -> np.ndarray:
    """The 2x2 operator d.sigma for a unit direction d."""
    dx, dy, dz = direction.vector
    return dx * SIGMA_X + dy * SIGMA_Y + dz * SIGMA_Z


@dataclass(frozen=True)
class MeasurementSetting:
    """Per-qubit measurement directions for one shot."""

    directions: tuple[Direction, ...]

    @property
    def n(self) -> int:
        return len(self.directions)


@dataclass(frozen=True)
class Correlator:
    """A tensor-product observable: identity off the support pattern v,
    a unit-direction Pauli operator mu_i on each support qubit."""

    pattern: BitString
    observables: dict[int, Direction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if set(self.observables) != set(self.pattern.support()):
            raise ValueError(
                f"observable qubits {sorted(self.observables)} do not match "
                f"support {list(self.pattern.support())}"
            )

    @property
    def n(self) -> int:
        return self.pattern.n

    @property
    def degree(self) -> int:
        return hamming_weight(self.pattern)


def rotation_gate(direction: Direction) -> np.ndarray:
    """The 2x2 unitary G with G^dagger P^z_s G = (1 + (-1)^s d.sigma)/2."""
    dx, dy, dz = direction.vector
    theta = math.acos(min(1.0, max(-1.0, dz)))
    phase = cmath.exp(1j * math.atan2(dy, dx))
    # rows of G are the conjugated eigenvectors of d.sigma (outcome 0 first)
    plus = np.array([math.cos(theta / 2), math.sin(theta / 2) * phase])
    minus = np.array([-math.sin(theta / 2) / phase, math.cos(theta / 2)])
    gate = np.vstack([plus.conj(), minus.conj()])
    for row in gate:
        lead = row[np.abs(row) > _UNIT_TOL][0]
        row *= abs(lead) / lead
    return gate


@dataclass(frozen=True)
class StateVector:
    """A normalized n-qubit pure state."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.n > EXACT_SIM_MAX_QUBITS:
            raise CapabilityError(
                f"n={self.n} exceeds the exact simulation cap {EXACT_SIM_MAX_QUBITS}"
            )
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} amplitudes, got shape {amps.shape}")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {_NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)


def apply_single_qubit(amplitudes: np.ndarray, gate: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Apply a 2x2 gate to one qubit of a dense amplitude vector."""
    tensor = amplitudes.reshape([2] * n)
    axis = n - 1 - qubit  # C-order: axis 0 is the most significant bit
    tensor = np.moveaxis(tensor, axis, 0)
    tensor = np.tensordot(gate, tensor, axes=(1, 0))
    tensor = np.moveaxis(tensor, 0, axis)
    return np.ascontiguousarray(tensor).reshape(1 << n)


def _apply_cz(amplitudes: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    idx = np.arange(1 << n)
    mask = ((idx >> a) & (idx >> b) & 1).astype(bool)
    out = amplitudes.copy()
    out[mask] *= -1.0
    return out


def random_circuit_state(n: int, depth: int, seed: int) -> StateVector:
    """State prepared by a brickwork random circuit on a line of n qubits.

    Each layer rotates every qubit by a uniform angle in [0, 2pi) about an
    isotropically random axis, then applies CZ to alternating
    nearest-neighbor pairs (even pairs on even layers, odd pairs on odd
    layers).  depth = 0 returns |0...0>.  Deterministic given the seed.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > EXACT_SIM_MAX_QUBITS:
        raise CapabilityError(f"n={n} exceeds the exact simulation cap {EXACT_SIM_MAX_QUBITS}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    rng = np.random.default_rng(seed)
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    for layer in range(depth):
        for qubit in range(n):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            rot = (
                math.cos(angle / 2) * IDENTITY_2
                - 1j
                * math.sin(angle / 2)
                * (axis[0] * SIGMA_X + axis[1] * SIGMA_Y + axis[2] * SIGMA_Z)
            )
            amps = apply_single_qubit(amps, rot, qubit, n)
        for qubit in range(layer % 2, n - 1, 2):
            amps = _apply_cz(amps, qubit, qubit + 1, n)
    return StateVector(n, amps)


def exact_expectation(state: StateVector, correlator: Correlator) -> float:
    """<psi| C |psi> for a tensor-product correlator; always in [-1, 1]."""
    if correlator.n != state.n:
        raise ValueError(f"correlator is on {correlator.n} qubits, state on {state.n}")
    amps = state.amplitudes
    for qubit, direction in correlator.observables.items():
        amps = apply_single_qubit(amps, pauli_operator(direction), qubit, state.n)
    return float(np.vdot(state.amplitudes, amps).real)
