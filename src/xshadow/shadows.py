"""Classical shadows for locally rotated measurements and their
Fourier-space readout mitigation.

The single-qubit shadow for outcome s along direction nu is
(1 + (-1)^s xi^nu)/2, where the traceless operator xi^nu comes from the
least-square inversion of the measurement frame; for the Pauli set {x,y,z}
xi^alpha = 3 sigma^alpha.  A shade is the trace of an n-qubit shadow
against a correlator.  Under twirled readout noise the mitigated shade for
a pattern v collapses to

    (-1)^(v.s) / g(v) * prod_{i in v} (1/2) tr(xi^{nu_i} sigma^{mu_i}),

so only the single Fourier component g(v) is ever divided out.  The
dense 2^n-dimensional shadow matrices that check this live with the test
oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .bitspace import BitString, dot_mod2_sign
from .exceptions import NotInformationallyCompleteError, UnmitigatableComponentError
from .qsim import (
    Correlator,
    Direction,
    IDENTITY_2,
    MeasurementSetting,
    pauli_directions,
    pauli_operator,
)

G_FLOOR = 1e-6

_RANK_RTOL = 1e-9
_XI_TOL = 1e-12


@dataclass(frozen=True)
class XiTable:
    """The per-direction shadow operators xi^nu of one direction set."""

    directions: tuple[Direction, ...]
    operators: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        for label, op in self.operators.items():
            if op.shape != (2, 2):
                raise ValueError(f"xi[{label}] must be 2x2")
            if abs(np.trace(op)) > _XI_TOL or np.max(np.abs(op - op.conj().T)) > _XI_TOL:
                raise ValueError(f"xi[{label}] must be traceless Hermitian")

    def xi(self, label: str) -> np.ndarray:
        if label not in self.operators:
            raise ValueError(f"no xi operator for direction {label!r}")
        return self.operators[label]

    def half_overlap(self, label: str, observable: Direction) -> float:
        """(1/2) tr(xi^label mu.sigma); the per-qubit shade factor."""
        return float(0.5 * np.trace(self.xi(label) @ pauli_operator(observable)).real)


def compute_xi(directions: Sequence[Direction]) -> XiTable:
    """Least-square shadow operators for a finite direction set.

    Builds the frame matrix of the 2|S| measurement effects P^nu_s / |S| in
    the Pauli operator basis, pseudo-inverts it, and reads off the
    single-qubit shadow of each outcome.  The shadows always come out as
    (1 +/- xi^nu)/2 because the two effects of a direction sum to a
    multiple of the identity.
    """
    directions = tuple(directions)
    if len({d.label for d in directions}) != len(directions):
        raise ValueError("direction labels must be unique")
    if not directions:
        raise ValueError("direction set is empty")
    basis = [IDENTITY_2, *(pauli_operator(d) for d in pauli_directions())]
    frame = np.zeros((2 * len(directions), 4))
    for j, direction in enumerate(directions):
        axis = pauli_operator(direction)
        for s in (0, 1):
            effect = (IDENTITY_2 + (1 - 2 * s) * axis) / (2 * len(directions))
            frame[2 * j + s] = [np.trace(b @ effect).real for b in basis]
    singular = np.linalg.svd(frame, compute_uv=False)
    if singular[-1] <= _RANK_RTOL * singular[0]:
        raise NotInformationallyCompleteError(
            f"direction set {[d.label for d in directions]} spans rank "
            f"{int(np.sum(singular > _RANK_RTOL * singular[0]))} of 4"
        )
    pinv = np.linalg.pinv(frame, rcond=_RANK_RTOL)
    operators: dict[str, np.ndarray] = {}
    for j, direction in enumerate(directions):
        shadows = []
        for s in (0, 1):
            coeff = pinv[:, 2 * j + s]
            shadows.append(sum(c * b for c, b in zip(coeff, basis)))
        if np.max(np.abs(shadows[0] + shadows[1] - IDENTITY_2)) > 1e-9:
            raise NotInformationallyCompleteError(
                f"outcome shadows of {direction.label!r} do not average to 1/2"
            )
        operators[direction.label] = shadows[0] - shadows[1]
    return XiTable(directions, operators)


def kappa(xi: XiTable, observables: Iterable[Direction]) -> float:
    """max |(1/2) tr(xi^nu mu.sigma)| over the set and requested observables."""
    observables = tuple(observables)
    if not observables:
        raise ValueError("observable set is empty")
    return max(
        abs(xi.half_overlap(d.label, mu)) for d in xi.directions for mu in observables
    )


def _check_lengths(setting: MeasurementSetting, outcome: BitString, correlator: Correlator):
    if not setting.n == outcome.n == correlator.n:
        raise ValueError(
            f"length mismatch: setting {setting.n}, outcome {outcome.n}, "
            f"correlator {correlator.n}"
        )


def unmitigated_shade(
    xi: XiTable, setting: MeasurementSetting, outcome: BitString, correlator: Correlator
) -> float:
    """Trace of the noiseless shadow against the correlator.

    Factorizes per qubit: 1 off the support, (-1)^{s_i} times the half
    overlap on the support.
    """
    _check_lengths(setting, outcome, correlator)
    value = 1.0
    for qubit in correlator.pattern.support():
        overlap = xi.half_overlap(
            setting.directions[qubit].label, correlator.observables[qubit]
        )
        value *= (1 - 2 * outcome.bit(qubit)) * overlap
    return value


def mitigated_shade(
    xi: XiTable,
    setting: MeasurementSetting,
    outcome: BitString,
    correlator: Correlator,
    g_v: float,
    g_floor: float = G_FLOOR,
) -> float:
    """Readout-mitigated shade: (-1)^(v.s)/g(v) times the support overlaps.

    The outcome enters only through the global sign; division is by the
    single component g(v) of the twirled spectrum.
    """
    _check_lengths(setting, outcome, correlator)
    if abs(g_v) < g_floor:
        raise UnmitigatableComponentError(
            f"|g(v)| = {abs(g_v)} below floor {g_floor} for v={correlator.pattern}"
        )
    value = dot_mod2_sign(correlator.pattern, outcome) / g_v
    for qubit in correlator.pattern.support():
        value *= xi.half_overlap(
            setting.directions[qubit].label, correlator.observables[qubit]
        )
    return value


def fourier_shadow_trace(
    xi: XiTable, setting: MeasurementSetting, w: BitString, correlator: Correlator
) -> float:
    """tr(tau^nu_w C) for the Fourier-basis shadow component
    tau^nu_w = prod_i [w_i=0 -> identity, w_i=1 -> xi^{nu_i}].

    Vanishes unless w equals the correlator pattern, because both xi and
    the observables are traceless.
    """
    _check_lengths(setting, w, correlator)
    value = 1.0
    for qubit in range(w.n):
        left = IDENTITY_2 if w.bit(qubit) == 0 else xi.xi(setting.directions[qubit].label)
        if correlator.pattern.bit(qubit) == 0:
            right = IDENTITY_2
        else:
            right = pauli_operator(correlator.observables[qubit])
        value *= np.trace(left @ right).real
    return float(value)
