"""Classical shadows for locally rotated measurements and their
Fourier-space readout mitigation.

The single-qubit shadow for outcome s along direction nu is
(1 + (-1)^s xi^nu)/2, where the traceless operator xi^nu comes from the
least-square inversion of the measurement frame; for the Pauli set {x,y,z}
xi^alpha = 3 sigma^alpha.  A shade is the trace of an n-qubit shadow
against a correlator.  Under twirled readout noise the mitigated shade for
a pattern v collapses to

    (-1)^(v.s) / g(v) * prod_{i in v} (1/2) tr(xi^{nu_i} sigma^{mu_i}),

so only the single Fourier component g(v) is ever divided out.
compute_xi returns the operators in direction order, which is the order of
the setting indices, and half_overlap gives the per-qubit factor.  The
estimators evaluate this over count tables (see protocols); the
one-record shade functions and the dense 2^n-dimensional shadow
matrices that check it live with the test oracles.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .exceptions import NotInformationallyCompleteError
from .qsim import Direction, IDENTITY_2, _check_direction_labels, pauli_directions, pauli_operator

G_FLOOR = 1e-6

_RANK_RTOL = 1e-9


def half_overlap(operator: np.ndarray, observable: Direction) -> float:
    """(1/2) tr(xi mu.sigma) of one shadow operator; the per-qubit shade factor."""
    return float(0.5 * np.trace(operator @ pauli_operator(observable)).real)


def compute_xi(directions: Sequence[Direction]) -> tuple[np.ndarray, ...]:
    """Least-square shadow operators xi^nu of a finite direction set, in
    direction order, so operator i belongs to setting index i.

    Builds the frame matrix of the 2|S| measurement effects P^nu_s / |S| in
    the Pauli operator basis, pseudo-inverts it, and reads off the
    single-qubit shadow of each outcome.  The shadows always come out as
    (1 +/- xi^nu)/2 because the two effects of a direction sum to a
    multiple of the identity.
    """
    directions = tuple(directions)
    _check_direction_labels([d.label for d in directions])
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
    operators = []
    for j, direction in enumerate(directions):
        shadows = []
        for s in (0, 1):
            coeff = pinv[:, 2 * j + s]
            shadows.append(sum(c * b for c, b in zip(coeff, basis)))
        if np.max(np.abs(shadows[0] + shadows[1] - IDENTITY_2)) > 1e-9:
            raise NotInformationallyCompleteError(
                f"outcome shadows of {direction.label!r} do not average to 1/2"
            )
        operators.append(shadows[0] - shadows[1])
    return tuple(operators)
