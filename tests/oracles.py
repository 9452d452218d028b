"""Reference computations that the library's fast paths must reproduce.

The library reduces a tomography dataset to counts over the (setting,
bit) cells of a correlator's support; the shade oracles evaluate the same
quantities one record at a time, with no binning.  It rotates the state
for many settings at once in qubit blocks; the Born oracles rotate it for
one setting, one qubit at a time.
"""

import numpy as np

from xshadow.bitspace import BitString
from xshadow.qsim import apply_single_qubit, rotation_gate


def support_shades(data, correlator, xi):
    """Per-record unmitigated shade (-1)^(v.s) prod_i overlap(nu_i, mu_i)."""
    if correlator.n != data.n:
        raise ValueError(f"correlator is on {correlator.n} qubits, dataset on {data.n}")
    if len(data) == 0:
        raise ValueError("empty tomography dataset")
    values = np.ones(len(data))
    parity = np.zeros(len(data), dtype=np.uint8)
    for qubit in correlator.pattern.support():
        overlaps = np.array(
            [xi.half_overlap(d.label, correlator.observables[qubit]) for d in data.directions]
        )
        values *= overlaps[data.setting_indices[:, qubit]]
        parity ^= data.outcomes[:, qubit]
    return values * (1.0 - 2.0 * parity.astype(np.float64))


def independent_model_values(data, correlator, xi, p10, p01):
    """Per-record independent-flip corrected shade: each support qubit's
    (+overlap, -overlap) pair times the inverse twirled 2x2 matrix."""
    p10 = np.broadcast_to(np.asarray(p10, dtype=float), (data.n,))
    p01 = np.broadcast_to(np.asarray(p01, dtype=float), (data.n,))
    values = np.ones(len(data))
    for qubit in correlator.pattern.support():
        p = 0.5 * (p10[qubit] + p01[qubit])
        inverse = np.linalg.inv(np.array([[1.0 - p, p], [p, 1.0 - p]]))
        overlaps = np.array(
            [xi.half_overlap(d.label, correlator.observables[qubit]) for d in data.directions]
        )
        corrected = np.stack([inverse @ np.array([ov, -ov]) for ov in overlaps])
        values *= corrected[data.setting_indices[:, qubit], data.outcomes[:, qubit]]
    return values


def measurement_probabilities(state, setting):
    """Born probabilities over bitstrings after rotating each qubit into
    its measurement basis."""
    if setting.n != state.n:
        raise ValueError(f"setting has {setting.n} directions for n={state.n}")
    amps = state.amplitudes
    for qubit, direction in enumerate(setting.directions):
        amps = apply_single_qubit(amps, rotation_gate(direction), qubit, state.n)
    probs = np.abs(amps) ** 2
    return probs / probs.sum()


def ideal_outcome_sample(state, setting, rng):
    """Draw one noiseless outcome bitstring from the rotated Born distribution."""
    probs = measurement_probabilities(state, setting)
    outcome = int(rng.choice(probs.size, p=probs))
    return BitString(state.n, outcome)
