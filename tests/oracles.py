"""Per-record reference computations that the count-table estimators
must reproduce.

The library reduces a tomography dataset to counts over the (setting,
bit) cells of a correlator's support; these oracles evaluate the same
quantities one record at a time, with no binning.
"""

import numpy as np


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
