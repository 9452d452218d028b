"""Classical shadow estimation that survives noisy, cross-talking readout.

The package simulates randomized single-qubit measurement experiments,
twirls the readout channel with random pre-measurement flips, learns
the channel's Fourier components from calibration data, and divides
them out of shadow estimates.  Brute-force dense references are kept
alongside the fast paths so everything can be checked on small systems.
"""

from .bitspace import BitString, dot_mod2_sign, hamming_weight, walsh_transform, xor
from .config import ExperimentConfig, NoiseConfig, load_config, parse_config
from .exceptions import (
    CapabilityError,
    ConfigError,
    DataFormatError,
    NotInformationallyCompleteError,
    SingularNoiseError,
    UnmitigatableComponentError,
    XShadowError,
)
from .experiments import (
    build_correlators,
    calibration_summary,
    collect_calibration,
    collect_tomography,
    comparison_rows,
    correlator_rms_rows,
    fit_loglog_slope,
    g_rms_rows,
    run_experiment,
    subsample_grid,
)
from .noise import (
    ChainCrosstalkModel,
    FourierComponents,
    IndependentFlipModel,
    NoiseModel,
    TwirledNoise,
    crosstalk_model,
    exact_g,
    identity_model,
    independent_flip_model,
    noisy_outcome,
    twirl,
)
from .protocols import (
    CalibrationDataset,
    EstimateReport,
    TomographyDataset,
    calibration_sample_bound,
    estimate_correlator_independent_model,
    estimate_correlator_mitigated,
    estimate_correlator_unmitigated,
    estimate_g,
    median_of_means,
    pack_bits,
    random_correlators,
    run_calibration,
    run_tomography,
    tomography_sample_bound,
    unpack_bits,
)
from .qsim import (
    Correlator,
    Direction,
    MeasurementSetting,
    StateVector,
    direction_from_label,
    exact_expectation,
    pauli_directions,
    pauli_operator,
    random_circuit_state,
    rotation_gate,
)
from .shadows import (
    XiTable,
    compute_xi,
    dense_mitigated_shadow,
    dense_shadow,
    fourier_shadow_trace,
    kappa,
    mitigated_shade,
    unmitigated_shade,
)
from .storage import (
    REPORT_COLUMNS,
    read_calibration,
    read_csv,
    read_tomography,
    write_calibration,
    write_csv,
    write_report,
    write_tomography,
)

__version__ = "0.1.0"
