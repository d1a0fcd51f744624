"""Gaussian-state simulator for heralded Hong-Ou-Mandel interference from
fiber photon-pair sources behind gate+filter mode selection."""

from .grids import FrequencyGrid, angular_from_nm, nm_from_angular
from .modes import (
    FilterProfile,
    KernelMatrix,
    ModeBasis,
    build_kernel,
    effective_c,
    eigenvalue_curve,
    make_profile,
    rect_rect_basis,
    schmidt_decompose,
)
from .source import (
    PairModes,
    PumpPulse,
    RamanGain,
    SourceParams,
    SpoolMoments,
    calibrate_gain,
    default_raman_gain,
    factor_pair_amplitude,
    fwm_joint_amplitude,
    load_raman_gain,
    pair_production_probability,
    pump_spectrum,
    raman_moments,
    source_moments,
    thermal_occupation,
)
from .network import (
    DetectorModel,
    detection_mode_projection,
    hom_dip_width_estimate,
)
from .detection import (
    ClickQuery,
    coincidence_probability,
    no_click_expectation,
    singles_probability,
)
from .fock import (
    fock_oracle_click_probability,
    moments_from_state_spec,
    random_equivalence_comparison,
)
from .experiment import (
    DelayScan,
    Scenario,
    VisibilityFit,
    expected_counts,
    fit_visibility,
    load_scenario,
    preset_scenario,
    run_delay_scan,
)

__version__ = "0.1.0"
