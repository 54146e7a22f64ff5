"""Car-following calibration and controller gain design for damping stop-and-go waves."""

__version__ = "0.1.0"

from .calibration import (
    CalibrationResult,
    GaConfig,
    calibrate_ga,
    calibrate_pairs,
    error_abs,
    error_mixed,
    error_rel,
    evaluate_fitness,
)
from .carfollowing import (
    Cav,
    ConstantProfile,
    FvdmParams,
    Hdv,
    LinearHdv,
    PiecewiseProfile,
    PlatoonSpec,
    SinusoidProfile,
    equilibrium_headway,
    fvdm_acceleration,
    leader_trajectory,
    optimal_velocity,
    ov_slope,
    simulate_follower,
    simulate_platoon,
    v_max,
)
from .smoothing import SmoothingConfig, differentiate, sema_smooth, smooth_trajectory
from .stability import (
    ControllerGains,
    EquilibriumSpec,
    FrequencyGrid,
    GainGridSpec,
    GainSearchResult,
    LinearizedHdv,
    StabilizedCount,
    cav_gain_sq,
    cav_string_stable,
    critical_frequency,
    hdv_gain_sq,
    linearize_hdv,
    n_safe,
    n_stable,
    numeric_critical_frequency,
    optimize_gains,
    platoon_critical_frequency,
)
from .trajectory_io import (
    Trajectory,
    TrajectoryRecord,
    VehiclePair,
    build_trajectories,
    generate_synthetic_pair,
    pair_leader_follower,
    parse_ngsim_csv,
)
