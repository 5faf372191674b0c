"""Photoacoustic simulation and attenuation-corrected back-projection
in weakly attenuating acoustic media."""

from .models import (
    AttenuationModel,
    ConstantModel,
    NswModel,
    PowerLawModel,
    TabulatedWeakModel,
    UnsupportedModelError,
    ValidationReport,
    eval_kappa,
    eval_kstar,
    k_infinity,
    model_from_spec,
    model_to_spec,
    validate_model,
)
from .wavefield import (
    Ellipse,
    Phantom,
    SensorArray,
    TimeGrid,
    WaveData,
    disk_phantom,
    make_sensors,
    make_shepp_logan,
    phantom_from_ellipses,
    spectral_forward,
)
from .attenuation import (
    AttenuationSystem,
    ConditioningError,
    KernelSeries,
    apply_attenuation,
    build_system,
    compute_r1,
    invert_attenuation,
    kernel_series,
)
from .recon import (
    ImageGrid,
    ReconImage,
    back_project,
    reconstruct_compensated,
    reconstruct_full,
    reconstruct_naive,
    time_differentiate,
    time_integrate,
    ubp_2d,
    ubp_3d_spherical,
)
from .experiments import (
    ConfigError,
    ScenarioConfig,
    ScenarioResult,
    ScenarioStageError,
    add_noise,
    cross_section,
    rel_l2_error,
    resample_data,
    run_scenario,
)
from .gridio import (
    load_image,
    load_wave,
    read_csv,
    read_grid,
    save_image,
    save_wave,
    write_csv,
    write_grid,
    write_image_pgm,
)

__version__ = "0.1.0"
