"""Numerical laboratory for Lyapunov spectra of linear cocycles over a
compact genus-2 hyperbolic surface.

The package estimates the same spectrum by three independent routes --
Brownian trajectories, unit-speed geodesic rays, and heat-diffusion
expectations -- and ships the diagnostics that tie the routes together
(radial drift, geodesic shadowing, direction uniformity, semigroup and
Dynkin identities, circle-average estimates).
"""

from .hypgeo import (
    DiscPoint,
    GeometryError,
    MobiusMap,
    dist_P,
    mobius_point_chart,
    mobius_translation,
)
from .surface import (
    DeckWord,
    FuchsianGroup,
    SurfaceError,
    build_genus2,
    locate,
    track,
)
from .diffusion import (
    CheckReport,
    DiffusionError,
    LeafPath,
    RngStream,
    heat_kernel,
    heat_kernel_mass,
    sample_heat_endpoints,
    sample_path,
    sample_polar_endpoints,
)
from .cocycle import (
    CocycleError,
    Representation,
    Specialization,
    cocycle_of_word,
    diagonal_representation,
    estimate_regularity,
    evaluate,
    fuchsian_representation,
    specialize,
)
from .lyapunov import (
    LyapunovError,
    SpectrumReport,
    benettin_spectrum,
    brownian_norm_rate,
    check_exp_conversion,
    diffusion_spectrum,
    expansion_interval,
    expectation_functions,
    geodesic_norm_rates,
    geodesic_spectrum,
)
from .validate import (
    ScalarField,
    check_circle_vs_diffusion,
    check_dynkin,
    check_semigroup,
    circle_average,
    constant_field,
    diffuse,
    direction_distribution_check,
    dist_squared_field,
    exp_neg_dist_field,
    real_part_field,
    shadowing_report,
    smoothed_dist_field,
)

__version__ = "0.1.0"
