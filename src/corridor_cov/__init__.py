"""Coverage probability of UAV corridor-assisted downlink networks.

Analytic engine (order statistics, conditional interference Laplace
transforms, dominant-interferer approximations) for 1D BPP and finite HPPP
spatial models with inverse-gamma shadowing and Nakagami-m fading, plus an
independent Monte Carlo simulator that validates every analytic expression,
a 2D-disc baseline, variable-height studies and measurement-trace replay.
"""

from .core import (
    BPP,
    ChannelParams,
    CorridorGeometry,
    Disc2D,
    FiniteHPPP,
    FixedHeight,
    InverseGammaShadowing,
    LinkDistanceDistribution,
    NakagamiFadingPower,
    NormalHeight,
    ParameterError,
    UniformHeight,
    db_to_linear,
    linear_to_db,
    link_distance_cdf,
    link_distance_pdf,
    path_loss,
    pathloss_value_cdf,
    pathloss_value_pdf,
)
from .quadrature import (
    IntegralResult,
    QuadratureConfig,
    QuadratureError,
    integrate,
)
from .analytic import (
    BppCoverageModel,
    CoverageQuery,
    HpppCoverageModel,
    InterferenceLaplaceBPP,
    InterferenceLaplaceHPPP,
    ReceivedPowerDistribution,
    bpp_model,
    coverage_probability,
    hppp_model,
)
from .simulator import (
    CoverageCurve,
    EmpiricalDistribution,
    GridMismatchError,
    MappingError,
    ReplayResult,
    SirTally,
    Trace,
    TraceFormatError,
    coverage_from_sirs,
    empirical_coverage,
    fit_normal_height,
    fit_uniform_height,
    height_model_kl_study,
    HeightKlResult,
    kl_divergence,
    simulate_sir,
    synthesize_trace,
    trace_replay,
)

__version__ = "0.1.0"
