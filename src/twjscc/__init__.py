"""Finite-alphabet toolkit for adaptive two-way lossy source-channel coding."""

from .probability import (
    Alphabet,
    ConditionalPmf,
    JointPmf,
    conditional_mutual_information,
    marginalize,
    mutual_information,
)
from .models import (
    DistortionMeasure,
    JointSource,
    TwoWayChannel,
    hamming,
    preset_bmc,
    preset_crossed_bitpipes,
    preset_dueck,
    preset_example2_source,
    preset_independent_bernoulli,
)
from .coded_channel import Configuration
from .markov import (
    MarkovSystem,
    build_chain,
    reconstruction_distortions,
    stationary_distribution,
    stationary_prev_law,
)
from .conditions import (
    AdaptiveChannelScheme,
    ConditionReport,
    HybridScheme,
    WZScheme,
    eval_adaptive,
    eval_hybrid,
    eval_sscc,
    lift_hybrid,
)
from .rate_distortion import RdCurve, rd_curve, rd_function, wz_curve, wz_function
from .region import RegionPoint, convexify, search_region, shannon_nonadaptive_bound
from .simulate import SimParams, SimReport, generate_codebooks, run_simulation

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
