"""phaseloc: phase-based passive UHF-RFID tag positioning.

Wrapped-phase reads collected along an antenna trajectory are scored
against candidate tag positions with a family of likelihood kernels
(naive, cosine, sine, weighted) plus coherent-sum and CDF-weighted
baselines, each chosen by a MethodSpec, over grid holograms with
Monte-Carlo benchmarking on top.
"""

from .likelihood import (
    BRANCH_NEAREST,
    BRANCH_NEGATIVE,
    BRANCH_NONNEGATIVE,
    METHOD_NAMES,
    DifferentialScheme,
    MethodSpec,
    SamplingConditionError,
    delta_phi_d_mod,
    delta_phi_d_unwrap,
    objective_batch,
    sarfid_batch,
)
from .phase_model import (
    SPEED_OF_LIGHT,
    CarrierConfig,
    PhaseSample,
    Position3D,
    distance,
    predict_phase,
    predict_phase_unwrapped,
    wrap_2pi,
    wrap_pm_pi,
)
from .solver import (
    GridEvaluator,
    Hologram,
    RefineResult,
    SearchRegion,
    TagEstimate,
    argmax_estimate,
    evaluate_hologram,
    find_peak_regions,
    refine_local,
)
from .synthesis import (
    InterferenceSchedule,
    NoiseModel,
    Scenario,
    TagTruth,
    Trajectory,
    inject_jump,
    linear_track,
    synthesize,
)

__version__ = "0.1.0"
