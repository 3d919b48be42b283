"""Curve-keyed switching for multiplicative watermarking in control loops.

Layers, bottom up: primality and square roots mod s (`field`), the curve group
(`curve`), the keyed switching map producing filter taps (`switching`), the
watermark generator/remover pair (`watermark`), the closed-loop simulator
(`sim`), and sweep/partition analyses (`analysis`). `ecwm` is the CLI.
"""

from .curve import INFINITY, Curve, Point
from .errors import (
    CapacityError,
    ConfigError,
    ConfigurationWarning,
    DivergenceError,
    EcwmError,
    InputError,
    ParameterError,
)
from .field import is_prime, sqrt_candidates
from .sim import (
    AttackSpec,
    ControllerModel,
    DetectorModel,
    NoiseSpec,
    PlantModel,
    Scenario,
    SimTrace,
    ThresholdSpec,
    WatermarkSetup,
    apply_attack,
    calibrate_threshold,
    run_batch,
    run_scenario,
)
from .switching import (
    FirParams,
    SwitchingConfig,
    SwitchOutcome,
    ThetaValidation,
    alpha1,
    alpha2,
    eta1,
    eta2,
    sigma,
    sigma_block,
    sigma_detail,
    validate_theta,
)
from .watermark import (
    StabilityReport,
    WatermarkUnit,
    apply_switch,
    check_stability,
    make_pair,
)

__version__ = "0.1.0"
