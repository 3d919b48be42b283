"""Curve-keyed switching for multiplicative watermarking in control loops.

Layers, bottom up: input-file readers (`schema`), square roots mod s
(`field`), the curve group (`curve`), the keyed tap map (`switching`), the
watermark generator/remover pair (`watermark`), the scenario file (`scenario`),
the closed-loop simulator (`sim`) and analyses (`analysis`). `ecwm` is the CLI.
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
from .scenario import (
    AttackSpec,
    ControllerModel,
    DetectorModel,
    NoiseSpec,
    PlantModel,
    Scenario,
    ThresholdSpec,
    WatermarkSetup,
    apply_attack,
)
from .sim import SimTrace, calibrate_threshold, run_batch, run_scenario
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
