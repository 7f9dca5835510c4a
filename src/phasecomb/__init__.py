"""Worst-case burst sum-SNR analysis for two-branch analog phase combining.

The package models a broadcast burst of equally spaced packets received
through a two-antenna analog combiner whose branches apply linear-in-time
phases.  It evaluates the worst case (over the unknown constant phase
offset) of the summed packet SNR while the dominant-path phase difference,
the mean path gain and the angle of arrival drift over the burst, and it
selects the slope that stays robust against that drift.
"""

from .affine import AffineModel, least_squares_fit, taylor_omega, taylor_pathgain
from .antenna import (AntennaPattern, builtin_pattern, combined_mean_gain,
                      load_pattern_csv, worst_case_aoa)
from .errors import (DegenerateGeometry, DegenerateSamples, DomainX,
                     EmptyPattern, InvalidRequest, MalformedRow, NonFiniteX,
                     NonMonotonicAzimuth, NonPositiveC1, NonPositiveDistance,
                     PhasecombError, PositivityViolation, TooFewPackets,
                     ValidityViolation, ZeroGain)
from .experiments import (SweepResult, a_omega_range, loss_curve,
                          pl_slope_losses, speed_sweep, threshold_distance)
from .geometry import (ScenarioParams, aoa_exact, carrier_wavelength,
                       kmh_to_mps, omega_exact, propagation_distances,
                       transmitter_distance)
from .pathloss import PathlossModel, load_pathloss_config, mean_path_gain
from .snr import (DESIGN_SNR_SCALE, affine_coefficients, c_ratio_squared,
                  check_optimality, design_rule_alpha_star, f1, f2,
                  in_severe_set, in_zero_loss_set, interval_loss_bound,
                  j_affine, loss, loss_bounds, min_cross_term,
                  optimal_slope_set, sum_snr_combined, sum_snr_omega,
                  sum_snr_phi, sum_snr_pl, worst_case_y)
from .validation import CheckResult, run_validation

__version__ = "0.1.0"
