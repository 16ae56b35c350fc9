"""singhyp: a pseudospectral laboratory for 1-D wave equations with
time-singular, spatially growing coefficients.

Subpackages by role:

* :mod:`singhyp.structure` -- singularity exponents, structure functions,
  phase-space zones, loss scale.
* :mod:`singhyp.quantize`  -- periodic grid, DFT, multipliers, Kohn-Nirenberg
  operators, loss operator, weighted Sobolev norms.
* :mod:`singhyp.symbols`   -- coefficient families, excision, characteristic
  root, auxiliary H symbol, estimate-fitting reports.
* :mod:`singhyp.solver`    -- graded-mesh RK4 integration and the first-order
  system residual.
* :mod:`singhyp.analysis`  -- counterexample oracles, loss slopes, cones,
  energy monitoring, lambda fitting.
* :mod:`singhyp.cli`       -- config-driven experiment runner.
"""

__version__ = "0.1.0"

from .structure import (ProfileError, SingularityProfile, StructurePair, Zone, bracket,
                        classify_zone, constant_pair, lambda_loss, make_profile, one, planck,
                        poly_pair, time_split, zero)
from .quantize import (GridSpec, OverflowGuardError, SobolevIndex, apply_kn, apply_multiplier,
                       dft_forward, dft_inverse, l2_norm, loss_operator, sobolev_norm)
from .symbols import (CharacteristicRoot, CoefficientFamily, EllipticityError, QuadratureError,
                      TimeQuadrature, char_root, cut, dcut, example_coefficient, excise,
                      fit_blowup_exponents, free_wave, graded_lattice, h_symbol, l1_defect,
                      reference_wave, root_estimate_report, separable_family,
                      symbol_class_report, theorem_coefficient)
from .solver import (CauchyProblem, SolverError, SupportError, TimeMesh, Trajectory,
                     assemble_rhs, graded_mesh, integrate, reduce_to_system, system_residual)
from .analysis import (BandError, ConeSpec, EnergyTrace, GaussianBump, LambdaFitError, TrigPoly,
                       closed_form, cone_check, counterexample_coefficients,
                       counterexample_family, drift_argument, energy_monitor, falling_factorial,
                       fit_lambda, loss_slope, propagation_speed, random_trig_poly,
                       residual_check, support_radius)
