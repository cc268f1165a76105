"""regfman: canonical models of regular F-manifolds and Frobenius-metric
verification in truncated multivariate power series.

The toolkit builds the canonical block models of regular F-manifolds,
verifies their axioms as jet residuals, recovers rotation-coefficient data
of invariant metrics and tests the generalized Darboux-Egoroff conditions
against an independent curvature oracle, handles Saito bundles and
rank-one-pole connections in Birkhoff normal form, integrates
universal-deformation charts, and extends admissible pointwise pairings to
Frobenius metrics.
"""

__version__ = "0.1.0"

from .errors import RegfmanError
from .jets import (
    DEFAULT_ORDER,
    Jet,
    JetArray,
    JetSpace,
    contract,
    jet_space,
)
from .regend import (
    JordanSpectrum,
    characteristic_polynomial,
    cyclic_basis_representation,
    is_regular,
    jordan_spectrum,
    minimal_polynomial,
    same_conjugacy_class,
)
from .fman import (
    BracketConstants,
    FManifoldModel,
    GermIsomorphism,
    canonical_frame,
    check_fmanifold,
    check_frame_brackets,
    check_symmetry,
    check_symmetry_brackets,
    germ_isomorphism,
    mult_by_euler,
    product_model,
    standard_block,
    standard_model,
    symmetry_basis,
)
from .frob import (
    InvariantMetric,
    OneForm,
    RotationOperator,
    check_euler_rescaling,
    check_gamma,
    check_unit_flat,
    darboux_egoroff_residual,
    epsilon_metric,
    frobenius_verdict,
    gamma_operator,
    invert_oneform,
    levi_civita_curvature,
    metric_from_potential,
    metric_from_psi,
    psi_from_metric,
    structure_brackets,
)
from .saito import (
    BirkhoffConnection,
    SaitoBundle,
    birkhoff_flatness,
    birkhoff_to_saito,
    check_saito_axioms,
    check_saito_metric_axioms,
    fmanifold_from_saito,
    frobenius_from_saito,
)
from .malgrange import (
    DeformationSpec,
    InitialData,
    MalgrangeChart,
    b0_at,
    canonical_connection,
    check_integrality,
    check_universality_isomorphism,
    fmanifold_on_chart,
    initial_condition_extend,
    integrate_chart,
    validate_initial_data,
)
from .reports import Residual, ResidualReport

__all__ = [name for name in dir() if not name.startswith("_")]
