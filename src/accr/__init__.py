"""Numerical verification toolkit for almost contact complex Riemannian
manifolds: concrete models, structure and curvature tensors, and every
identity of the theory as a quantified residual check."""

from .conformal import (
    TransformParams,
    apply_cct,
    eta_complex_einstein_check,
    homothetic_laws,
    preservation_at,
)
from .connection import hsphere_curvature, levi_civita, riemann
from .corpus import BUILTINS, builtin, cross_representation_check, default_corpus
from .frame_algebra import MetricMatrix, kulkarni_nomizu, standard_signature
from .models import (
    ConeModel,
    chart_model,
    holomorphic_base,
    lie_group_model,
    product_extension,
)
from .sasaki import (
    check_corollary,
    check_defining_conditions,
    check_nabla_phi,
    check_nijenhuis_form,
    cone_holomorphic_residual,
    gauss_residual,
)
from .structure import (
    AccrStructure,
    Field,
    PointFields,
    standard_structure,
    theorem_3_4_residual,
    validate_structure,
)
from .verify import VerifyConfig, report_to_json, run_all

__version__ = "0.1.0"
