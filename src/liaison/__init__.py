"""Monomial ideals, liftings to linear configurations, and machine-checked
Gorenstein linkage bookkeeping."""

from .hilbert import HVector, lex_ideal_from_hvector
from .layers import decompose, hf_via_layers
from .lifting import LiftingMatrix, default_matrix, lift_ideal, point_model
from .linkage import (
    GlicciCertificate,
    glicci_certificate_artinian,
    glicci_certificate_borel,
    verify_certificate,
)
from .links import basic_double_link
from .monomials import Monomial, MonomialIdeal

__version__ = "0.1.0"

__all__ = [
    "HVector",
    "GlicciCertificate",
    "LiftingMatrix",
    "Monomial",
    "MonomialIdeal",
    "basic_double_link",
    "decompose",
    "default_matrix",
    "glicci_certificate_artinian",
    "glicci_certificate_borel",
    "hf_via_layers",
    "lex_ideal_from_hvector",
    "lift_ideal",
    "point_model",
    "verify_certificate",
]
