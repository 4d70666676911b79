"""Fuzzy multimodal Kripke models over linearly ordered Heyting algebras.

Exact (rational) model checking for modal formulae, the seven kinds of
greatest (pre)simulations and (pre)bisimulations between two models, weak
relations defined by formula sets, and an empirical Hennessy-Milner
harness over the depth-bounded formula classes.
"""

from .algebra import Algebra, AlgebraError, format_value, parse_value
from .fuzzrel import FuzzyMat, FuzzyVec, nonzero_profile
from .syntax import (
    And,
    Box,
    BoxInv,
    Const,
    Diamond,
    DiamondInv,
    Formula,
    FormulaEnumeration,
    Fragment,
    Implies,
    ParseError,
    Var,
    classify,
    dual,
    modal_depth,
    parse,
    parse_corpus,
    to_text,
)
from .model import KripkeModel, ModelError, phi_equivalent
from .bisim import SimType, check_conditions, greatest_pre
from .weak import (
    check_composition_closed,
    check_union_closed,
    check_weak,
    duality_transfer,
    greatest_weak,
    psi_equivalent,
)
from .hm import (
    hm_check,
    invariance_check,
    noninvariance_demo,
)

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "AlgebraError",
    "And",
    "Box",
    "BoxInv",
    "Const",
    "Diamond",
    "DiamondInv",
    "Formula",
    "FormulaEnumeration",
    "Fragment",
    "FuzzyMat",
    "FuzzyVec",
    "Implies",
    "KripkeModel",
    "ModelError",
    "ParseError",
    "SimType",
    "Var",
    "check_composition_closed",
    "check_conditions",
    "check_union_closed",
    "check_weak",
    "classify",
    "dual",
    "duality_transfer",
    "format_value",
    "greatest_pre",
    "greatest_weak",
    "hm_check",
    "invariance_check",
    "modal_depth",
    "noninvariance_demo",
    "nonzero_profile",
    "parse",
    "parse_corpus",
    "parse_value",
    "phi_equivalent",
    "psi_equivalent",
    "to_text",
]
