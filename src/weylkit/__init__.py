"""weylkit: exact computer algebra for Weyl algebras and D-module checks.

The package provides normally ordered arithmetic in the Weyl algebra with
rational coefficients, left Groebner bases and ideal membership, Bernstein
filtration characteristic varieties with holonomicity and simplicity
certificates, delta-type module actions with their partial Fourier images,
Lie subalgebras acting through vector fields, and a scenario runner that
turns declarative JSON check lists into deterministic verification reports.
"""

__version__ = "0.1.0"

from .charvar import (
    HolonomicityCertificate,
    ImproperIdealError,
    graded_ideal,
    krull_dimension,
    multiplicity,
    simplicity_certificate,
)
from .deltamod import (
    AnnihilatorCertificate,
    DeltaModule,
    DeltaSection,
    act,
    act_on_polynomial,
    certify_annihilator,
    delta,
    delta_to_polynomial,
    interpolation_lift,
    lagrange_projector,
    section_from_operator,
)
from .groebner import (
    GroebnerBasis,
    LeftIdeal,
    PairLimitExceeded,
    buchberger,
    reduce_element,
)
from .lie import (
    Character,
    LieSubalgebra,
    character_from_values,
    conjugate_subalgebra,
    parse_matrix_expr,
    rho,
    tangent_rank_at,
    twisted_generators,
)
from .monomial import Monomial
from .orders import DEFAULT_ORDER, TermOrder
from .parser import ParseError, parse_expression, parse_polynomial
from .poly import Poly
from .report import render_json, render_markdown, strip_timing
from .runner import run_scenario
from .scenario import Scenario, ScenarioError, eval_int_expr, load_scenario, substitute
from .weyl import (
    WeylElement,
    bernstein_degree,
    partial_fourier,
    principal_symbol,
)

__all__ = [
    "__version__",
    "AnnihilatorCertificate",
    "Character",
    "DeltaModule",
    "DeltaSection",
    "GroebnerBasis",
    "HolonomicityCertificate",
    "ImproperIdealError",
    "LeftIdeal",
    "LieSubalgebra",
    "Monomial",
    "PairLimitExceeded",
    "Poly",
    "Scenario",
    "ScenarioError",
    "TermOrder",
    "WeylElement",
    "act",
    "act_on_polynomial",
    "bernstein_degree",
    "buchberger",
    "certify_annihilator",
    "character_from_values",
    "conjugate_subalgebra",
    "DEFAULT_ORDER",
    "delta",
    "delta_to_polynomial",
    "eval_int_expr",
    "graded_ideal",
    "interpolation_lift",
    "krull_dimension",
    "lagrange_projector",
    "load_scenario",
    "multiplicity",
    "ParseError",
    "parse_expression",
    "parse_matrix_expr",
    "parse_polynomial",
    "partial_fourier",
    "principal_symbol",
    "reduce_element",
    "render_json",
    "render_markdown",
    "rho",
    "run_scenario",
    "section_from_operator",
    "simplicity_certificate",
    "strip_timing",
    "substitute",
    "tangent_rank_at",
    "twisted_generators",
]
