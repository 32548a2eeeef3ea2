"""weylkit: exact computer algebra for Weyl algebras and D-module checks.

The package provides normally ordered arithmetic in the Weyl algebra with
rational coefficients, left Groebner bases and ideal membership, Bernstein
filtration characteristic varieties with holonomicity and simplicity
certificates, delta-type module actions with partial Fourier transport,
Lie subalgebras acting through vector fields, and a scenario runner that
turns declarative JSON check lists into deterministic verification reports.
"""

__version__ = "0.1.0"

from .charvar import (
    HolonomicityCertificate,
    ImproperIdealError,
    characteristic_dimension,
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
    annihilates,
    certify_annihilator,
    delta,
    delta_to_polynomial,
    fourier_intertwines,
    fourier_transport_check,
    interpolation_lift,
    lagrange_projector,
    section_from_operator,
)
from .groebner import (
    GroebnerBasis,
    LeftIdeal,
    PairLimitExceeded,
    buchberger,
    ideal_contains,
    ideal_equal,
    module_multiply_ideal,
    reduce_element,
    s_polynomial,
)
from .lie import (
    Character,
    LieSubalgebra,
    bracket,
    character_from_values,
    conjugate_subalgebra,
    elementary,
    parse_matrix_expr,
    rho,
    tangent_rank_at,
    twisted_generators,
    variety_stable,
    vector_field,
    vector_field_operator,
)
from .monomial import Monomial
from .orders import DEFAULT_ORDER, TermOrder
from .parser import ParseError, parse_expression, parse_polynomial
from .poly import Poly
from .report import render_json, render_markdown, strip_timing
from .runner import run_scenario
from .scenario import Scenario, ScenarioError, eval_int_expr, load_scenario, substitute
from .weyl import (
    PartialFourierSpec,
    WeylElement,
    bernstein_degree,
    commutator,
    partial_fourier,
    principal_symbol,
    weyl_from_poly,
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
    "PartialFourierSpec",
    "Poly",
    "Scenario",
    "ScenarioError",
    "TermOrder",
    "WeylElement",
    "act",
    "act_on_polynomial",
    "annihilates",
    "bernstein_degree",
    "bracket",
    "buchberger",
    "certify_annihilator",
    "character_from_values",
    "characteristic_dimension",
    "commutator",
    "conjugate_subalgebra",
    "DEFAULT_ORDER",
    "delta",
    "delta_to_polynomial",
    "elementary",
    "eval_int_expr",
    "fourier_intertwines",
    "fourier_transport_check",
    "graded_ideal",
    "ideal_contains",
    "ideal_equal",
    "interpolation_lift",
    "krull_dimension",
    "lagrange_projector",
    "load_scenario",
    "module_multiply_ideal",
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
    "s_polynomial",
    "section_from_operator",
    "simplicity_certificate",
    "strip_timing",
    "substitute",
    "tangent_rank_at",
    "twisted_generators",
    "variety_stable",
    "vector_field",
    "vector_field_operator",
    "weyl_from_poly",
]
