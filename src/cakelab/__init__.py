"""Exact-arithmetic laboratory for cake cutting over radical field extensions.

Everything is exact: rational arithmetic, polynomial algebra, real
algebraic numbers with certified comparison, field-tower degree
accounting, protocol simulation through cut/eval queries, and
mechanically checked impossibility certificates.
"""

from .algebraic import AlgebraicNumber, minimal_polynomial, nth_root, sign
from .cake import (
    Allocation,
    FairnessReport,
    Measure,
    Session,
    Transcript,
    check_fairness,
    max_welfare,
    welfare,
)
from .certificates import (
    Certificate,
    EquitableCutpoint,
    OsadaResult,
    Solvability,
    TrinomialClass,
    TrinomialFamily,
    TrinomialStatus,
    Verdict,
    check_impossibility_equitable,
    check_impossibility_welfare,
    equitable_equation,
    isolate_equitable_cutpoint,
    osada_sd,
    selmer_classify,
    solvability_verdict,
    verify_certificate,
)
from .dyadic import DyadicInterval
from .errors import (
    CakelabError,
    DegreeCapExceeded,
    InfeasibleAmountError,
    InvalidMeasureError,
    MembershipUndecidable,
    ParseError,
    QueryDomainError,
    TowerCertificateError,
    UncoveredCaseError,
    ZeroPolynomialError,
)
from .factoring import (
    Eisenstein,
    Factorization,
    FactorSearchBudget,
    eisenstein,
    factor_over_Q,
    is_irreducible,
    set_degree_cap,
)
from .parsing import format_measures, parse_measures, parse_polynomial
from .polys import (
    Poly,
    poly_gcd,
    rational_roots,
    refine_root,
    resultant,
    sturm_isolate,
)
from .protocols import (
    ProtocolRun,
    cut_and_choose,
    even_paz,
    last_diminisher,
    run_protocol,
    selfridge_conway,
)
from .tower import ExtensionStep, Lemma1Report, StepKind, Tower, degree_obstruction

__version__ = "0.1.0"

__all__ = [
    "AlgebraicNumber",
    "Allocation",
    "CakelabError",
    "Certificate",
    "DegreeCapExceeded",
    "DyadicInterval",
    "Eisenstein",
    "EquitableCutpoint",
    "ExtensionStep",
    "FactorSearchBudget",
    "Factorization",
    "FairnessReport",
    "InfeasibleAmountError",
    "InvalidMeasureError",
    "Lemma1Report",
    "Measure",
    "MembershipUndecidable",
    "OsadaResult",
    "ParseError",
    "Poly",
    "ProtocolRun",
    "QueryDomainError",
    "Session",
    "Solvability",
    "StepKind",
    "Tower",
    "TowerCertificateError",
    "Transcript",
    "TrinomialClass",
    "TrinomialFamily",
    "TrinomialStatus",
    "UncoveredCaseError",
    "Verdict",
    "ZeroPolynomialError",
    "check_fairness",
    "check_impossibility_equitable",
    "check_impossibility_welfare",
    "cut_and_choose",
    "degree_obstruction",
    "eisenstein",
    "equitable_equation",
    "even_paz",
    "factor_over_Q",
    "format_measures",
    "is_irreducible",
    "isolate_equitable_cutpoint",
    "last_diminisher",
    "max_welfare",
    "minimal_polynomial",
    "nth_root",
    "osada_sd",
    "parse_measures",
    "parse_polynomial",
    "poly_gcd",
    "rational_roots",
    "refine_root",
    "resultant",
    "run_protocol",
    "selfridge_conway",
    "selmer_classify",
    "set_degree_cap",
    "sign",
    "solvability_verdict",
    "sturm_isolate",
    "verify_certificate",
    "welfare",
]
