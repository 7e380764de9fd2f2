"""Exact affine Weyl group arithmetic and affine Schubert calculus.

The package computes, for every simple Lie type: root data and affine Dynkin
diagrams, finite and affine Weyl group element algebra, minimal coset
representatives and their Bruhat order, the star product on affine Schubert
classes with its segment factorization, the cells and cup ladder of the Levi
orbit quotients, and the resulting chain / duality / smooth-generator
classifications.  All arithmetic is exact.
"""

from .cartan import (
    LieType,
    RootDatum,
    convention_hash,
    exponents,
    minuscule_nodes,
    parse_type,
    root_datum,
)
from .weyl import GradedPoly, WeylElem, weyl_order
from .affine import (
    AffineElem,
    MinRepLevels,
    bruhat_leq,
    enumerate_minreps,
    format_element,
    is_antidominant,
    is_min_rep,
    min_rep,
    parse_element,
    reduced_word,
    seed_translation,
    translation,
)
from .schubert import (
    SchubertClass,
    generator_class,
    schubert_poincare,
    segment_factorize,
    segments,
    star,
    star_refactor_check,
    star_refolds,
)
from .cohomology import PDStatus, chain_coeffs, levi_nodes, pd_status
from .classify import TypeReport, bott_nodes, classify_all, type_report
from .errors import BoundExceededError, ParseError

__version__ = "0.1.0"
