"""Exact affine Weyl group arithmetic and affine Schubert calculus.

The package computes, for every simple Lie type: root data and affine Dynkin
diagrams, finite and affine Weyl group element algebra, minimal coset
representatives and their Bruhat order, the star product on affine Schubert
classes with its segment factorization, the cells and cup ladder of the Levi
orbit quotients, and the resulting chain / duality / smooth-generator
classifications.  All arithmetic is exact.

The modules are the API: read each name from its module, as
``affschub.affine.enumerate_minreps``.  They are imported here eagerly, so
that their compile is part of ``import affschub``; ``cli`` and ``verify``
are left out.
"""

from . import cartan, weyl, affine, schubert, cohomology, classify, errors

__version__ = "0.1.0"
