"""Computations with automorphism groups of colored trees.

The package models the (q+1)-regular tree as a rank-one Euclidean building:
exact affine Coxeter complexes (``coxeter``), the colored tree with portraits
of automorphisms (``tree``), universal groups with prescribed local action
(``group``), the orbit algebra of bi-invariant kernels (``hecke``), and the
Gelfand-pair verdict pipeline (``gelfand``).  ``cli`` exposes the lot on the
command line; it is not imported here, so ``python -m building_forge.cli``
runs it cleanly.
"""

__version__ = "0.1.0"

from . import coxeter, gelfand, group, hecke, perms, tree

__all__ = ["cli", "coxeter", "gelfand", "group", "hecke", "perms", "tree", "__version__"]
