"""Computations with automorphism groups of colored trees.

The package models the (q+1)-regular tree as a rank-one Euclidean building:
exact affine Coxeter complexes (``coxeter``), color words (``words``), the
colored tree with portraits of automorphisms (``tree``), universal groups with prescribed local action
(``group``), the orbit algebra of bi-invariant kernels (``hecke``), and the
Gelfand-pair verdict pipeline (``gelfand``).  ``cli`` exposes the lot on the
command line.  No submodule is imported here: import the ones you use
(``from building_forge import tree``), so that a command loads only what it
runs.
"""

__version__ = "0.1.0"
