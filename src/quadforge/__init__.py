"""quadforge: exhaustive verification of the thick generalized quadrangles
admitting a point- and line-primitive PSL(2,q) automorphism group.

The library re-runs every machine-checkable step of the case analysis:
exact GF(p^f) arithmetic, PSL/PGL(2,q) computations on integer element
ids (`indexed_group`), coset-geometry construction with full quadrangle
axiom checking, and the Diophantine eliminations for every
maximal-subgroup case pair.  The single surviving example is the
15-point symplectic quadrangle of order 2 at q = 9.
"""

__version__ = "0.1.0"

from .gfq import FieldElement, FieldSpec, make_field
from .psl2 import (
    GroupSpec,
    IndexedGroup,
    centralizer,
    indexed_group,
    involution_class,
    order3_class,
    pgl,
    psl,
)

__all__ = [
    "FieldElement",
    "FieldSpec",
    "GroupSpec",
    "IndexedGroup",
    "centralizer",
    "indexed_group",
    "involution_class",
    "make_field",
    "order3_class",
    "pgl",
    "psl",
]
