"""Higher-order Hochschild (co)homology of finite pointed simplicial sets.

The library computes the (co)chain complexes a finite pointed simplicial set
assigns to a finite-dimensional algebra and multimodule, in exact arithmetic,
and decides with certificates whether a simplicial set supports
noncommutative coefficients at all (it does exactly when it is one
dimensional).
"""

import os


def data_path(filename: str) -> str | None:
    """Absolute path of a bundled data file, if present."""
    p = os.path.join(os.path.dirname(__file__), "data", filename)
    return p if os.path.exists(p) else None


from .exact import Field, Matrix, QQ, mat_mul, nullspace, rank  # noqa: E402
from .algebras import (Algebra, center, commutator_span_dim, custom_algebra,  # noqa: E402
                       cyclic_group_algebra, is_commutative, matrix_algebra, multiply,
                       symmetric_group_algebra_s3, trunc_poly, upper_tri)
from .modules import (Action, Multimodule, default_assignment, dual_module,  # noqa: E402
                      multi_regular, regular_bimodule, symmetric_module,
                      tensor_square_bimodule, validate as validate_module,
                      validate_assignment)
from .simplicial import (NondegSimplex, SimplexRef, SimplicialSet, circle,  # noqa: E402
                         from_file, interval, point, sphere2, to_file,
                         wedge_of_circles)
from .ordering import (ActionClass, ActionClassReport, FiberOrdering,  # noqa: E402
                       InconclusiveSearch, NncmoResult, OrderingAssignment, Witness,
                       assignment_from_level_orders, check_nncmo, check_nncmo_full,
                       classify_actions, classify_nncmo, composition_induced_order,
                       cyclic_ordering, search_nncmo)
from .functors import (PointedMap, compose, hom_functor_on_morphism,  # noqa: E402
                       identity_map, loday_on_morphism, pointed_map)
from .hochschild import (CHAIN, COCHAIN, Complex, ComplexSpec, OrderingRefusal,  # noqa: E402
                         betti, build_complex, classical_complex, cosimplicial_check,
                         make_spec, pair_constraints)

__version__ = "0.1.0"
