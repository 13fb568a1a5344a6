"""Higher-order Hochschild (co)homology of finite pointed simplicial sets.

The library computes the (co)chain complexes a finite pointed simplicial set
assigns to a finite-dimensional algebra and multimodule, in exact arithmetic,
and decides with certificates whether a simplicial set supports
noncommutative coefficients at all: a set of dimension >= 2 never does (a
four-simplex witness shows it), and a one-dimensional set is decided by
construction or by search, which may also fail or be inconclusive.
"""

from .exact import Field, Matrix, QQ, mat_mul, nullspace, rank
from .algebras import (Algebra, center, commutator_span_dim, custom_algebra,
                       cyclic_group_algebra, is_commutative, matrix_algebra, multiply,
                       symmetric_group_algebra_s3, trunc_poly, upper_tri)
from .modules import (Action, Multimodule, default_assignment, dual_module,
                      multi_regular, regular_bimodule, symmetric_module,
                      tensor_square_bimodule, validate as validate_module,
                      validate_assignment)
from .simplicial import (NondegSimplex, SimplexRef, SimplicialSet, circle,
                         from_file, interval, point, sphere2, to_file,
                         wedge_of_circles)
from .ordering import (ActionClass, ActionClassReport,
                       InconclusiveSearch, NncmoResult, OrderingAssignment, Witness,
                       assignment_from_level_orders, check_nncmo, check_nncmo_full,
                       classify_actions, classify_nncmo, composition_induced_order,
                       cyclic_ordering, search_nncmo)
from .functors import (PointedMap, compose, hom_functor_on_morphism,
                       identity_map, loday_on_morphism, pointed_map)
from .hochschild import (CHAIN, COCHAIN, Complex, ComplexSpec, OrderingRefusal,
                         betti, build_complex, classical_complex, cosimplicial_check,
                         make_spec, pair_constraints)

__version__ = "0.1.0"
