"""coxrep: exact reflection representations of 2-spherical Coxeter systems.

The package constructs, over real cyclotomic number fields, the reflection
representations of an irreducible 2-spherical Coxeter system from a rooted
spanning tree of its diagram and a parameter system, then analyzes them:
Cartan matrices and discriminants, product orders, equivalence intertwiners,
invariant sesquilinear forms and dual representations.
"""

from .analysis import (
    EquivalenceViolation,
    OrderMismatch,
    cartan_coefficient,
    characters_distinguish,
    circuit_trace,
    commutant_dimension,
    is_reflection,
    product_analysis,
    unipotent_equivalences,
    verify_good_morphism,
)
from .cartanpoly import (
    OrderClass,
    classify_pair,
    order_poly,
    order_poly_full,
    order_poly_roots,
)
from .construction import (
    CartanMatrixData,
    ParameterSystem,
    ReflectionRep,
    build,
    cartan_matrix,
    conductor_for,
    geometric_parameters,
    geometric_representation,
    root_change_intertwiner,
    tree_change_intertwiner,
)
from .cyclotomic import (
    FieldContext,
    FieldElement,
    IntPolynomial,
    field_context,
    minimal_poly_real_cyclotomic,
)
from .forms import (
    Automorphism,
    DualRep,
    GramMatrix,
    NoInvariantForm,
    build_form,
    dual_representation,
    form_exists,
    form_space_dimension,
    gram_cartan_relation,
    tree_product,
    verify_invariance,
)
from .graph import (
    ChordCircuit,
    Diagram,
    SpanningTree,
    chord_circuit,
    precedes,
    spanning_tree,
    spanning_tree_from_edges,
    validate,
)

__all__ = [
    "Automorphism", "CartanMatrixData", "ChordCircuit", "Diagram",
    "DualRep", "EquivalenceViolation", "FieldContext", "FieldElement",
    "GramMatrix", "IntPolynomial", "NoInvariantForm",
    "OrderClass", "OrderMismatch", "ParameterSystem", "ReflectionRep",
    "SpanningTree", "build", "build_form", "cartan_coefficient",
    "cartan_matrix", "characters_distinguish", "chord_circuit",
    "circuit_trace", "classify_pair", "commutant_dimension", "conductor_for",
    "dual_representation", "field_context", "form_exists",
    "form_space_dimension", "geometric_parameters",
    "geometric_representation", "gram_cartan_relation", "is_reflection",
    "minimal_poly_real_cyclotomic", "order_poly", "order_poly_full",
    "order_poly_roots", "precedes", "product_analysis",
    "root_change_intertwiner", "spanning_tree", "spanning_tree_from_edges",
    "tree_change_intertwiner", "tree_product",
    "unipotent_equivalences", "validate", "verify_good_morphism",
    "verify_invariance",
]

__version__ = "0.1.0"
