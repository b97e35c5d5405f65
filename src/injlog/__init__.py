"""Deduction and semantic checking for injectivity of finite structures."""

from .core import (
    Category,
    CategoryError,
    CoconeCheckReport,
    CoconeFailure,
    ConsequenceVerdict,
    InjectivityResult,
    MorphismSet,
    MorRef,
    ObjRef,
    WidePushoutResult,
    semantic_consequence,
)
from .graphs import (
    Graph,
    GraphCategory,
    GraphHom,
    clique,
    empty_graph,
    graph_classes,
    loop_point,
)
from .dsl import (
    Diagnostic,
    DslError,
    Workspace,
    parse,
    parse_proof_text,
    print_workspace,
    proof_to_text,
)
from .lattice import (
    LatticeCategory,
    LatticeError,
    LatticePresentation,
    presentation_from_pairs,
    random_lattice,
    validate,
)
from .sentences import render_regular_sentence

__version__ = "0.1.0"

__all__ = [
    "Category",
    "CategoryError",
    "CoconeCheckReport",
    "CoconeFailure",
    "ConsequenceVerdict",
    "Diagnostic",
    "DslError",
    "Graph",
    "GraphCategory",
    "GraphHom",
    "InjectivityResult",
    "LatticeCategory",
    "LatticeError",
    "LatticePresentation",
    "MorphismSet",
    "MorRef",
    "ObjRef",
    "WidePushoutResult",
    "Workspace",
    "clique",
    "empty_graph",
    "graph_classes",
    "loop_point",
    "parse",
    "parse_proof_text",
    "presentation_from_pairs",
    "print_workspace",
    "proof_to_text",
    "random_lattice",
    "render_regular_sentence",
    "semantic_consequence",
    "validate",
]
