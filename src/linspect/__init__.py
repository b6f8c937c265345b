"""linspect: behavioural relations between finite pointed structures via
unravelings, back-and-forth games, and modal formula synthesis."""

from .structures import (
    PointedStructure,
    Signature,
    Structure,
    ball,
    copies,
    disjoint_union,
    gaifman_graph,
    load_pointed,
    load_structure,
    product,
    validate,
)
from .traces import (
    LabelledTrace,
    ReadyTrace,
    Run,
    build_trace_automaton,
    check_trace_relation,
    enumerate_runs,
    traces_upto,
)
from .unravel import (
    ForestObject,
    as_pointed,
    coreflect,
    ml_graft,
    ml_unravel,
    pr_unravel,
    tree_unravel,
)
from .games import (
    GameResult,
    PathHandle,
    path_iso,
    solve_back_and_forth,
    solve_bisim,
    solve_ef,
    solve_ppeb,
)
from .logic import (
    Formula,
    classify,
    eval_formula,
    modal_depth,
    parse_formula,
    render_formula,
    synth_characteristic,
    synth_distinguishing,
    synth_trace_formula,
)
from .oracle import MorphismWitness, find_morphism, replay_prop86, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
