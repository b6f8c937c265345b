"""Shared generators and hypothesis strategies for small structures."""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import strategies as st

from linspect.oracle import gen_pointed, gen_structure, suite_signature
from linspect.structures import PointedStructure, Signature, Structure, dump_structure


def seeded_pair(seed: int, size: int = 4, n_props: int = 1, n_actions: int = 2):
    sig = suite_signature(n_props=n_props, n_actions=n_actions)
    rng = random.Random(seed)
    return gen_pointed(sig, size, rng), gen_pointed(sig, size, rng)


def seeded_pointed(seed: int, size: int = 4, n_props: int = 1, n_actions: int = 2):
    sig = suite_signature(n_props=n_props, n_actions=n_actions)
    return gen_pointed(sig, size, random.Random(seed))


@st.composite
def pointed_structures(draw, max_size: int = 4, n_props: int = 1, n_actions: int = 2):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    size = draw(st.integers(min_value=1, max_value=max_size))
    sig = suite_signature(n_props=n_props, n_actions=n_actions)
    return gen_pointed(sig, size, random.Random(seed))


@st.composite
def pointed_pairs(draw, max_size: int = 4, n_props: int = 1, n_actions: int = 2):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    size = draw(st.integers(min_value=1, max_value=max_size))
    return seeded_pair(seed, size=size, n_props=n_props, n_actions=n_actions)


@st.composite
def plain_structures(draw, max_size: int = 3):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    sig = Signature((("P", 1), ("R", 2)))
    return gen_structure(sig, max_size, random.Random(seed))


@st.composite
def modal_signatures(draw):
    """One or two propositions and one or two actions."""
    props = ("p", "q")[: draw(st.integers(min_value=1, max_value=2))]
    actions = ("a", "b")[: draw(st.integers(min_value=1, max_value=2))]
    return Signature(tuple((x, 1) for x in props) + tuple((x, 2) for x in actions), modal=True)


@st.composite
def modal_structures(draw, sig=None):
    """Pointed structures over one to three states, self-loops allowed, at
    most four pairs per action, over ``sig`` or a drawn modal signature."""
    sig = sig or draw(modal_signatures())
    universe = ("s0", "s1", "s2")[: draw(st.integers(min_value=1, max_value=3))]
    elements = st.sampled_from(universe).map(lambda e: (e,))
    interp = {x: draw(st.sets(elements)) for x in sig.propositions}
    pairs = list(product(universe, repeat=2))
    interp.update({x: draw(st.sets(st.sampled_from(pairs), max_size=4)) for x in sig.actions})
    return PointedStructure(Structure(sig, universe, interp), draw(st.sampled_from(universe)))


@st.composite
def three_arity_structures(draw, max_size: int = 3):
    """A unary, a binary and a ternary relation over one to ``max_size``
    elements."""
    universe = ("x", "y", "z")[: draw(st.integers(min_value=1, max_value=max_size))]
    sig = Signature((("P", 1), ("R", 2), ("T", 3)))
    interp = {
        name: frozenset(draw(st.sets(st.sampled_from(list(product(universe, repeat=arity))))))
        for name, arity in sig.relations
    }
    return Structure(sig, universe, interp)


def line(n: int, cycle: bool) -> str:
    """An a-line of n states with p at every third one, closed into a cycle
    or ending in a terminal state, as a structure file's text."""
    sig = Signature((("p", 1), ("a", 2)), modal=True)
    states = tuple(f"s{i}" for i in range(n))
    edges = {(states[i], states[(i + 1) % n]) for i in range(n if cycle else n - 1)}
    props = {(states[i],) for i in range(0, n, 3)}
    return dump_structure(Structure(sig, states, {"p": props, "a": edges}), "s0")


@pytest.fixture
def rng():
    return random.Random(20260809)
