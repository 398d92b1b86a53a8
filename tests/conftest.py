"""Shared randomized instance corpus for the acceptance suites.

Instances are generated once per session from a fixed seed and reused by
the soundness, equivalence, form and dual suites.  Label alphabets are
drawn per diagram so every label in 2..7 occurs across the corpus while
each single conductor stays at a practical size.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from coxrep.cartanpoly import admissible_root_indices
from coxrep.construction import (
    ParameterSystem,
    ReflectionRep,
    build,
    conductor_for,
    geometric_parameters,
)
from coxrep.graph import Diagram, SpanningTree, spanning_tree_from_edges, validate

SEED = 20250808
SUITE_SIZE = 200

# alphabets keep single-instance conductors moderate; all labels 3..7 are
# covered, and label 2 appears as every non-edge pair
ALPHABETS = [
    (3,), (4,), (5,), (6,), (7,),
    (3, 4), (3, 5), (3, 6), (3, 7), (4, 5), (4, 6), (5, 6), (4, 7), (6, 7), (5, 7),
    (3, 4, 5), (3, 4, 6), (4, 5, 6), (3, 5, 7), (3, 6, 7),
]


@dataclass
class SuiteInstance:
    index: int
    diagram: Diagram
    tree: SpanningTree
    params: ParameterSystem
    rep: ReflectionRep


def _random_connected_graph(rng: random.Random, rank: int) -> list[tuple[int, int]]:
    edges = set()
    for v in range(1, rank):
        edges.add((rng.randrange(v), v))
    extra = rng.choice([0, 0, 1, 1, 2]) if rank >= 3 else 0
    candidates = [e for e in itertools.combinations(range(rank), 2)
                  if e not in edges]
    rng.shuffle(candidates)
    edges.update(candidates[:extra])
    return sorted(edges)


def _random_tree(rng: random.Random, diagram: Diagram) -> SpanningTree:
    root = rng.randrange(diagram.rank)
    shuffled = list(diagram.edges)
    rng.shuffle(shuffled)
    chosen: list[tuple[int, int]] = []
    reach = {v: v for v in range(diagram.rank)}

    def find(v):
        while reach[v] != v:
            reach[v] = reach[reach[v]]
            v = reach[v]
        return v

    for s, t in shuffled:
        rs, rt = find(s), find(t)
        if rs != rt:
            reach[rs] = rt
            chosen.append((s, t))
    return spanning_tree_from_edges(diagram, root, chosen)


_CHORD_CHOICES = [1, 2, 3, -1, -2, Fraction(1, 2), Fraction(3, 2),
                  Fraction(-1, 3), Fraction(5, 2), 4]


def _random_params(rng: random.Random, tree: SpanningTree) -> ParameterSystem:
    diagram = tree.diagram
    params = geometric_parameters(tree)
    for edge in diagram.edges:
        options = admissible_root_indices(diagram.edge_label(*edge))
        params = params.with_alpha(edge, rng.choice(options))
    for chord in tree.chords:
        if rng.random() < 0.25:
            # an irrational scalar: shift the chord coefficient by one
            l = 1 + params.alpha(*chord)
        else:
            l = params.ctx.from_rational(rng.choice(_CHORD_CHOICES))
        params = params.with_chord(chord, l)
    return params


def make_instance(rng: random.Random, index: int) -> SuiteInstance:
    while True:
        rank = rng.choice([1, 2, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5])
        alphabet = ALPHABETS[index % len(ALPHABETS)] if rank > 1 else (3,)
        rows = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
        for s, t in _random_connected_graph(rng, rank):
            m = rng.choice(alphabet)
            rows[s][t] = rows[t][s] = m
        diagram = validate(rows)
        # keep the per-instance field degree practical for the timed suite
        if conductor_for(diagram) > 280:
            continue
        tree = _random_tree(rng, diagram)
        params = _random_params(rng, tree)
        return SuiteInstance(index, diagram, tree, params, build(tree, params))


_SUITE_CACHE: list[SuiteInstance] | None = None


def get_suite() -> list[SuiteInstance]:
    global _SUITE_CACHE
    if _SUITE_CACHE is None:
        rng = random.Random(SEED)
        _SUITE_CACHE = [make_instance(rng, i) for i in range(SUITE_SIZE)]
    return _SUITE_CACHE


@pytest.fixture(scope="session")
def suite_instances() -> list[SuiteInstance]:
    return get_suite()
