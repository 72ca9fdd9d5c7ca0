"""The seeded generators of ``tests/inputs.py`` give the texts they always
gave: each digest below was taken from the generators before they moved
into the catalogue, so a rewrite of a family that changes one draw, one
separator or one name fails here before it changes what the differential
runner or a property test's examples compare."""

import random
from hashlib import sha256

from tagmap import render_spec

from inputs import (
    disjunctive_rules,
    nested_tagset,
    positional_rules,
    spec_expr,
    spec_names,
)


def _digest(texts):
    h = sha256()
    for text in texts:
        h.update(text.encode() + b"\0")
    return h.hexdigest()


def test_random_tagsets_rules_and_queries():
    # the 30 tagsets of tests/differential.py
    assert _digest(part for i in range(30)
                   for part in nested_tagset(random.Random(f"{i}:tagset"))) == (
        "d78231ee19df6534c63b8c723125969dd89dfa18bf1d2eaa2abf282ff1d0c3c3")


def test_disjunctive_rules():
    assert _digest([disjunctive_rules(random.Random("1:disjunctive"))]) == (
        "7c7fcb196ce64d83193421f0c5d3262980df3e603a233dbd0594ddca22295714")


def test_positional_rules():
    # the three sets of tests/differential.py, up to 2,316 tags
    assert _digest(positional_rules(n, n - 1, coarse=coarse, sparse=(1, 2))
                   for n, coarse in ((5, (1, 2)), (6, (1, 2)), (7, (1, 2, 3)))) == (
        "240a6f431722294f10a4470f02fc0dbc02058992e6a97015e117aa6df20d487d")


def test_spec_expressions(graph):
    # the first 5,000 expressions of acceptance criterion 5's stream
    names = spec_names(graph)
    rng = random.Random(90125)
    assert _digest(render_spec(spec_expr(rng, names)) for _ in range(5000)) == (
        "502a6381415cbac59a635c728f3324ce73eb77266e847d93aab5f16b138a3ab4")
