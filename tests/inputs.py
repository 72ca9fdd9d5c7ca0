"""The generated inputs of the tests and of ``tests/differential.py``, each
family written once.  A generator draws only through five ``random.Random``
methods, which :class:`Draws` answers from hypothesis, so that a property
test draws and shrinks the inputs a seed gives the differential runner.
``tests/test_inputs.py`` pins the seeded outputs by their digests.
"""
from __future__ import annotations

import itertools
import re

import gen
from hypothesis import strategies as st

from tagmap.specexpr import And, Atom, BareAtom, Not, Or


class Draws:
    """The five ``random.Random`` methods, answered by a hypothesis ``draw``."""

    def __init__(self, draw):
        self.draw = draw

    def randint(self, a, b):
        return self.draw(st.integers(a, b))

    def randrange(self, stop):
        return self.draw(st.integers(0, stop - 1))

    def random(self):
        return self.draw(st.floats(0, 1, exclude_max=True))

    def choice(self, seq):
        return self.draw(st.sampled_from(seq))

    def sample(self, seq, k):
        return self.draw(st.permutations(seq))[:k]


def strategy(generate, *args, **kwargs):
    """The hypothesis strategy of ``generate(rng, *args, **kwargs)``."""
    return st.composite(lambda draw: generate(Draws(draw), *args, **kwargs))()


# -- nested tagsets with guarded features --------------------------------------


def nested_tagset(rng, nodes=(2, 6), features=(3, 8)) -> tuple[str, str, str]:
    """A tagset, its rules and a query.

    The tagset has ``nodes`` nested nodes under the root and ``features``
    features (inclusive ranges) of 1 to 3 values, each homed at any node
    and, with even odds, guarded by a disjunction of one to three earlier
    values.  The rules have one tag per leaf, ``[leaf]``, and one per
    feature value, ``[f = v]``; the query is the union of two of those
    specifications.
    """
    n_nodes = rng.randint(*nodes)
    names = ["root"] + [f"n{i}" for i in range(1, n_nodes + 1)]
    children: dict[int, list[int]] = {i: [] for i in range(n_nodes + 1)}
    for i in range(1, n_nodes + 1):
        children[rng.randrange(i)].append(i)

    def block(i):
        return " ".join(names[c] + (" { " + block(c) + " }" if children[c] else "")
                        for c in children[i])

    lines = ["tagset rand", "hierarchy { " + block(0) + " }"]
    declared: list[tuple[str, str]] = []
    for i in range(rng.randint(*features)):
        vs = [f"f{i}v{j}" for j in range(rng.randint(1, 3))]
        guard = ""
        if declared and rng.random() < 0.5:
            conds = rng.sample(declared, min(len(declared), rng.randint(1, 3)))
            guard = " when " + " or ".join(f"{f} = {v}" for f, v in conds)
        lines.append(f"feature f{i} for {rng.choice(names)}{guard} "
                     f"{{ {', '.join(vs)} }}")
        declared += [(f"f{i}", v) for v in vs]

    specs = {f"L{c}": names[c] for c in children if not children[c]}
    specs.update((f"T{v}", f"{f} = {v}") for f, v in declared)
    query = "[" + " | ".join(rng.sample(sorted(specs.values()), 2)) + "]"
    return "\n".join(lines) + "\n", _mapping("rand", specs), query


def _mapping(tagset: str, specs: dict[str, str]) -> str:
    """A rules file for ``tagset`` mapping each tag of ``specs`` to its
    specification."""
    rules = [f"mapping {tagset} for tagset {tagset}", "tags " + ", ".join(specs)]
    rules += [f"[pos = '{tag}'] => [{spec}]." for tag, spec in specs.items()]
    return "\n".join(rules) + "\n"


def two_leaf_tagset(*features: str) -> str:
    """A tagset of two leaves and ``features``, each a name with an optional
    guard and its values, homed at the root."""
    return "tagset shapes hierarchy { a b }\n" + "\n".join(
        "feature {} for root {}".format(*f.split(" ", 1)) for f in features)


def guarded_two_leaf_tagset(rng, features=(0, 4)) -> str:
    """:func:`two_leaf_tagset` of ``features`` features (an inclusive range)
    of 1 to 3 values, each guarded, with even odds, by a disjunction of one
    or two earlier values."""
    decls: list[str] = []
    declared: list[tuple[str, str]] = []
    for i in range(rng.randint(*features)):
        vs = [f"f{i}v{j}" for j in range(rng.randint(1, 3))]
        guard = ""
        if declared and rng.random() < 0.5:
            conds = rng.sample(declared, min(len(declared), rng.randint(1, 2)))
            guard = "when " + " or ".join(f"{f} = {v}" for f, v in conds) + " "
        decls.append(f"f{i} {guard}{{ {', '.join(vs)} }}")
        declared += [(f"f{i}", v) for v in vs]
    return two_leaf_tagset(*decls)


def two_leaf_rules(tagset: str) -> str:
    """Rules for a :func:`two_leaf_tagset` with one tag per leaf, ``[a]`` and
    ``[b]``, and one per feature value, ``[f = v]``, as
    :func:`nested_tagset` writes them."""
    specs = {"La": "a", "Lb": "b"}
    for f, values in re.findall(r"^feature (\S+) for root .*\{ (.*) \}$", tagset, re.M):
        specs.update((f"T{v}", f"{f} = {v}") for v in values.split(", "))
    return _mapping("shapes", specs)


def guarded_chain(n: int) -> tuple[str, str]:
    """A tagset of one leaf and ``n`` three-value features, each after the
    first appropriate only under the middle value of the one before, so
    that it has ``2 * n + 1`` classes; and rules with one tag per last
    value, ``[f{i} = c{i}]``."""
    lines = ["tagset chain", "hierarchy { x }",
             "feature f0 for root { a0, b0, c0 }"]
    lines += [f"feature f{i} for root when f{i - 1} = b{i - 1} "
              f"{{ a{i}, b{i}, c{i} }}" for i in range(1, n)]
    tags = [f"C{i}" for i in range(n)]
    rules = ["mapping chain for tagset chain", "tags " + ", ".join(tags)]
    rules += [f"[pos = 'C{i}'] => [f{i} = c{i}]." for i in range(n)]
    return "\n".join(lines) + "\n", "\n".join(rules) + "\n"


# -- specification expressions over a graph ------------------------------------

# cumulative odds of f = v, f != v, pos = node and a bare value; a bare node
# takes the rest
ATOM_ODDS = (0.35, 0.55, 0.75, 0.9)
# cumulative odds of an atom, & and |; ! takes the rest
EXPR_ODDS = (0.45, 0.70, 0.95)


def spec_names(graph):
    """The (feature, value) pairs, the nodes and the values that may stand
    bare, which numeric ones (pers) may not, of ``graph``."""
    pairs = [(f.name, v) for f in graph.features for v in f.values]
    return pairs, list(graph.nodes), [v for _, v in pairs if not v[0].isdigit()]


def spec_atom(rng, names):
    """One atom over ``names``, of a kind drawn with ``ATOM_ODDS``."""
    pairs, nodes, values = names
    r = rng.random()
    if r < ATOM_ODDS[1]:
        f, v = rng.choice(pairs)
        return Atom(f, "=" if r < ATOM_ODDS[0] else "!=", v)
    if r < ATOM_ODDS[2]:
        return Atom("pos", "=", rng.choice(nodes))
    return BareAtom(rng.choice(values if r < ATOM_ODDS[3] else nodes))


def spec_expr(rng, names, depth=3):
    """An expression of atoms, ``&``, ``|`` and ``!`` at most ``depth`` deep,
    so of at most ``2 ** depth`` atoms, its operators drawn with
    ``EXPR_ODDS``."""
    r = rng.random()
    if depth <= 0 or r < EXPR_ODDS[0]:
        return spec_atom(rng, names)
    if r >= EXPR_ODDS[2]:
        return Not(spec_expr(rng, names, depth - 1))
    op = And if r < EXPR_ODDS[1] else Or
    return op(spec_expr(rng, names, depth - 1), spec_expr(rng, names, depth - 1))


# -- rules over the benchmark's ladder tagset ----------------------------------


def _conj(atoms) -> str:
    return " & ".join(f"{f} = {v}" for f, v in atoms)


def positional_rules(n_features: int, fixed: int, coarse: tuple[int, ...] = (),
                     sparse: tuple[int, ...] = ()) -> str:
    """A rules file for ``gen.ladder_tagset(n_features)`` whose tags are
    positional, as MULTEXT-East morphosyntactic descriptions are: each name
    spells a leaf and feature values as digits.

    * ``P`` tags, one per leaf and values of ``f0`` to ``f{fixed-1}``, each a
      full conjunction of them; they are disjoint and cover the universe.
    * ``C`` tags, for each ``k`` in ``coarse`` one per leaf and values of the
      first ``k`` features; each strictly contains the ``P`` tags below it.
    * ``S`` tags, for each ``k`` in ``sparse`` one per values of the last
      ``k`` features under any leaf; they cut across every other tag, and a
      shorter one contains the longer ones that extend it.
    """
    values = range(gen.LADDER_VALUES)
    coverage: dict[str, list[tuple[str, str]]] = {}
    for prefix, k in [("P", fixed)] + [("C", k) for k in coarse]:
        for li, leaf in enumerate(gen.LADDER_LEAVES):
            for combo in itertools.product(values, repeat=k):
                coverage[prefix + str(li) + "".join(map(str, combo))] = [
                    ("pos", leaf),
                    *((f"f{f}", gen.ladder_value(f, v))
                      for f, v in enumerate(combo))]
    for k in sparse:
        first = n_features - k
        for combo in itertools.product(values, repeat=k):
            coverage["S" + "".join(map(str, combo))] = [
                (f"f{f}", gen.ladder_value(f, v))
                for f, v in enumerate(combo, start=first)]
    lines = ["mapping positional for tagset ladder",
             "tags " + ", ".join(coverage)]
    lines += [f"[pos = '{tag}'] => [{_conj(conj)}]." for tag, conj in coverage.items()]
    return "\n".join(lines) + "\n"


def disjunctive_rules(rng) -> str:
    """Rules for ``gen.ladder_tagset(3)`` whose 12 tags are each a union of
    two or three conjunctions of a leaf and one or two feature values."""
    tags = [f"D{i}" for i in range(12)]
    lines = ["mapping disjunctive for tagset ladder", "tags " + ", ".join(tags)]
    for tag in tags:
        conjs = []
        for _ in range(rng.randint(2, 3)):
            chosen = sorted(rng.sample(range(3), rng.randint(1, 2)))
            conjs.append(_conj([("pos", rng.choice(gen.LADDER_LEAVES))]
                               + _ladder_atoms(rng, chosen)))
        lines.append(f"[pos = '{tag}'] => [(" + ") | (".join(conjs) + ")].")
    return "\n".join(lines) + "\n"


def _ladder_atoms(rng, features):
    return [(f"f{f}", gen.ladder_value(f, rng.randrange(gen.LADDER_VALUES)))
            for f in features]


def ladder_conjunction(rng, n: int) -> list[tuple[str, str]]:
    """Atoms of one conjunction over an ``n``-feature ladder: a leaf and the
    first features (these nest), a leaf or none and any features (these
    overlap), or the last one or two features alone (these are sparse)."""
    kind = rng.choice(("nested", "overlap", "sparse"))
    leaf = [("pos", rng.choice(gen.LADDER_LEAVES))]
    if kind == "nested":
        return leaf + _ladder_atoms(rng, range(rng.randint(0, n)))
    if kind == "overlap":
        chosen = sorted(rng.sample(range(n), rng.randint(1, n)))
        return leaf * (rng.random() < 0.5) + _ladder_atoms(rng, chosen)
    return _ladder_atoms(rng, range(n - rng.randint(1, 2), n))


def ladder_rule_set(rng) -> tuple[int, str]:
    """The number of features, 2 to 4, of a ladder and a rules file of 1 to
    10 tags over it; a tag's rule is one conjunction, or a union of two or
    three whose cover may have several nodes.  The rules are shuffled, so
    that their file order is not the inventory order."""
    n = rng.randint(2, 4)
    specs = [" | ".join(f"({_conj(ladder_conjunction(rng, n))})"
                        for _ in range(rng.randint(1, 3)))
             for _ in range(rng.randint(1, 10))]
    tags = [f"T{i}" for i in range(len(specs))]
    rules = [f"[pos = '{t}'] => [{spec}]." for t, spec in zip(tags, specs)]
    lines = ["mapping random for tagset ladder",
             "tags " + ", ".join(tags + ["NOR"] * (rng.random() < 0.5)),
             *rng.sample(rules, len(rules))]
    return n, "\n".join(lines) + "\n"
