"""Seeded input generators for the benchmark workloads.

Every generator draws only from the ``random.Random`` it is given, so the
same seed yields byte-identical inputs.  Nothing here calls into ``tagmap``:
the generators describe their inputs explicitly (class lists, rule sets,
the tokens of each corpus line) so that the references in ``ref.py`` can
check the program's outputs against them.
"""
from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

# -- ladder tagset -------------------------------------------------------------

LADDER_FEATURES = 6
LADDER_VALUES = 3
LADDER_LEAVES = ("l0", "l1", "l2")


def ladder_value(feature: int, value: int) -> str:
    return f"v{feature}_{value}"


def ladder_tagset(n_features: int = LADDER_FEATURES) -> str:
    """``n_features`` features of three values each, appropriate at every leaf."""
    lines = ["tagset ladder", "hierarchy { " + " ".join(LADDER_LEAVES) + " }"]
    for f in range(n_features):
        values = ", ".join(ladder_value(f, v) for v in range(LADDER_VALUES))
        lines.append(f"feature f{f} for root {{ {values} }}")
    return "\n".join(lines) + "\n"


def ladder_classes(n_features: int = LADDER_FEATURES
                   ) -> list[tuple[str, dict[str, str]]]:
    """Every terminal class of :func:`ladder_tagset`, spelled out."""
    out = []
    for leaf in LADDER_LEAVES:
        for combo in itertools.product(range(LADDER_VALUES), repeat=n_features):
            out.append((leaf, {f"f{f}": ladder_value(f, v)
                               for f, v in enumerate(combo)}))
    return out


# A conjunction is a tuple of (feature, value) atoms, ``pos`` naming a leaf.
Conj = tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class LadderRules:
    text: str
    inventory: tuple[str, ...]
    coverage: dict[str, Conj]
    exceptions: tuple[tuple[tuple[str, ...], str, Conj], ...]


def _conj_text(conj: Conj) -> str:
    return " & ".join(f"{f} = {v}" for f, v in conj)


def ladder_rules(rng: random.Random,
                 n_features: int = LADDER_FEATURES) -> LadderRules:
    """One tag per leaf and ``f0`` value, one overlapping tag, one inventory
    tag without a rule and three exception entries."""
    coverage: dict[str, Conj] = {}
    for li, leaf in enumerate(LADDER_LEAVES):
        for v in range(LADDER_VALUES):
            coverage[f"L{li}V{v}"] = (("pos", leaf), ("f0", ladder_value(0, v)))
    leaf_tags = list(coverage)
    fa, fb = rng.sample(range(1, n_features), 2)
    coverage["OVL"] = ((f"f{fa}", ladder_value(fa, rng.randrange(LADDER_VALUES))),
                       (f"f{fb}", ladder_value(fb, rng.randrange(LADDER_VALUES))))
    inventory = tuple(leaf_tags + ["OVL", "NOR"])

    exceptions = []
    for i, tag in enumerate(rng.sample(leaf_tags, 3)):
        words = tuple(f"w{i}{c}" for c in "ab"[:rng.randint(1, 2)])
        leaf = LADDER_LEAVES[rng.randrange(len(LADDER_LEAVES))]
        f = rng.randrange(1, n_features)
        into = (("pos", leaf),
                ("f0", ladder_value(0, rng.randrange(LADDER_VALUES))),
                (f"f{f}", ladder_value(f, rng.randrange(LADDER_VALUES))))
        exceptions.append((words, tag, into))

    lines = ["mapping ladder for tagset ladder", "tags " + ", ".join(inventory)]
    for tag, conj in coverage.items():
        lines.append(f"[pos = '{tag}'] => [{_conj_text(conj)}].")
    for words, tag, into in exceptions:
        lines.append(f"[{', '.join(words)}] << [pos = '{tag}'] >> "
                     f"[{_conj_text(into)}].")
    return LadderRules("\n".join(lines) + "\n", inventory, coverage,
                       tuple(exceptions))


# Query shapes as (disjuncts, atoms per disjunct).  The stream cycles through
# them in a fixed order so every run gets the same mix and only the atoms vary
# with the seed; that keeps the median comparable between seeds.  A single
# atom has only 18 spellings, too few for a stream without repeats.
LADDER_SHAPES = tuple(s for s in itertools.product((1, 2, 3), (1, 2, 3))
                      if s != (1, 1))


def ladder_queries(rng: random.Random,
                   n_features: int = LADDER_FEATURES):
    """Endless stream of distinct disjunctions of feature conjunctions."""
    seen: set[str] = set()
    for i in itertools.count():
        disjuncts, atoms = LADDER_SHAPES[i % len(LADDER_SHAPES)]
        for _ in range(1000):
            parts = []
            for _ in range(disjuncts):
                feats = rng.sample(range(n_features), atoms)
                parts.append(" & ".join(
                    f"f{f}={ladder_value(f, rng.randrange(LADDER_VALUES))}"
                    for f in feats))
            text = (parts[0] if disjuncts == 1
                    else " | ".join(f"({p})" for p in parts))
            if text not in seen:
                break
        else:
            raise RuntimeError(f"no new query of shape {disjuncts}x{atoms} left")
        seen.add(text)
        yield text


# -- fixture query stream -------------------------------------------------------


@dataclass(frozen=True)
class FixtureModel:
    """What the query generator needs to know about the fixture tagset."""

    leaf_paths: dict[str, tuple[str, ...]]
    features: dict[str, tuple[str, ...]]       # feature -> values
    homes: dict[str, str]                      # feature -> home node
    classes: tuple[tuple[str, dict[str, str]], ...]


def _true_atoms(m: FixtureModel, leaf: str, assignment: dict[str, str]):
    """Atoms true in the class, and atoms whose negation is true in it."""
    path = [n for n in m.leaf_paths[leaf] if n != "root"]
    pos = [f"pos={n}" for n in path] + path
    pos += [f"{f}={v}" for f, v in assignment.items()]
    # bare numerals would lex as NUMBER, which is no atom
    pos += [v for v in assignment.values() if not v.isdigit()]
    neg = [f"{f}={w}" for f, v in assignment.items()
           for w in m.features[f] if w != v]
    pos += [f"{f}!={w}" for f, v in assignment.items()
            for w in m.features[f] if w != v]
    nodes = sorted({n for p in m.leaf_paths.values() for n in p} - {"root"})
    neg += [n for n in nodes if n not in path]
    return pos, neg


def _well_typed(rng: random.Random, m: FixtureModel) -> str:
    # Every atom that survives negation normal form holds in one chosen class,
    # so every disjunct of the result denotes that class: well typed by
    # construction.
    leaf, assignment = m.classes[rng.randrange(len(m.classes))]
    pos, neg = _true_atoms(m, leaf, assignment)

    def build(n_atoms: int, positive: bool) -> str:
        if n_atoms == 1:
            if rng.random() < 0.2:
                return f"!({rng.choice(neg if positive else pos)})"
            return rng.choice(pos if positive else neg)
        left = rng.randint(1, n_atoms - 1)
        if rng.random() < 0.15:
            # negated subtree: polarity flips below the '!'
            a = f"!({build(left, not positive)})"
        else:
            a = build(left, positive)
        b = build(n_atoms - left, positive)
        op = "&" if rng.random() < 0.6 else "|"
        return f"({a} {op} {b})" if rng.random() < 0.4 else f"{a} {op} {b}"

    return build(rng.randint(1, 4), True)


def _contradiction(rng: random.Random, m: FixtureModel) -> str:
    if rng.random() < 0.5:
        f = rng.choice(sorted(m.features))
        a, b = rng.sample(m.features[f], 2)
        return f"{f}={a} & {f}={b}"
    f = rng.choice(sorted(m.features))
    outside = [leaf for leaf, path in m.leaf_paths.items()
               if m.homes[f] not in path]
    return f"{rng.choice(outside)} & {f}={rng.choice(m.features[f])}"


def _ill_typed(rng: random.Random, m: FixtureModel) -> str:
    good, bad = _well_typed(rng, m), _contradiction(rng, m)
    if rng.random() < 0.5:
        return f"({good}) | {bad}"
    return f"({good}) & ({bad})"


def _dnf_wide(rng: random.Random, m: FixtureModel, k: int) -> str:
    # k conjuncts of two-way disjunctions over atoms true in one class:
    # 2**k disjuncts, all satisfiable
    leaf, assignment = m.classes[rng.randrange(len(m.classes))]
    pos, _ = _true_atoms(m, leaf, assignment)
    return " & ".join(f"({rng.choice(pos)} | {rng.choice(pos)})"
                      for _ in range(k))


FIXTURE_POOL = 400
ZIPF_S = 1.1
KIND_SHARE = {"well-typed": 0.8, "ill-typed": 0.1, "dnf-wide": 0.1}


def _zipf_weights(size: int, s: float = ZIPF_S) -> list[float]:
    return [1 / (r + 1) ** s for r in range(size)]


def pool_kinds(size: int = FIXTURE_POOL) -> list[str]:
    """The kind of query at each Zipf rank.

    Each rank takes the kind furthest below its share of the traffic so far,
    so the stream's mix is about 80/10/10 and the same for every seed.
    """
    kinds: list[str] = []
    got = dict.fromkeys(KIND_SHARE, 0.0)
    total = 0.0
    for w in _zipf_weights(size):
        total += w
        kind = max(KIND_SHARE, key=lambda k: KIND_SHARE[k] * total - got[k])
        got[kind] += w
        kinds.append(kind)
    return kinds


def fixture_pool(rng: random.Random, m: FixtureModel,
                 size: int = FIXTURE_POOL) -> list[str]:
    """Distinct queries in Zipf rank order, of the kinds of :func:`pool_kinds`;
    the DNF-wide ones take k = 2..11 conjuncts in turn."""
    pool: list[str] = []
    seen: set[str] = set()
    wide = 0
    for kind in pool_kinds(size):
        while True:
            if kind == "ill-typed":
                text = _ill_typed(rng, m)
            elif kind == "dnf-wide":
                text = _dnf_wide(rng, m, 2 + wide % 10)
            else:
                text = _well_typed(rng, m)
            if text not in seen:
                break
        wide += kind == "dnf-wide"
        seen.add(text)
        pool.append(text)
    return pool


def zipf_stream(rng: random.Random, pool: list[str]):
    """Endless stream of pool entries, the entry of rank r drawn with weight
    1 / (r + 1)**ZIPF_S."""
    cum = list(itertools.accumulate(_zipf_weights(len(pool))))
    total = cum[-1]
    while True:
        yield pool[bisect.bisect_right(cum, rng.random() * total)]


# -- corpus ------------------------------------------------------------------

CORPUS_TOKENS = 1_000_000
EXCEPTION_SHARE = 0.05
MALFORMED_SHARE = 0.002        # of lines


@dataclass(frozen=True)
class CorpusLine:
    text: str
    tokens: tuple[tuple[str, str], ...]    # (word, tag); empty when malformed
    malformed: bool


def corpus_lines(rng: random.Random, inventory: tuple[str, ...],
                 exception_pairs: list[tuple[str, str]],
                 n_tokens: int = CORPUS_TOKENS):
    """Slash-format corpus lines of 5-35 tokens, ``n_tokens`` in all.

    About 5% of tokens are (word, tag) pairs of the exception lexicon; about
    0.2% of lines carry one token without a ``word/TAG`` split, which makes
    the whole line malformed.  Some words contain a slash themselves.
    """
    produced = 0
    while produced < n_tokens:
        length = min(rng.randint(5, 35), n_tokens - produced)
        tokens = []
        for _ in range(length):
            if rng.random() < EXCEPTION_SHARE:
                tokens.append(rng.choice(exception_pairs))
            else:
                tag = rng.choice(inventory)
                word = (f"{rng.randrange(1, 10)}/{rng.randrange(2, 10)}"
                        if rng.random() < 0.01 else f"x{rng.randrange(5000)}")
                tokens.append((word, tag))
        produced += length
        pieces = [f"{w}/{t}" for w, t in tokens]
        if rng.random() < MALFORMED_SHARE:
            bad = rng.choice(("orphan", f"/{rng.choice(inventory)}", "word/"))
            pieces.insert(rng.randrange(len(pieces) + 1), bad)
            yield CorpusLine(" ".join(pieces), (), True)
        else:
            yield CorpusLine(" ".join(pieces), tuple(tokens), False)
