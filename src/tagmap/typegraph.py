"""Standard-tagset definitions compiled into a typed feature graph.

A tagset definition declares a rooted part-of-speech hierarchy plus typed
features, each appropriate at one hierarchy node and optionally guarded by
appropriateness conditions on earlier features.  Compiling it yields a
:class:`TypeGraph` whose terminal classes, the maximal consistent feature
assignments per leaf, form the closed-world universe that every
specification expression denotes into.  :func:`minimal_cover` describes a
set of classes by the fewest primes, the maximal conjunctions inside it, and
:func:`render_cover` writes that cover out.

Definition file format::

    tagset <name>
    hierarchy { <node> { <child> ... } ... }
    feature <name> for <node> [when <f>=<v> (or <f>=<v>)*] { <value>, ... }

``#`` starts a comment.  The hierarchy root is implicit and named ``root``.
Node, feature and value names share one global namespace: any collision is
rejected at compile time so that bare atoms in specification expressions
resolve unambiguously.  Hierarchy membership is exposed through the
pseudo-feature ``pos`` whose values are the hierarchy node names.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
from functools import cached_property, reduce
from itertools import compress, islice, repeat
from operator import and_, mul, or_
from typing import NamedTuple

from .diagnostics import (CompileError, Diagnostic, Span, SpecSyntaxError,
                          compare_first, error)
from .lexer import TokenCursor, tokenize

POS_FEATURE = "pos"
ROOT = "root"
# the most terminal classes a tagset may have; each class costs one digit
# per atom of its leaf's features, and its bit a place in every mask
MAX_CLASSES = 1 << 20
# the most minimal covers a graph keeps; past it, the oldest stored is
# dropped, so a long query session holds a bounded number of masks
MAX_CACHED_COVERS = 1024


class FeatureDecl(NamedTuple):
    """One typed feature: name, home node, value domain, guard conditions.

    ``conditions`` is a disjunction of (feature, value) atoms; the feature is
    appropriate for a class at its home subtree only when some atom holds in
    that class (always, when the tuple is empty).
    """

    name: str
    home: str
    values: tuple[str, ...]
    conditions: tuple[tuple[str, str], ...] = ()
    span: Span = Span(1, 1)                 # not compared

    __eq__, __ne__, __hash__ = compare_first(4)


class TerminalClass(NamedTuple):
    """A maximal consistent assignment at one hierarchy leaf."""

    leaf: str
    assignment: tuple[tuple[str, str], ...]
    index: int = -1                         # not compared

    __eq__, __ne__, __hash__ = compare_first(2)

    def render(self) -> str:
        parts = [f"{POS_FEATURE}={self.leaf}"]
        parts += [f"{f}={v}" for f, v in self.assignment]
        return "[" + " & ".join(parts) + "]"


class CoverNode(NamedTuple):
    """A conjunctive class description: hierarchy node plus feature atoms.

    These are the nodes of the virtually expanded type graph; minimal covers
    and MTree assignments are sets of them.  ``implied_node`` records whether
    the feature atoms alone already pin down the node, in which case the
    rendering omits the ``pos=`` constraint.
    """

    node: str
    atoms: tuple[tuple[str, str], ...]
    mask: int = 0                   # not compared, nor the two below
    implied_node: bool = False
    sort_key: tuple = ()

    __eq__, __ne__, __hash__ = compare_first(2)

    def render(self) -> str:
        return render_cover((self,))


class TypeGraph:
    """A compiled tagset definition.

    The terminal classes are kept as digit columns only: each leaf holds,
    for every atom of its features, one digit per class of the leaf, "1"
    where the class holds the atom, each column spread once from the digits
    its feature wrote.  A class's leaf and assignment are read off them.

    Instances are immutable after construction and safe to read from several
    threads; the only internal mutations are caches: the covers
    :func:`minimal_cover` found, by mask, at most :data:`MAX_CACHED_COVERS`
    of them, the oldest stored dropped first, and the universe and the
    candidate table, each built on first read.  A dropped cover is found
    again, equal to the one dropped but not the same object.
    ``parents`` maps each hierarchy node to its parent, ``None`` for the
    root, and lists each node after its parent; its order is ``nodes``.
    Build one with :func:`parse_tagset_definition`, not directly.
    """

    def __init__(self, name: str, parents: dict[str, str | None],
                 features: tuple[FeatureDecl, ...]):
        self.name = name
        self._parents = dict(parents)
        self.nodes = tuple(parents)
        self.features = features
        self.feature_map = {f.name: f for f in features}
        self._node_index = {n: i for i, n in enumerate(self.nodes)}
        inner = set(self._parents.values())
        self.leaves = tuple(n for n in self.nodes if n not in inner)
        self.value_index = {}
        # (feature, value) -> (feature position, value position)
        self._value_key: dict[tuple[str, str], tuple[int, int]] = {}
        for i, f in enumerate(features):
            for j, v in enumerate(f.values):
                self.value_index[v] = f.name
                self._value_key[(f.name, v)] = (i, j)
        # each leaf's atoms with their digits over its classes, and the index
        # of each leaf's first class followed by the number of classes
        self._digits, self._starts, self._atom_mask, self._node_mask = \
            self._enumerate()
        self.full_mask = (1 << self._starts[-1]) - 1
        self._feature_mask = {f.name: reduce(or_, (self._atom_mask[(f.name, v)]
                                                   for v in f.values), 0)
                              for f in features}
        # every node follows its parent, so a node's mask is complete before
        # it is passed up
        for node in reversed(self.nodes):
            parent = self._parents[node]
            if parent is not None:
                self._node_mask[parent] |= self._node_mask[node]
        # minimal covers by mask, stored and read by minimal_cover alone
        self._cover_cache: dict[int, tuple[CoverNode, ...]] = _Bounded()

    # -- structure -----------------------------------------------------

    def is_node(self, name: str) -> bool:
        return name in self._node_index

    def _up(self, node: str):
        """``node`` and its ancestors, deepest first.

        Root paths are walked from the parent links on demand rather than
        stored, which would take memory quadratic in the hierarchy depth.
        """
        while node is not None:
            yield node
            node = self._parents[node]

    def features_at(self, node: str) -> tuple[FeatureDecl, ...]:
        """Features whose home lies on the root path of ``node``."""
        if node not in self._node_index:
            raise ValueError(f"unknown hierarchy node {node!r}")
        path = set(self._up(node))
        return tuple(f for f in self.features if f.home in path)

    # -- denotation masks ----------------------------------------------

    def node_mask(self, node: str) -> int:
        return self._node_mask[node]

    def atom_mask(self, feature: str, value: str) -> int:
        return self._atom_mask[(feature, value)]

    def feature_mask(self, feature: str) -> int:
        """Appropriateness domain: classes in which ``feature`` is assigned."""
        return self._feature_mask[feature]

    def classes(self, mask: int) -> tuple[TerminalClass, ...]:
        """The classes in ``mask``, in index order, read off its binary
        numeral in time linear in the universe."""
        return tuple(compress(self.universe,
                              map("1".__eq__, format(mask, "b")[::-1])))

    @cached_property
    def universe(self) -> tuple[TerminalClass, ...]:
        """Every terminal class, in index order, each decoded by
        :meth:`_class_at`.  Built on first read; set-up, queries and covers
        do not need the records."""
        return tuple(TerminalClass(*self._class_at(i), i)
                     for i in range(self._starts[-1]))

    def _class_at(self, index: int) -> tuple[str, tuple[tuple[str, str], ...]]:
        """The leaf and the assignment of the class ``index``: the leaf's
        atoms whose digit for the class is "1"."""
        k = bisect_right(self._starts, index) - 1       # the leaf's position
        column = index - self._starts[k]
        return self.leaves[k], tuple([a for a, digits in self._digits[k].items()
                                      if digits[column] == "1"])

    # -- enumeration ----------------------------------------------------

    def _enumerate(self) -> tuple[list[dict[tuple[str, str], str]],
                                  list[int], dict[tuple[str, str], int],
                                  dict[str, int]]:
        """Each leaf's atoms with their digits over its classes, the index of
        each leaf's first class followed by the number of classes, and the
        mask of each atom and of each node, a leaf's filled in and any
        other's 0.  More than :data:`MAX_CLASSES` classes in all is a
        :class:`CompileError`, raised by :meth:`_expand`, which is given the
        room left, at the feature that takes the tagset past, or at a leaf
        without features when no room is left for its one class.

        One walk over the leaves expands each with :meth:`_expand`, which
        gives its number of classes and each atom's digits over them; leaves
        with the same features, as siblings whose features are all homed
        above them, share one expansion.  A leaf's classes are consecutive,
        so its mask is one run of bits.  An atom's mask is its digits over
        every leaf, joined and read as one binary numeral, converted to an
        integer once; or-ing bits into a universe-wide integer one at a time
        would cost time quadratic in the number of classes.  The digits are
        all that is kept of the classes: no assignment or record is built
        per class.
        """
        leaf_digits: list[dict[tuple[str, str], str]] = []
        node_mask = dict.fromkeys(self.nodes, 0)
        # an atom's numeral: the digits of each leaf whose classes have
        # some, after a "0" for each class since the last such leaf; it is
        # read most significant digit first, so class 0 is its last digit
        numerals: dict[tuple[str, str], list[str]] = {}
        ends: dict[tuple[str, str], int] = {}
        start = 0
        starts: list[int] = []
        # expansions by the names of their features
        expanded: dict[tuple[str, ...], tuple[int, dict]] = {}
        for leaf in self.leaves:
            feats = self.features_at(leaf)
            room = MAX_CLASSES - start
            key = tuple(f.name for f in feats)
            shared = expanded.get(key)
            if shared is None or shared[0] > room:
                # a shared expansion past the room left is expanded again,
                # to report the feature that takes it past
                shared = expanded[key] = self._expand(feats, room)
            n, digits = shared
            if n > room:            # a leaf without features has no span
                raise _too_large(f"leaf {leaf!r}", None)
            leaf_digits.append(digits)
            starts.append(start)
            node_mask[leaf] = ((1 << n) - 1) << start
            for a, d in digits.items():
                parts = numerals.get(a)
                if parts is None:
                    numerals[a] = ["0" * start, d]
                else:
                    parts += "0" * (start - ends[a]), d
                ends[a] = start + n
            start += n
        starts.append(start)
        # popped, so that an atom's numeral is freed once its mask is read
        atom_mask = {a: int("".join(numerals.pop(a, ["0"]))[::-1], 2)
                     for a in self._value_key}
        return leaf_digits, starts, atom_mask, node_mask

    @staticmethod
    def _expand(feats, room: int) -> tuple[int, dict[tuple[str, str], str]]:
        """The number of consistent assignments to ``feats`` and each atom's
        digits over them, in declaration order: "1" where one holds the atom.
        Partial assignments are extended feature by feature, each by every
        value in turn: a feature of k values turns each partial that takes it
        (all, unless a guard leaves some out) into k, and its step records
        what each partial became, an int when all became the same number.
        Value j's atom is the takers' digits with each "1" replaced by k
        digits, "1" only at the j-th (just those k when all take it), spread
        through the later steps when a guard reads it and at the end, unless
        it has one digit per partial already.  A feature past ``room``
        partials is reported before its digits are built.
        """
        n, steps = 1, []        # partials so far; what each became, by step
        atoms: dict = {}        # each atom's digits, and the steps taken then

        def forward(keys):
            # walks back from the last step, composing what each of the m
            # partials before step i has become, and spreads their atoms
            counts, i, m, last = 1, len(steps), n, len(steps)
            for a in sorted(keys, key=lambda a: atoms[a][1], reverse=True):
                digits, at = atoms[a]
                while i > at:
                    i -= 1
                    step = steps[i]
                    m = m // step if type(step) is int else len(step)
                    if type(step) is int and type(counts) is int:
                        counts *= step
                    else:
                        sums = repeat(counts) if type(counts) is int else iter(counts)
                        counts = [sum(islice(sums, r)) for r in (
                            repeat(step, m) if type(step) is int else step)]
                atoms[a] = _spread(digits, counts, m // len(digits)), last

        for f in feats:
            k = len(f.values)
            takes = "1"         # the takers' digits, one untiled "1" when all take f
            if f.conditions:
                held = [c for c in f.conditions if c in atoms]
                # the call and the round trip through int are skipped when
                # not needed: on 6,000 one-value guards, making either one
                # each time made the expansion a third slower
                if stale := [c for c in held if len(atoms[c][0]) < n]:
                    forward(stale)
                takes = atoms[held[0]][0] if len(held) == 1 else format(
                    reduce(or_, (int(atoms[c][0], 2) for c in held), 0), f"0{n}b")
                if "0" not in takes:
                    takes = "1"
            grown = n * k if takes == "1" else n + (k - 1) * takes.count("1")
            if grown > room:
                raise _too_large(f"feature {f.name!r}", f.span)
            if grown > n:       # a step that leaves every partial as it was is not kept
                steps.append(k if takes == "1" else [k if t == "1" else 1 for t in takes])
            for j, v in enumerate(f.values):
                hot = "0" * j + "1" + "0" * (k - j - 1)
                atoms[(f.name, v)] = takes.replace("1", hot), len(steps)
            n = grown
        forward([a for a, (digits, _) in atoms.items() if len(digits) < n])
        return n, {a: digits for a, (digits, _) in atoms.items()}

    # -- conjunctive descriptions ----------------------------------------

    @cached_property
    def cover_candidates(self) -> tuple[CoverNode, ...]:
        """Every conjunctive description: one per distinct non-empty mask of a
        node and at most one value per appropriate feature, ordered by
        ``sort_key``.  Built on first read; covers do not need the table,
        since :meth:`primes_containing` searches the conjunctions of one
        class."""
        masks: set[int] = set()
        for node in self.nodes:
            nmask = self._node_mask[node]
            # every non-empty conjunction of node and at most one value per
            # appropriate feature, grown one feature at a time; a mask
            # reached by several conjunctions is kept once
            level = {nmask}
            for f in self.features_at(node):
                atom_masks = [self._atom_mask[(f.name, v)] for v in f.values]
                level |= {m & am for m in level for am in atom_masks if m & am}
            masks |= level
        nodes = [self.cover_node(m) for m in masks]
        nodes.sort(key=lambda c: c.sort_key)
        return tuple(nodes)

    def primes_containing(self, index: int, target: int) -> list[CoverNode]:
        """Descriptions of the primes inside ``target`` that contain the
        class ``index``, ordered by ``sort_key``; the class lies in ``target``.

        A conjunction (a node and at most one value per appropriate feature)
        inside ``target`` is prime when no other one inside has a larger
        mask.  One containing the class is an ancestor of its leaf with some
        of the class's atoms appropriate there (homed on its root path); an
        atom homed lower gives no mask its home does not, so it is dropped
        once the walk up passes its home.  An ancestor with no more classes
        inside ``target`` than the node below it has only that node's inside
        conjunctions and is skipped.  Each other one's inside conjunctions
        lie in the closure of its classes in ``target``: its mask and-ed with
        those of the class's atoms that all these classes hold.  One search
        starts there, each state a mask and a set of barred atoms, and takes
        the class's other atoms as in Knuth's Algorithm X.  A state inside
        ``target`` is found; one is dropped when a class outside is held by
        every atom not barred; any other branches on the unbarred atoms that
        leave out its lowest class outside, each branch barring the atoms
        branched on before it, so each set of atoms is tried once.  The
        maximal masks found are the primes.
        """
        leaf, assignment = self._class_at(index)
        # the class's atoms with their features' homes
        homed = [(self.feature_map[f].home, self._atom_mask[(f, v)])
                 for f, v in assignment]
        found: set[int] = set()
        below = 0
        for node in self._up(leaf):
            # ``atoms`` are appropriate at ``node``, ``homed`` above it
            atoms, homed = homed, [a for a in homed if a[0] != node]
            inside = self._node_mask[node] & target
            if inside == below:
                continue
            below = inside
            closed, free = self._node_mask[node], []
            for _, m in atoms:
                if m & inside == inside:
                    closed &= m
                else:
                    free.append(m)
            # the most specific conjunction here holds a class outside, and
            # every one above, with a larger node and fewer atoms, holds it
            if reduce(and_, free, closed & ~target):
                break
            # each state's barred atoms are the bits of their positions in
            # ``free``
            stack = [(closed, 0)]
            while stack:
                m, barred = stack.pop()
                outside = m & ~target
                if not outside:
                    found.add(m)
                    continue
                unbarred = [(1 << i, am) for i, am in enumerate(free)
                            if not barred >> i & 1]
                if reduce(and_, (am for _, am in unbarred), outside):
                    continue
                low = outside & -outside
                for bit, am in unbarred:
                    if not am & low:
                        stack.append((m & am, barred))
                        barred |= bit
        # a prime is a conjunction, so its cover is its one node, from the
        # cache or one closure, without coming back here
        described = [minimal_cover(m, self)[0] for m in found
                     if not any(m != o and not m & ~o for o in found)]
        described.sort(key=lambda c: c.sort_key)
        return described

    def _closure(self, mask: int) -> tuple[int, CoverNode]:
        """The closure of the non-empty ``mask``, the mask of the smallest
        conjunction containing it, and the :meth:`cover_node` of ``mask``.

        The conjunction is the deepest node containing every class of
        ``mask`` and the atoms constant across them; ``mask`` is a
        conjunction when it is its own closure.
        """
        # the node is the first ancestor of the lowest class's leaf holding
        # the mask, the atoms those of the lowest class that every class holds
        low = (mask & -mask).bit_length() - 1
        node, atoms = self._class_at(low)
        while self._node_mask[node] & mask != mask:
            node = self._parents[node]
        if mask.bit_length() > low + 1:         # more than the one class
            atoms = tuple([a for a in atoms if self._atom_mask[a] & mask == mask])
        by_atoms = self.full_mask
        for a in atoms:
            by_atoms &= self._atom_mask[a]
        # more general descriptions order first, then hierarchy position,
        # then feature/value declaration order
        key = (len(atoms), self._node_index[node],
               tuple([self._value_key[a] for a in atoms]))
        implied = bool(atoms) and by_atoms == mask
        return (self._node_mask[node] & by_atoms,
                CoverNode(node, atoms, mask, implied, key))

    def cover_node(self, mask: int) -> CoverNode:
        """Canonical conjunctive description of the classes in ``mask``, the
        second item of its :meth:`_closure`.

        The node is the deepest hierarchy node containing every class and the
        atoms are exactly the features constant across all of them, for any
        non-empty mask.  The description denotes ``mask`` itself only when
        some conjunction does.
        """
        if not mask:
            raise ValueError("cannot describe the empty class set")
        return self._closure(mask)[1]


class _Bounded(OrderedDict):
    """A dict of at most :data:`MAX_CACHED_COVERS` entries: storing one
    more drops the oldest stored, in one call, so that a reader in another
    thread never sees a half-made eviction."""

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        if len(self) > MAX_CACHED_COVERS:
            self.popitem(last=False)


def _too_large(what: str, span: Span | None) -> CompileError:
    return CompileError([error(
        "universe-too-large",
        f"{what} takes the tagset past {MAX_CLASSES} terminal classes", span)])


def _spread(digits: str, counts, tiles: int) -> str:
    """``digits`` tiled ``tiles`` times, each digit repeated ``counts``
    times, or as many as its entry in ``counts`` when that is a list."""
    if type(counts) is int:
        return digits.replace("0", "0" * counts).replace("1", "1" * counts) * tiles
    return "".join(map(mul, digits * tiles, counts))


# -- minimal covers ----------------------------------------------------------


def minimal_cover(mask: int, g: TypeGraph) -> tuple[CoverNode, ...]:
    """Smallest set of conjunctive descriptions denoting exactly ``mask``,
    ordered by ``sort_key``.

    The cover is made of primes, the maximal conjunctions inside ``mask``.
    It has the fewest primes of any cover; of the covers of that size, it is
    the one whose sorted list of sort keys is lexicographically least,
    so it depends on the mask alone.  A depth-first branch-and-bound pops
    immutable states off a stack, so a cover of many primes costs no
    recursion; each state holds the classes covered, the primes chosen and
    the primes excluded.  A complete state is compared with the best cover.
    An incomplete one with fewer primes than the best branches on its lowest
    uncovered class over the primes containing it
    (:meth:`TypeGraph.primes_containing`), each class's primes found once per
    call; the first complete cover is the first bound, with no seed.  As in
    Knuth's Algorithm X, the branch for a class's i-th prime excludes its
    first i - 1 from the whole subtree, so each set of primes is reached
    once, and a class whose primes are all excluded ends its branch.  Each
    prime takes a bit the first time it is found, and a state's excluded
    primes are the int of their bits.  A mask that is its own closure, a
    conjunction, is its one prime and needs no search: its description comes
    from the same :meth:`TypeGraph._closure` call.  Results are cached per
    graph.
    """
    if mask == 0:
        return ()
    cached = g._cover_cache.get(mask)
    if cached is not None:
        return cached
    closed, described = g._closure(mask)
    if closed == mask:
        # a conjunction is its own one prime
        result = g._cover_cache[mask] = (described,)
        return result
    # each class's primes with their bits, and the bit of each prime mask
    primes_of: dict[int, list[tuple[CoverNode, int]]] = {}
    bit_of: dict[int, int] = {}
    best: tuple[CoverNode, ...] = ()
    best_keys: list[tuple] = []
    stack: list[tuple[int, tuple[CoverNode, ...], int]] = [(0, (), 0)]
    while stack:
        covered, chosen, excluded = stack.pop()
        if covered == mask:
            keys = sorted(o.sort_key for o in chosen)
            if not best or (len(keys), keys) < (len(best_keys), best_keys):
                best, best_keys = chosen, keys
            continue
        if best and len(chosen) >= len(best):
            continue
        missing = mask & ~covered
        low = (missing & -missing).bit_length() - 1
        found = primes_of.get(low)
        if found is None:
            found = primes_of[low] = [
                (p, bit_of.setdefault(p.mask, 1 << len(bit_of)))
                for p in g.primes_containing(low, mask)]
        children = []
        for p, bit in found:
            if not excluded & bit:
                children.append((covered | p.mask, chosen + (p,), excluded))
                excluded |= bit
        # the first prime's branch is searched first
        stack += reversed(children)

    result = tuple(sorted(best, key=lambda c: c.sort_key))
    g._cover_cache[mask] = result
    return result


def render_cover(cover: tuple[CoverNode, ...]) -> str:
    """Factored disjunctive rendering of a cover: the conjuncts that every
    row of a group holds are written once, then `` & (``, the rest grouped
    by first conjunct and joined with `` | ``, then ``)``."""
    # one row per node: pos=<node> unless its atoms imply it, then the atoms
    rows = [([] if c.atoms and c.implied_node else [f"{POS_FEATURE}={c.node}"])
            + [f"{f}={v}" for f, v in c.atoms] for c in cover]
    if len(rows) < 2:
        return " & ".join(rows[0]) if rows else ""
    # the groups wait on a stack, each text between them as a one-row group
    pending, out = [rows], []
    while pending:
        rows = pending.pop()
        if len(rows) == 1:
            out.append(" & ".join(rows[0]))
            continue
        common = [u for u in rows[0] if all(u in row for row in rows[1:])]
        if common:
            out.append(" & ".join(common) + " & (")
            pending.append([[")"]])
            rows = [[u for u in row if u not in common] for row in rows]
        groups: dict[str, list[list[str]]] = {}
        for row in rows:
            groups.setdefault(row[0], []).append(row)
        for group in reversed(groups.values()):
            pending += (group, [[" | "]])
        pending.pop()        # the first group on top, no " | " before it
    return "".join(out)


# -- parsing -------------------------------------------------------------


def parse_tagset_definition(source: str) -> TypeGraph:
    """Compile a tagset definition, raising :class:`CompileError` on failure.

    Semantic problems (duplicate names, dangling homes, ambiguous values,
    bad appropriateness references) are collected exhaustively before the
    error is raised, in source order within the hierarchy, where a node
    named ``pos`` is reported at its own token, and then within the
    features.
    """
    p = tokenize(source)
    diags: list[Diagnostic] = []
    parents: dict[str, str | None] = {ROOT: None}
    raw_features: list[FeatureDecl] = []
    try:
        p.keyword("tagset")
        name = p.expect("NAME", "tagset name")
        p.keyword("hierarchy")
        p.expect("LBRACE", "'{'")
        _parse_nodes(p, diags, parents)
        p.expect("RBRACE", "'}'")
        while p.text == "feature":
            raw_features.append(_parse_feature(p))
    except SpecSyntaxError as exc:
        # keep the semantic diagnostics found before the syntax error
        raise CompileError(diags + exc.diagnostics) from None
    if p.kind != "EOF":
        diags.append(error("syntax", f"unexpected trailing input {p.text!r}", p.span()))

    _validate(diags, parents, raw_features)
    if diags:
        raise CompileError(diags)
    return TypeGraph(name, parents, tuple(raw_features))


def _parse_nodes(p: TokenCursor, diags: list[Diagnostic], parents) -> None:
    # an explicit stack of open braces, so nesting depth costs no recursion
    stack = [ROOT]
    while True:
        if p.kind == "NAME":
            name = p.texts[i := p.advance()]
            if name in parents:
                diags.append(error("duplicate-node",
                                   f"duplicate hierarchy node {name!r}", p.span(i)))
            else:
                if name == POS_FEATURE:
                    diags.append(error("name-collision", f"{name!r} is reserved "
                                       "for the position pseudo-feature", p.span(i)))
                parents[name] = stack[-1]
            if p.kind == "LBRACE":
                p.advance()
                stack.append(name)
        elif len(stack) > 1:
            p.expect("RBRACE", "'}'")
            stack.pop()
        else:
            return


def _parse_feature(p: TokenCursor) -> FeatureDecl:
    p.keyword("feature")
    span = p.span()
    name = p.expect("NAME", "feature name")
    p.keyword("for")
    home = p.expect("NAME", "home node")
    conditions: list[tuple[str, str]] = []
    if p.text == "when":
        # the first condition follows 'when', each later one 'or'
        while not conditions or p.text == "or":
            p.advance()
            cf = p.expect("NAME", "condition feature")
            p.expect("EQ", "'='")
            conditions.append((cf, _value(p, "condition value")))
    p.expect("LBRACE", "'{'")
    values = [_value(p, "feature value")]
    # values are separated by commas, and a comma may end the list
    while p.kind == "COMMA" and p.kinds[p.pos + 1] != "RBRACE":
        p.advance()
        values.append(_value(p, "feature value"))
    if p.kind == "COMMA":
        p.advance()
    p.expect("RBRACE", "'}'")
    return FeatureDecl(name, home, tuple(values), tuple(conditions), span)


def _value(p: TokenCursor, what: str) -> str:
    if p.kind not in ("NAME", "NUMBER"):
        p.fail(f"expected {what}")
    return p.texts[p.advance()]


def _validate(diags: list[Diagnostic], node_set,
              features: list[FeatureDecl]) -> None:
    reserved = {POS_FEATURE}
    value_owner: dict[str, str] = {}
    all_names = {f.name for f in features}
    # features declared before the one being checked; of two declarations
    # of one name, the later
    earlier: dict[str, FeatureDecl] = {}
    for f in features:
        if f.name in reserved:
            diags.append(error("name-collision",
                               f"feature name {f.name!r} is reserved", f.span))
        if f.name in node_set:
            diags.append(error("name-collision",
                               f"feature {f.name!r} collides with a hierarchy node", f.span))
        if f.name in earlier:
            diags.append(error("duplicate-feature",
                               f"duplicate feature {f.name!r}", f.span))
        if f.home not in node_set:
            diags.append(error("dangling-home",
                               f"feature {f.name!r} declared for unknown node {f.home!r}",
                               f.span))
        seen_values: set[str] = set()
        for v in f.values:
            if v in seen_values:
                diags.append(error("duplicate-value",
                                   f"feature {f.name!r} repeats value {v!r}", f.span))
            seen_values.add(v)
            if v in node_set or v in reserved:
                diags.append(error("name-collision",
                                   f"value {v!r} collides with a hierarchy node name", f.span))
            elif v in value_owner and value_owner[v] != f.name:
                diags.append(error("ambiguous-value",
                                   f"value {v!r} already belongs to feature "
                                   f"{value_owner[v]!r}", f.span))
            else:
                value_owner.setdefault(v, f.name)
        for cf, cv in f.conditions:
            if cf not in earlier:
                where = "later feature" if cf in all_names else "unknown feature"
                diags.append(error("appropriateness",
                                   f"condition of {f.name!r} references {where} {cf!r}; "
                                   "conditions may only use earlier declarations", f.span))
            elif cv not in earlier[cf].values:
                diags.append(error("appropriateness",
                                   f"condition of {f.name!r} tests {cf}={cv}, but {cv!r} "
                                   f"is not a value of {cf!r}", f.span))
        earlier[f.name] = f
    # feature names must not collide with values either, their own included
    for f in features:
        if f.name in value_owner:
            diags.append(error("name-collision",
                               f"feature {f.name!r} collides with a value of "
                               f"{value_owner[f.name]!r}", f.span))
