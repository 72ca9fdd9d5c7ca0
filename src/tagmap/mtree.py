"""The mapping tree: compiled tag assignments plus consistency checking.

Building the tree assigns every covered physical tag its minimal cover and
runs four consistency checks over the rule set:

* ``definition_hole_source``: an inventory tag with no coverage rule, so some
  of its corpus occurrences have no reading at all;
* ``definition_hole_target``: terminal classes no physical tag can reach,
  through neither a coverage rule nor an exception entry;
* ``nondisjunctive``: two coverage rules whose denotations overlap, so the
  inverse mapping from classes to tags is ambiguous;
* ``hierarchical``: one coverage denotation strictly contains another, so the
  broader tag subsumes the narrower ones.

All four are warnings; a rule set with none of them maps the corpus onto the
standard tagset exactly.

The first two checks take one pass over the inventory.  The last two share
one scan of every cover node of every covered tag, :func:`_meeting_pairs`,
which finds the masks that share a class without testing every pair.  Each
mask is keyed by its lowest class and the keys are sorted once; a mask can
only meet a later one whose lowest class is at most its own highest, and
``bisect`` on the keys gives that slice.  A tag's cover denotes exactly its
classes, so two tags overlap when a node of one meets a node of the other;
a node inside another meets it too, so the containment is tested both ways
on each meeting pair of nodes of different tags.  The hits are put back in
inventory order.  On 2,187 disjoint positional tags over 6,561 classes (a
seven-feature ladder), the scan takes about 2 ms (2-core VM, Python 3.11).
Its cost grows with the number of meeting pairs, and with the cover of each
overlap reported.
"""
from __future__ import annotations

from bisect import bisect_right

from .diagnostics import Diagnostic, warning
from .maprules import RuleSet
from .typegraph import CoverNode, minimal_cover, render_cover


class MTree:
    def __init__(self, rules: RuleSet,
                 assignments: dict[str, tuple[CoverNode, ...]],
                 diagnostics: list[Diagnostic] | None = None,
                 unreachable: tuple[CoverNode, ...] = ()) -> None:
        self.rules = rules
        self.assignments = assignments
        self.diagnostics = [] if diagnostics is None else diagnostics
        self.unreachable = unreachable      # cover of the target holes


def build_mtree(rules: RuleSet) -> MTree:
    """The covered tags' assignments, keyed in inventory order, and the
    four checks' warnings."""
    g = rules.graph
    assignments: dict[str, tuple[CoverNode, ...]] = {}
    diags: list[Diagnostic] = []
    for tag in rules.inventory:
        if tag in rules.coverage:
            assignments[tag] = minimal_cover(
                rules.coverage[tag].typed.denotation, g)
        else:
            diags.append(warning(
                "definition_hole_source",
                f"tag {tag} has no coverage rule; its occurrences have no "
                "standard reading", rules.tag_spans[tag]))
    reached = 0
    for rule in (*rules.coverage.values(), *rules.exceptions):
        reached |= rule.typed.denotation
    missing = g.full_mask & ~reached
    unreachable: tuple[CoverNode, ...] = ()
    if missing:
        unreachable = minimal_cover(missing, g)
        diags.append(warning(
            "definition_hole_target",
            f"no physical tag reaches {render_cover(unreachable)} "
            f"[{_plural(missing.bit_count())}]", None))
    diags += _check_pairs(rules, assignments)
    return MTree(rules=rules, assignments=assignments,
                 diagnostics=diags, unreachable=unreachable)


def _check_pairs(rules: RuleSet,
                 assignments: dict[str, tuple[CoverNode, ...]]
                 ) -> list[Diagnostic]:
    # two tags overlap when a node of one meets a node of the other, since
    # each cover denotes exactly its tag's classes; a covering node of one
    # tag strictly containing a covering node of another makes the outer
    # tag sit above occupied territory, one diagnostic per such ancestor
    # node, listing every tag found below it
    g = rules.graph
    covered = list(assignments)
    rule_of = [rules.coverage[t] for t in covered]
    nodes = [(i, node) for i, t in enumerate(covered)
             for node in assignments[t]]
    owner = [i for i, _ in nodes]
    masks = [node.mask for _, node in nodes]
    overlaps: set[tuple[int, int]] = set()
    inner: list[set[int]] = [set() for _ in nodes]
    for p, q in _meeting_pairs(masks):
        i, j = owner[p], owner[q]
        if i == j:
            continue
        overlaps.add((i, j) if i < j else (j, i))
        a, b = masks[p], masks[q]
        if a != b:
            both = a & b
            if both == b:
                inner[p].add(j)
            elif both == a:
                inner[q].add(i)
    out = []
    for i, j in sorted(overlaps):
        ra, rb = rule_of[i], rule_of[j]
        shared = ra.typed.denotation & rb.typed.denotation
        out.append(warning(
            "nondisjunctive",
            f"tags {ra.tag} and {rb.tag} overlap on "
            f"{render_cover(minimal_cover(shared, g))}",
            max(ra.span, rb.span)))
    for (i, node), below in zip(nodes, inner):
        if below:
            out.append(warning(
                "hierarchical",
                f"covering node {node.render()} of tag {covered[i]} strictly "
                f"contains coverage of "
                f"{', '.join(covered[j] for j in sorted(below))}",
                rule_of[i].span))
    return out


def _meeting_pairs(masks: list[int]):
    """Each pair of positions in ``masks`` whose masks share a class, once.

    The masks are taken in order of their lowest class; a pair is yielded
    from the earlier of its two in that order, first.  Two masks meet only
    if the earlier one reaches the other's lowest class, so ``bisect`` on
    the sorted lowest classes gives the masks to test.
    """
    lowest = [(m & -m).bit_length() - 1 for m in masks]
    order = sorted(range(len(masks)), key=lowest.__getitem__)
    lows = [lowest[i] for i in order]
    for k, i in enumerate(order):
        a = masks[i]
        for j in order[k + 1:bisect_right(lows, a.bit_length() - 1)]:
            if a & masks[j]:
                yield i, j


def render_explain(tree: MTree) -> str:
    """Tag assignments, one line per covered tag, followed by diagnostics."""
    lines = []
    for tag in sorted(tree.assignments):
        cover = tree.assignments[tag]
        n = tree.rules.coverage[tag].typed.denotation.bit_count()
        lines.append(f"{tag} -> {render_cover(cover)} [{_plural(n)}]")
    for d in tree.diagnostics:
        lines.append(f"WARN [{d.kind}] {d.message}")
    return "\n".join(lines)


def _plural(n: int) -> str:
    return f"{n} class" if n == 1 else f"{n} classes"
