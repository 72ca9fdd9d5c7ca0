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

The last two checks share one scan, :func:`_meeting_pairs`, which finds the
masks that share a class without testing every pair.  Each mask is keyed by
its lowest class and the keys are sorted once; a mask can only meet a later
one whose lowest class is at most its own highest, and ``bisect`` on the
keys gives that slice.  The overlap check scans the tags' denotations.  The
containment check scans every cover node of every tag, since a node inside
another meets it, and tests the containment both ways on each meeting pair
of nodes of different tags.  The hits are put back in inventory order.  On
2,187 disjoint positional tags over 6,561 classes (a seven-feature ladder),
the two checks take about 6 ms together (2-core VM, Python 3.11).  Their
cost grows with the number of meeting pairs, and with the cover of each
overlap reported.
"""
from __future__ import annotations

from bisect import bisect_right

from .diagnostics import Diagnostic, warning
from .maprules import RuleSet
from .typegraph import CoverNode, TerminalClass, minimal_cover, render_cover


class MTree:
    def __init__(self, rules: RuleSet,
                 assignments: dict[str, tuple[CoverNode, ...]],
                 diagnostics: list[Diagnostic] | None = None,
                 unreachable: tuple[CoverNode, ...] = ()) -> None:
        self.rules = rules
        self.assignments = assignments
        self.diagnostics = [] if diagnostics is None else diagnostics
        self.unreachable = unreachable      # cover of the target holes

    def tags_of(self, terminal: TerminalClass) -> tuple[str, ...]:
        """Physical tags whose coverage denotation contains ``terminal``."""
        bit = 1 << terminal.index
        return tuple(tag for tag in self.assignments
                     if self.rules.coverage[tag].typed.denotation & bit)


def build_mtree(rules: RuleSet) -> MTree:
    """The covered tags' assignments, keyed in inventory order, and the
    four checks' warnings."""
    g = rules.graph
    assignments = {tag: minimal_cover(rules.coverage[tag].typed.denotation, g)
                   for tag in rules.inventory if tag in rules.coverage}
    target_diags, unreachable = _check_target_holes(rules)
    diags: list[Diagnostic] = []
    diags += _check_source_holes(rules)
    diags += target_diags
    diags += _check_nondisjoint(rules, list(assignments))
    diags += _check_hierarchical(rules, assignments)
    return MTree(rules=rules, assignments=assignments,
                 diagnostics=diags, unreachable=unreachable)


def _check_source_holes(rules: RuleSet) -> list[Diagnostic]:
    out = []
    for tag in rules.inventory:
        if tag not in rules.coverage:
            out.append(warning(
                "definition_hole_source",
                f"tag {tag} has no coverage rule; its occurrences have no "
                "standard reading", rules.tag_spans[tag]))
    return out


def _check_target_holes(
        rules: RuleSet) -> tuple[list[Diagnostic], tuple[CoverNode, ...]]:
    g = rules.graph
    reached = 0
    for rule in rules.coverage.values():
        reached |= rule.typed.denotation
    for entry in rules.exceptions:
        reached |= entry.typed.denotation
    missing = g.full_mask & ~reached
    if not missing:
        return [], ()
    cover = minimal_cover(missing, g)
    diag = warning(
        "definition_hole_target",
        f"no physical tag reaches {render_cover(cover)} "
        f"[{_plural(missing.bit_count())}]", None)
    return [diag], cover


def _check_nondisjoint(rules: RuleSet, covered: list[str]) -> list[Diagnostic]:
    g = rules.graph
    masks = [rules.coverage[t].typed.denotation for t in covered]
    out = []
    for i, j in sorted(sorted(pair) for pair in _meeting_pairs(masks)):
        ra, rb = rules.coverage[covered[i]], rules.coverage[covered[j]]
        out.append(warning(
            "nondisjunctive",
            f"tags {ra.tag} and {rb.tag} overlap on "
            f"{render_cover(minimal_cover(masks[i] & masks[j], g))}",
            max(ra.span, rb.span)))
    return out


def _check_hierarchical(rules: RuleSet,
                        assignments: dict[str, tuple[CoverNode, ...]]
                        ) -> list[Diagnostic]:
    # a covering node of one tag strictly containing a covering node of
    # another makes the outer tag sit above occupied territory; one
    # diagnostic per such ancestor node, listing every tag found below it
    covered = list(assignments)
    nodes = [(i, node) for i, t in enumerate(covered)
             for node in assignments[t]]
    owner = [i for i, _ in nodes]
    masks = [node.mask for _, node in nodes]
    inner: list[set[int]] = [set() for _ in nodes]
    for p, q in _meeting_pairs(masks):
        a, b = masks[p], masks[q]
        if owner[p] != owner[q] and a != b:
            if not b & ~a:
                inner[p].add(owner[q])
            elif not a & ~b:
                inner[q].add(owner[p])
    out = []
    for (i, node), below in zip(nodes, inner):
        if below:
            out.append(warning(
                "hierarchical",
                f"covering node {node.render()} of tag {covered[i]} strictly "
                f"contains coverage of "
                f"{', '.join(covered[j] for j in sorted(below))}",
                rules.coverage[covered[i]].span))
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
