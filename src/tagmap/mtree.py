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
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .diagnostics import Diagnostic, warning
from .maprules import RuleSet
from .typegraph import CoverNode, TerminalClass, minimal_cover, render_cover


@dataclass
class MTree:
    rules: RuleSet
    assignments: dict[str, tuple[CoverNode, ...]]
    diagnostics: list[Diagnostic] = field(default_factory=list)
    unreachable: tuple[CoverNode, ...] = ()    # cover of the target holes

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
    out = []
    covered = [t for t in rules.inventory if t in rules.coverage]
    for i, a in enumerate(covered):
        ra = rules.coverage[a]
        for b in covered[i + 1:]:
            rb = rules.coverage[b]
            shared = ra.typed.denotation & rb.typed.denotation
            if shared:
                out.append(warning(
                    "nondisjunctive",
                    f"tags {a} and {b} overlap on "
                    f"{render_cover(minimal_cover(shared, g))}",
                    max(ra.span, rb.span)))
    return out


def _check_hierarchical(rules: RuleSet,
                        assignments: dict[str, tuple[CoverNode, ...]]
                        ) -> list[Diagnostic]:
    # a covering node of one tag strictly containing a covering node of
    # another makes the outer tag sit above occupied territory; one
    # diagnostic per such ancestor node, listing every tag found below it
    out = []
    covered = [t for t in rules.inventory if t in rules.coverage]
    for outer in covered:
        for node in assignments[outer]:
            inner = [t for t in covered
                     if t != outer
                     and any(c.mask != node.mask and c.mask & ~node.mask == 0
                             for c in assignments[t])]
            if inner:
                out.append(warning(
                    "hierarchical",
                    f"covering node {node.render()} of tag {outer} strictly "
                    f"contains coverage of {', '.join(inner)}",
                    rules.coverage[outer].span))
    return out


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
