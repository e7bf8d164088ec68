"""Hierarchical element tree over specifications (ASLT).

Specs flatten into a tree of project / component / interface /
operation / parameter nodes. Extended properties (concepts, units,
defaults, version tags, project wiring) hang off their owners as meta
nodes, so tooling can walk one homogeneous structure. The tree is the
inspection view behind `aslt dump`: `check` and `adapt` work on the
specs and never build one. A node holds its children, so the root is
the tree; trees are immutable, and folding returns a smaller tree.
Preorder visits a node, then its meta nodes, then its children.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fnmatch import fnmatchcase
from typing import Iterator

from .speclang import ComponentSpec, ParamSig, ProjectSpec, format_version
from .speclang.model import resolve_components


@dataclass(frozen=True)
class AsltNode:
    kind: str
    label: str
    children: tuple[AsltNode, ...] = ()
    meta_children: tuple[AsltNode, ...] = ()
    # Only set on meta nodes; label is "key=value".
    key: str | None = None
    value: str | None = None


@dataclass(frozen=True)
class FoldPattern:
    """Matches nodes by kind and/or label glob; None fields match anything."""

    kind: str | None = None
    label: str | None = None

    def matches(self, node: AsltNode) -> bool:
        if self.kind is not None and node.kind != self.kind:
            return False
        if self.label is not None and not fnmatchcase(node.label, self.label):
            return False
        return True


def _node(kind: str, label: str, meta: list[tuple[str, str]], children: list[AsltNode]) -> AsltNode:
    metas = tuple(AsltNode("meta", f"{key}={value}", key=key, value=value) for key, value in meta)
    return AsltNode(kind, label, tuple(children), metas)


def build_aslt(project: ProjectSpec, components: list[ComponentSpec]) -> AsltNode:
    """Deterministic tree for a project and the components it uses."""
    resolved = resolve_components(project, components)
    meta = [("uses", f"{use.name} {use.constraint}") for use in project.uses]
    meta += [("connect", conn.label()) for conn in project.connections]
    meta += [("demand", str(demand)) for demand in project.demands]
    children = [build_component_aslt(resolved[use.name]) for use in project.uses]
    return _node("project", project.name, meta, children)


def build_component_aslt(spec: ComponentSpec) -> AsltNode:
    """Tree rooted at a single component, for standalone inspection."""
    interfaces = [
        _node(
            "interface",
            iface.name,
            [("direction", iface.direction)],
            [
                _node(
                    "operation",
                    op.name,
                    [("concept", str(op.concept)), ("returns", str(op.returns))],
                    [_node("parameter", p.name, _param_meta(p), []) for p in op.params],
                )
                for op in iface.operations
            ],
        )
        for iface in spec.provided + spec.required
    ]
    meta = [("version", format_version(spec.version))] + [(e.key, e.value) for e in spec.meta]
    return _node("component", spec.name, meta, interfaces)


def _param_meta(param: ParamSig) -> list[tuple[str, str]]:
    meta = [("type", str(param.ty))]
    if param.concept is not None:
        meta.append(("concept", str(param.concept)))
    if param.unit is not None:
        meta.append(("unit", param.unit))
    if param.default is not None:
        meta.append(("default", param.default.canonical_text()))
    return meta


def fold(tree: AsltNode, pattern: FoldPattern) -> AsltNode | None:
    """The tree without each matching node and its subtree; None when
    the root matches."""
    if pattern.matches(tree):
        return None

    def kept(nodes: tuple[AsltNode, ...]) -> tuple[AsltNode, ...]:
        return tuple(n for n in (fold(node, pattern) for node in nodes) if n is not None)

    return replace(tree, children=kept(tree.children), meta_children=kept(tree.meta_children))


def traverse(tree: AsltNode | None) -> Iterator[tuple[AsltNode, int]]:
    """Preorder (node, depth) pairs; meta children precede children."""
    stack = [] if tree is None else [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        stack.extend((child, depth + 1) for child in reversed(node.meta_children + node.children))


def dump(tree: AsltNode | None) -> str:
    """Line-oriented text: two spaces of indent per depth, `kind label`."""
    lines = (f"{'  ' * depth}{node.kind} {node.label}" for node, depth in traverse(tree))
    return "\n".join(lines) + "\n"
