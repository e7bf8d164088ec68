"""Hierarchical element tree over specifications (ASLT).

Specs flatten into a tree of project / component / interface /
operation / parameter nodes. Extended properties (concepts, units,
defaults, version tags, project wiring) hang off their owners as meta
nodes, so tooling can walk one homogeneous structure. The tree is the
inspection view (`aslt dump`, source maps): `check` and `adapt` work
on the specs and never build one. Trees are immutable, and folding is
a non-destructive overlay.

A tree is built in two steps. Pure functions describe a spec as nested
(kind, label, source, meta, children) tuples, with source lines taken
from the canonical text. One walk then numbers the description: dense
integer ids in preorder (a node, then its meta nodes, then its
children), which keeps textual dumps and source maps stable across
runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from itertools import count

from .speclang import ComponentSpec, ParamSig, ProjectSpec, format_version
from .speclang.errors import AdapterForgeError
from .speclang.model import resolve_components
from .speclang.serializer import serialize_with_positions

E_NO_NODE = "E_NO_NODE"


@dataclass(frozen=True)
class AsltNode:
    id: int
    kind: str
    label: str
    children: tuple[int, ...] = ()
    meta_children: tuple[int, ...] = ()
    # Only set on meta nodes; label is "key=value".
    key: str | None = None
    value: str | None = None


@dataclass(frozen=True)
class Aslt:
    root: int
    nodes: dict[int, AsltNode]
    source_map: dict[int, tuple[str, int]] = field(default_factory=dict)

    def node(self, node_id: int) -> AsltNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise AdapterForgeError(E_NO_NODE, f"no node with id {node_id}") from None

    def __len__(self) -> int:
        return len(self.nodes)


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


@dataclass(frozen=True)
class FoldView:
    base: Aslt
    hidden: frozenset[int]


def build_aslt(project: ProjectSpec, components: list[ComponentSpec]) -> Aslt:
    """Deterministic tree for a project and the components it uses."""
    resolved = resolve_components(project, components)
    file = f"{project.name}.pdl"
    _, pos = serialize_with_positions(project)

    def at(*key: str) -> tuple[str, int]:
        return (file, pos[key])

    meta = [("uses", f"{use.name} {use.constraint}", at("uses", use.name)) for use in project.uses]
    meta += [("connect", conn.label(), at("connect", conn.label())) for conn in project.connections]
    meta += [("demand", str(demand), at("demand", str(demand))) for demand in project.demands]
    children = [_describe_component(resolved[use.name]) for use in project.uses]
    return _number(("project", project.name, at("project", project.name), meta, children))


def build_component_aslt(component: ComponentSpec) -> Aslt:
    """Tree rooted at a single component, for standalone inspection."""
    return _number(_describe_component(component))


def _describe_component(spec: ComponentSpec) -> tuple:
    file = f"{spec.name}.cdl"
    _, pos = serialize_with_positions(spec)

    def owned(kind: str, label: str, key: tuple, meta: list, children: list) -> tuple:
        """A description whose meta entries all sit on their owner's line."""
        source = (file, pos[key])
        return (kind, label, source, [(k, v, source) for k, v in meta], children)

    interfaces = []
    for iface in spec.provided + spec.required:
        where = (iface.direction, iface.name)
        ops = []
        for op in iface.operations:
            params = [
                owned("parameter", p.name, ("param", *where, op.name, p.name), _param_meta(p), [])
                for p in op.params
            ]
            meta = [("concept", str(op.concept)), ("returns", str(op.returns))]
            ops.append(owned("operation", op.name, ("op", *where, op.name), meta, params))
        meta = [("direction", iface.direction)]
        interfaces.append(owned("interface", iface.name, ("interface", *where), meta, ops))
    meta = [("version", format_version(spec.version))] + [(e.key, e.value) for e in spec.meta]
    return owned("component", spec.name, ("component", spec.name), meta, interfaces)


def _param_meta(param: ParamSig) -> list[tuple[str, str]]:
    meta = [("type", str(param.ty))]
    if param.concept is not None:
        meta.append(("concept", str(param.concept)))
    if param.unit is not None:
        meta.append(("unit", param.unit))
    if param.default is not None:
        meta.append(("default", param.default.canonical_text()))
    return meta


def _number(description: tuple) -> Aslt:
    """Create every node of a description (kind, label, source, meta,
    children), where a meta entry is (key, value, source) and a source
    is (file, line). Ids run in preorder: a node, then its meta nodes,
    then its children."""
    nodes: dict[int, AsltNode] = {}
    source_map: dict[int, tuple[str, int]] = {}
    next_id = count().__next__

    def place(node: AsltNode, source: tuple[str, int]) -> int:
        nodes[node.id] = node
        source_map[node.id] = source
        return node.id

    def walk(kind, label, source, meta, children) -> int:
        node_id = next_id()
        meta_ids = tuple(
            place(AsltNode(next_id(), "meta", f"{key}={value}", key=key, value=value), at)
            for key, value, at in meta
        )
        child_ids = tuple(walk(*child) for child in children)
        return place(AsltNode(node_id, kind, label, child_ids, meta_ids), source)

    return Aslt(root=walk(*description), nodes=nodes, source_map=source_map)


def fold(tree: Aslt, pattern: FoldPattern) -> FoldView:
    """Overlay hiding every matching node together with its subtree."""
    hidden = frozenset(n.id for n in tree.nodes.values() if pattern.matches(n))
    return FoldView(base=tree, hidden=hidden)


def traverse(tree_or_view: Aslt | FoldView) -> list[tuple[int, int]]:
    """Preorder (node id, depth) pairs; meta children precede children."""
    if isinstance(tree_or_view, FoldView):
        tree, hidden = tree_or_view.base, tree_or_view.hidden
    else:
        tree, hidden = tree_or_view, frozenset()

    out: list[tuple[int, int]] = []

    def walk(node_id: int, depth: int) -> None:
        if node_id in hidden:
            return
        node = tree.node(node_id)
        out.append((node_id, depth))
        for child in node.meta_children:
            walk(child, depth + 1)
        for child in node.children:
            walk(child, depth + 1)

    walk(tree.root, 0)
    return out


def dump(tree_or_view: Aslt | FoldView) -> str:
    """Line-oriented text: two spaces of indent per depth, `kind label`."""
    tree = tree_or_view.base if isinstance(tree_or_view, FoldView) else tree_or_view
    lines = [
        f"{'  ' * depth}{tree.node(node_id).kind} {tree.node(node_id).label}"
        for node_id, depth in traverse(tree_or_view)
    ]
    return "\n".join(lines) + "\n"
