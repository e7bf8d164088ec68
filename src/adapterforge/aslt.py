"""Hierarchical element tree over specifications (ASLT).

Specs flatten into a tree of project / component / interface /
operation / parameter nodes. Extended properties (concepts, units,
defaults, version tags, project wiring) hang off their owners as meta
nodes, so tooling can walk one homogeneous structure. The tree is the
inspection view (`aslt dump`, source maps): `check` and `adapt` work
on the specs and never build one. Trees are
immutable; meta attachment returns a new tree, and folding is a
non-destructive overlay.

Node ids are dense integers assigned in preorder (meta children before
structural children), which keeps textual dumps and source maps stable
across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase

from .speclang import ComponentSpec, ProjectSpec
from .speclang.errors import AdapterForgeError
from .speclang.serializer import serialize_with_positions

E_NO_NODE = "E_NO_NODE"
E_META_ON_META = "E_META_ON_META"
E_UNRESOLVED = "E_UNRESOLVED"

KINDS = ("project", "component", "interface", "operation", "parameter", "meta")
_CHILD_KIND = {
    "project": "component",
    "component": "interface",
    "interface": "operation",
    "operation": "parameter",
    "parameter": None,
    "meta": None,
}


class AsltError(AdapterForgeError):
    pass


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
            raise AsltError(E_NO_NODE, f"no node with id {node_id}") from None

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


class _Builder:
    def __init__(self) -> None:
        self.nodes: dict[int, AsltNode] = {}
        self.source_map: dict[int, tuple[str, int]] = {}
        self._next = 0

    def new_id(self) -> int:
        self._next += 1
        return self._next - 1

    def add(self, node: AsltNode, source: tuple[str, int] | None) -> int:
        self.nodes[node.id] = node
        if source is not None:
            self.source_map[node.id] = source
        return node.id

    def meta(self, key: str, value: str, source: tuple[str, int] | None = None) -> int:
        node_id = self.new_id()
        return self.add(
            AsltNode(node_id, "meta", f"{key}={value}", key=key, value=value), source
        )


def resolve_components(
    project: ProjectSpec, components: list[ComponentSpec]
) -> dict[str, ComponentSpec]:
    """Pick, per uses entry, the highest version satisfying its constraint."""
    resolved: dict[str, ComponentSpec] = {}
    for use in project.uses:
        candidates = [
            c
            for c in components
            if c.name == use.name and use.constraint.satisfies(c.version)
        ]
        if not candidates:
            raise AsltError(
                E_UNRESOLVED,
                f"no component satisfies uses {use.name!r} {use.constraint}",
            )
        resolved[use.name] = max(candidates, key=lambda c: c.version)
    return resolved


def build_aslt(project: ProjectSpec, components: list[ComponentSpec]) -> Aslt:
    """Deterministic tree for a project and the components it uses."""
    resolved = resolve_components(project, components)
    b = _Builder()
    root_id = b.new_id()
    project_file = f"{project.name}.pdl"
    _, project_pos = serialize_with_positions(project)

    meta_ids: list[int] = []
    for use in project.uses:
        line = project_pos.get(("uses", use.name), 1)
        meta_ids.append(b.meta("uses", f"{use.name} {use.constraint}", (project_file, line)))
    for conn in project.connections:
        line = project_pos.get(("connect", conn.label()), 1)
        meta_ids.append(b.meta("connect", conn.label(), (project_file, line)))
    for demand in project.demands:
        line = project_pos.get(("demand", str(demand)), 1)
        meta_ids.append(b.meta("demand", str(demand), (project_file, line)))

    child_ids = [_build_component(b, resolved[use.name]) for use in project.uses]
    b.add(
        AsltNode(
            root_id,
            "project",
            project.name,
            children=tuple(child_ids),
            meta_children=tuple(meta_ids),
        ),
        (project_file, project_pos[("project", project.name)]),
    )
    return Aslt(root=root_id, nodes=b.nodes, source_map=b.source_map)


def build_component_aslt(component: ComponentSpec) -> Aslt:
    """Tree rooted at a single component, for standalone inspection."""
    b = _Builder()
    root_id = _build_component(b, component)
    return Aslt(root=root_id, nodes=b.nodes, source_map=b.source_map)


def _build_component(b: _Builder, spec: ComponentSpec) -> int:
    file = f"{spec.name}.cdl"
    _, pos = serialize_with_positions(spec)
    comp_id = b.new_id()
    comp_line = pos[("component", spec.name)]

    meta_ids = [b.meta("version", ".".join(str(v) for v in spec.version), (file, comp_line))]
    for entry in spec.meta:
        meta_ids.append(b.meta(entry.key, entry.value, (file, comp_line)))

    iface_ids = []
    for iface in spec.provided + spec.required:
        iface_id = b.new_id()
        iface_line = pos[("interface", iface.direction, iface.name)]
        iface_meta = [b.meta("direction", iface.direction, (file, iface_line))]
        op_ids = []
        for op in iface.operations:
            op_id = b.new_id()
            op_line = pos[("op", iface.direction, iface.name, op.name)]
            op_meta = [
                b.meta("concept", str(op.concept), (file, op_line)),
                b.meta("returns", str(op.returns), (file, op_line)),
            ]
            param_ids = []
            for param in op.params:
                param_id = b.new_id()
                param_line = pos[("param", iface.direction, iface.name, op.name, param.name)]
                source = (file, param_line)
                param_meta = [b.meta("type", str(param.ty), source)]
                if param.concept is not None:
                    param_meta.append(b.meta("concept", str(param.concept), source))
                if param.unit is not None:
                    param_meta.append(b.meta("unit", param.unit, source))
                if param.default is not None:
                    param_meta.append(b.meta("default", param.default.canonical_text(), source))
                param_ids.append(
                    b.add(
                        AsltNode(
                            param_id,
                            "parameter",
                            param.name,
                            meta_children=tuple(param_meta),
                        ),
                        source,
                    )
                )
            op_ids.append(
                b.add(
                    AsltNode(
                        op_id,
                        "operation",
                        op.name,
                        children=tuple(param_ids),
                        meta_children=tuple(op_meta),
                    ),
                    (file, op_line),
                )
            )
        iface_ids.append(
            b.add(
                AsltNode(
                    iface_id,
                    "interface",
                    iface.name,
                    children=tuple(op_ids),
                    meta_children=tuple(iface_meta),
                ),
                (file, iface_line),
            )
        )

    return b.add(
        AsltNode(
            comp_id,
            "component",
            spec.name,
            children=tuple(iface_ids),
            meta_children=tuple(meta_ids),
        ),
        (file, comp_line),
    )


def attach_meta(tree: Aslt, target: int, key: str, value: str) -> Aslt:
    """Append one meta node under target; existing ids are untouched."""
    node = tree.node(target)
    if node.kind == "meta":
        raise AsltError(E_META_ON_META, f"node {target} is a meta node")
    new_id = max(tree.nodes) + 1
    meta_node = AsltNode(new_id, "meta", f"{key}={value}", key=key, value=value)
    nodes = dict(tree.nodes)
    nodes[new_id] = meta_node
    nodes[target] = AsltNode(
        node.id,
        node.kind,
        node.label,
        children=node.children,
        meta_children=node.meta_children + (new_id,),
        key=node.key,
        value=node.value,
    )
    source_map = dict(tree.source_map)
    if target in source_map:
        source_map[new_id] = source_map[target]
    return Aslt(root=tree.root, nodes=nodes, source_map=source_map)


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


def subtree_size(tree: Aslt, node_id: int) -> int:
    node = tree.node(node_id)
    return 1 + sum(subtree_size(tree, c) for c in node.meta_children + node.children)


def dump(tree_or_view: Aslt | FoldView) -> str:
    """Line-oriented text: two spaces of indent per depth, `kind label`."""
    tree = tree_or_view.base if isinstance(tree_or_view, FoldView) else tree_or_view
    lines = [
        f"{'  ' * depth}{tree.node(node_id).kind} {tree.node(node_id).label}"
        for node_id, depth in traverse(tree_or_view)
    ]
    return "\n".join(lines) + "\n"


def check_integrity(tree: Aslt) -> None:
    """Full-walk structural check; raises AssertionError on any defect."""
    seen: set[int] = set()
    parents: dict[int, int] = {}

    def walk(node_id: int) -> None:
        assert node_id not in seen, f"node {node_id} reached twice"
        seen.add(node_id)
        node = tree.node(node_id)
        assert node.kind in KINDS
        for child_id in node.meta_children:
            child = tree.node(child_id)
            assert child.kind == "meta", "meta_children must hold meta nodes"
            assert node.kind != "meta", "meta node cannot carry meta children"
            parents[child_id] = node_id
            walk(child_id)
        for child_id in node.children:
            child = tree.node(child_id)
            expected = _CHILD_KIND[node.kind]
            assert expected is not None and child.kind == expected, (
                f"{node.kind} node may not contain {child.kind}"
            )
            parents[child_id] = node_id
            walk(child_id)
        if node.kind == "meta":
            assert not node.children and not node.meta_children

    walk(tree.root)
    assert seen == set(tree.nodes), "unreachable or dangling nodes"
    for node_id in tree.nodes:
        if node_id != tree.root:
            assert node_id in parents, f"node {node_id} has no parent"
