from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import strategies
from conftest import corpus_spec_paths
from oracles import check_integrity, fold_conservation_holds, subtree_size
from adapterforge.aslt import (
    AsltNode,
    FoldPattern,
    build_aslt,
    build_component_aslt,
    dump,
    fold,
    traverse,
)
from adapterforge.speclang import (
    AdapterForgeError,
    ComponentSpec,
    parse_component,
    parse_project,
)
from adapterforge.speclang.model import resolve_components


def load_figure3(corpus_dir: Path):
    project = parse_project((corpus_dir / "figure3" / "figure3.pdl").read_text())
    components = [
        parse_component((corpus_dir / "figure3" / name).read_text())
        for name in ("reportgen.cdl", "sortkit.cdl")
    ]
    return project, components


def test_empty_project_single_node():
    tree = build_aslt(parse_project('project "P" { }'), [])
    assert tree == AsltNode("project", "P")
    assert list(traverse(tree)) == [(tree, 0)]


SIX_NODE_COMPONENT = """
component "A" version "1.0.0" {
  provides interface X {
    op f(a: i32, b: i32) -> i32 @concept ops.math.add
  }
}
"""

SIX_NODE_PROJECT = 'project "P" { uses "A" * }'


def test_structural_node_count_and_depths():
    tree = build_aslt(
        parse_project(SIX_NODE_PROJECT), [parse_component(SIX_NODE_COMPONENT)]
    )
    structural = fold(tree, FoldPattern(kind="meta"))
    visible = list(traverse(structural))
    assert len(visible) == 6  # project, component, interface, op, two params
    assert [depth for _, depth in visible] == [0, 1, 2, 3, 4, 4]


def test_build_is_deterministic(corpus_dir: Path):
    project, components = load_figure3(corpus_dir)
    a = build_aslt(project, components)
    b = build_aslt(project, components)
    assert a == b


def test_unresolved_use():
    with pytest.raises(AdapterForgeError) as err:
        build_aslt(parse_project('project "P" { uses "ghost" * }'), [])
    assert err.value.code == "E_UNRESOLVED"


def test_version_constraint_resolution():
    v1 = parse_component('component "A" version "1.0.0" { }')
    v2 = parse_component('component "A" version "2.0.0" { }')
    tree = build_aslt(parse_project('project "P" { uses "A" >= "1.5.0" }'), [v1, v2])
    version_meta = tree.children[0].meta_children[0]
    assert (version_meta.key, version_meta.value) == ("version", "2.0.0")

    with pytest.raises(AdapterForgeError) as err:
        build_aslt(parse_project('project "P" { uses "A" >= "3.0.0" }'), [v1, v2])
    assert err.value.code == "E_UNRESOLVED"


def test_fold_meta_hides_all_meta(corpus_dir: Path):
    project, components = load_figure3(corpus_dir)
    tree = build_aslt(project, components)
    view = fold(tree, FoldPattern(kind="meta"))
    kinds = [node.kind for node, _ in traverse(view)]
    assert "meta" not in kinds


def test_fold_nothing_is_identity(corpus_dir: Path):
    project, components = load_figure3(corpus_dir)
    tree = build_aslt(project, components)
    view = fold(tree, FoldPattern(kind="nosuchkind"))
    assert view == tree
    assert list(traverse(view)) == list(traverse(tree))


def test_folding_the_root_leaves_no_tree(corpus_dir: Path):
    project, components = load_figure3(corpus_dir)
    assert fold(build_aslt(project, components), FoldPattern(kind="project")) is None
    assert fold(build_component_aslt(components[0]), FoldPattern(label="report*")) is None
    assert list(traverse(None)) == []
    assert dump(None) == "\n"


def _count_outside(node: AsltNode, pattern: FoldPattern) -> int:
    """Independent recount: full walk skipping matching subtrees."""
    if pattern.matches(node):
        return 0
    return 1 + sum(_count_outside(c, pattern) for c in node.meta_children + node.children)


def test_fold_interface_matches_recount(corpus_dir: Path):
    project, components = load_figure3(corpus_dir)
    tree = build_aslt(project, components)
    pattern = FoldPattern(kind="interface")
    view = fold(tree, pattern)
    assert len(list(traverse(view))) == _count_outside(tree, pattern)


@pytest.mark.parametrize("kind", ["project", "component", "interface", "operation", "parameter", "meta"])
def test_fold_conservation_by_kind(corpus_dir: Path, kind: str):
    project, components = load_figure3(corpus_dir)
    tree = build_aslt(project, components)
    assert fold_conservation_holds(tree, FoldPattern(kind=kind))


@given(spec=strategies.component_specs(), data=st.data())
@settings(max_examples=60)
def test_fold_conservation_generated(spec, data):
    tree = build_component_aslt(spec)
    kind = data.draw(st.none() | st.sampled_from(list("pcim")))
    kind_full = {
        "p": "parameter",
        "c": "component",
        "i": "interface",
        "m": "meta",
        None: None,
    }[kind]
    label = data.draw(st.none() | st.sampled_from(["*", "a*", "?x", "sort*"]))
    assert fold_conservation_holds(tree, FoldPattern(kind=kind_full, label=label))


def test_traverse_single_node():
    tree = build_aslt(parse_project('project "solo" { }'), [])
    assert list(traverse(tree)) == [(AsltNode("project", "solo"), 0)]


def test_golden_preorder_dump(corpus_dir: Path, golden_dir: Path):
    project, components = load_figure3(corpus_dir)
    text = dump(build_aslt(project, components))
    expected = (golden_dir / "figure3_aslt.txt").read_text()
    assert text == expected


def _expected_size(spec: ComponentSpec) -> int:
    """Node count of a component's tree, counted from the spec itself:
    each node with its meta nodes."""
    size = 2 + len(spec.meta)
    for iface in spec.provided + spec.required:
        size += 2
        for op in iface.operations:
            size += 3
            for p in op.params:
                size += 2 + sum(x is not None for x in (p.concept, p.unit, p.default))
    return size


def test_corpus_trees_are_well_formed(corpus_dir: Path):
    seen = []
    for directory in sorted(p for p in corpus_dir.iterdir() if p.is_dir()):
        components = [parse_component(p.read_text()) for p in sorted(directory.glob("*.cdl"))]
        for component in components:
            tree = build_component_aslt(component)
            check_integrity(tree)
            assert subtree_size(tree) == _expected_size(component), component.name
            seen.append(component.name)
        for path in sorted(directory.glob("*.pdl")):
            project = parse_project(path.read_text())
            tree = build_aslt(project, components)
            check_integrity(tree)
            resolved = resolve_components(project, components)
            wiring = len(project.uses) + len(project.connections) + len(project.demands)
            assert [c.label for c in tree.children] == [use.name for use in project.uses]
            assert subtree_size(tree) == 1 + wiring + sum(
                _expected_size(resolved[use.name]) for use in project.uses
            )
            seen.append(project.name)
    assert len(seen) == len(corpus_spec_paths()) > 0


@given(spec=strategies.component_specs())
@settings(max_examples=80)
def test_generated_component_trees_are_well_formed(spec):
    tree = build_component_aslt(spec)
    check_integrity(tree)
    assert subtree_size(tree) == _expected_size(spec)
