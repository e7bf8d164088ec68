from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

import strategies
from conftest import corpus_spec_paths
from oracles import check_integrity, fold_conservation_holds
from adapterforge.aslt import (
    Aslt,
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
    MetaEntry,
    parse_component,
    parse_project,
    serialize,
)


def load_figure3(corpus_dir: Path):
    project = parse_project((corpus_dir / "figure3" / "figure3.pdl").read_text())
    components = [
        parse_component((corpus_dir / "figure3" / name).read_text())
        for name in ("reportgen.cdl", "sortkit.cdl")
    ]
    return project, components


def test_empty_project_single_node():
    tree = build_aslt(parse_project('project "P" { }'), [])
    assert len(tree) == 1
    assert traverse(tree) == [(tree.root, 0)]


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
    visible = traverse(structural)
    assert len(visible) == 6  # project, component, interface, op, two params
    assert [depth for _, depth in visible] == [0, 1, 2, 3, 4, 4]


def test_build_is_deterministic(corpus_dir: Path):
    project, components = load_figure3(corpus_dir)
    a = build_aslt(project, components)
    b = build_aslt(project, components)
    assert a == b  # includes node ids


def test_unresolved_use():
    with pytest.raises(AdapterForgeError) as err:
        build_aslt(parse_project('project "P" { uses "ghost" * }'), [])
    assert err.value.code == "E_UNRESOLVED"


def test_version_constraint_resolution():
    v1 = parse_component('component "A" version "1.0.0" { }')
    v2 = parse_component('component "A" version "2.0.0" { }')
    tree = build_aslt(parse_project('project "P" { uses "A" >= "1.5.0" }'), [v1, v2])
    component = tree.node(tree.node(tree.root).children[0])
    version_meta = tree.node(component.meta_children[0])
    assert version_meta.value == "2.0.0"

    with pytest.raises(AdapterForgeError) as err:
        build_aslt(parse_project('project "P" { uses "A" >= "3.0.0" }'), [v1, v2])
    assert err.value.code == "E_UNRESOLVED"


def test_node_missing_id():
    tree = build_component_aslt(parse_component(SIX_NODE_COMPONENT))
    with pytest.raises(AdapterForgeError) as err:
        tree.node(10_000)
    assert err.value.code == "E_NO_NODE"


def test_fold_meta_hides_all_meta(corpus_dir: Path):
    project, components = load_figure3(corpus_dir)
    tree = build_aslt(project, components)
    view = fold(tree, FoldPattern(kind="meta"))
    kinds = [tree.node(i).kind for i, _ in traverse(view)]
    assert "meta" not in kinds


def test_fold_nothing_is_identity(corpus_dir: Path):
    project, components = load_figure3(corpus_dir)
    tree = build_aslt(project, components)
    view = fold(tree, FoldPattern(kind="nosuchkind"))
    assert traverse(view) == traverse(tree)


def _count_outside(tree: Aslt, pattern: FoldPattern) -> int:
    """Independent recount: full walk skipping matching subtrees."""

    def walk(node_id: int) -> int:
        node = tree.node(node_id)
        if pattern.matches(node):
            return 0
        return 1 + sum(walk(c) for c in node.meta_children + node.children)

    return walk(tree.root)


def test_fold_interface_matches_recount(corpus_dir: Path):
    project, components = load_figure3(corpus_dir)
    tree = build_aslt(project, components)
    pattern = FoldPattern(kind="interface")
    view = fold(tree, pattern)
    assert len(traverse(view)) == _count_outside(tree, pattern)


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
    assert traverse(tree) == [(0, 0)]


def test_golden_preorder_dump(corpus_dir: Path, golden_dir: Path):
    project, components = load_figure3(corpus_dir)
    text = dump(build_aslt(project, components))
    expected = (golden_dir / "figure3_aslt.txt").read_text()
    assert text == expected


def test_source_map_points_into_canonical_text(corpus_dir: Path):
    project, components = load_figure3(corpus_dir)
    tree = build_aslt(project, components)
    for node_id, (file, line) in tree.source_map.items():
        assert file.endswith((".cdl", ".pdl"))
        assert line >= 1
    # The sortkit op node maps to the op line of its canonical form.
    op_node = next(
        n for n in tree.nodes.values() if n.kind == "operation" and n.label == "sort"
    )
    file, line = tree.source_map[op_node.id]
    assert file == "sortkit.cdl"
    from adapterforge.speclang import serialize

    spec = next(c for c in components if c.name == "sortkit")
    assert "op sort(" in serialize(spec).split("\n")[line - 1]


def _corpus_trees(corpus_dir: Path):
    """Every corpus project tree (with its directory's components) and
    every corpus component tree, each with the canonical text per file."""
    for directory in sorted(p for p in corpus_dir.iterdir() if p.is_dir()):
        components = [parse_component(p.read_text()) for p in sorted(directory.glob("*.cdl"))]
        texts = {f"{c.name}.cdl": serialize(c).split("\n") for c in components}
        for component in components:
            yield directory.name + "/" + component.name, build_component_aslt(component), texts
        for path in sorted(directory.glob("*.pdl")):
            project = parse_project(path.read_text())
            project_texts = dict(texts, **{f"{project.name}.pdl": serialize(project).split("\n")})
            yield directory.name + "/" + project.name, build_aslt(project, components), project_texts


_PROJECT_META_KEYS = ("uses", "connect", "demand")


def _assert_preorder_ids_and_labelled_lines(tree: Aslt, texts: dict[str, list[str]]) -> None:
    assert [node_id for node_id, _ in traverse(tree)] == list(range(len(tree)))
    assert tree.root == 0
    assert set(tree.source_map) == set(tree.nodes)
    owner = {m: n.id for n in tree.nodes.values() for m in n.meta_children}
    for node_id, node in tree.nodes.items():
        file, line = tree.source_map[node_id]
        text = texts[file][line - 1]
        if node.kind != "meta":
            assert node.label in text, (node, text)
        elif node.key in _PROJECT_META_KEYS and tree.node(owner[node_id]).kind == "project":
            # Project wiring points at its own line, not the project's; a
            # component's meta entry may use the same key.
            assert text.startswith(f"  {node.key} "), (node, text)
            if node.key == "uses":
                name, _, constraint = node.value.partition(" ")
                assert name in text and text.endswith(constraint), (node, text)
            else:
                assert text == f"  {node.key} {node.value}", (node, text)
        else:
            assert tree.source_map[owner[node_id]] == (file, line), node
    root = tree.node(tree.root)
    wiring = [
        tree.source_map[m]
        for m in root.meta_children
        if root.kind == "project" and tree.node(m).key in _PROJECT_META_KEYS
    ]
    assert len(set(wiring)) == len(wiring)


def test_corpus_trees_preorder_ids_and_source_lines(corpus_dir: Path):
    seen = []
    for name, tree, texts in _corpus_trees(corpus_dir):
        check_integrity(tree)
        _assert_preorder_ids_and_labelled_lines(tree, texts)
        seen.append(name)
    assert len(seen) == len(corpus_spec_paths()) > 0


@given(spec=strategies.component_specs())
@example(spec=ComponentSpec(name="__", version=(0, 0, 0), meta=(MetaEntry("demand", ""),)))
@example(
    spec=ComponentSpec(name="__", version=(0, 0, 0), meta=(MetaEntry("demand", ""), MetaEntry("uses", "")))
)
@settings(max_examples=80)
def test_generated_component_preorder_ids_and_source_lines(spec):
    tree = build_component_aslt(spec)
    check_integrity(tree)
    _assert_preorder_ids_and_labelled_lines(tree, {f"{spec.name}.cdl": serialize(spec).split("\n")})
