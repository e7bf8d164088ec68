"""Command-line interface.

Subcommands: check, adapt, fmt, pool add/query/list/verify, aslt dump.
Exit codes are a CI contract: 0 clean, 1 adaptable/adapted (or verify
findings), 2 incompatible/demand/unresolvable, 3 any error. Reports go
to stdout, diagnostics to stderr, and only `adapt` and `pool add`
touch the filesystem.

Importing this module loads only the spec language; each command
imports the layers it runs when its handler starts.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .speclang import (
    ConceptId,
    ProjectSpec,
    VersionConstraint,
    parse_any,
    parse_project,
    parse_version,
    serialize,
)
from .speclang.errors import AdapterForgeError
from .speclang.parser import load_specs_dir, parse_spec_file, read_spec_text

if TYPE_CHECKING:
    from .conversions import ConversionTable, MatchConfig

POOL_ENV = "ADAPTERFORGE_POOL"

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_BLOCKED = 2
EXIT_ERROR = 3

# `report.HUMAN` and `report.STRUCTURED`, spelled out so that building
# the parser does not load the report layer.
FORMATS = ("human", "structured")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="adapterforge", description=__doc__)
    parser.add_argument("--version", action="version", version=f"adapterforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(
        p: _Parser, *, specs: bool = False, rules: bool = False, pool: bool = False, fmt: bool = False
    ) -> None:
        if specs:
            p.add_argument("--specs", metavar="DIR", help="directory of .cdl component specs")
        if rules:
            p.add_argument("--conversions", metavar="FILE", help="conversion rules file")
        if pool:
            p.add_argument("--pool", metavar="DIR", help=f"pool directory (or ${POOL_ENV})")
        if fmt:
            p.add_argument(
                "--format", choices=FORMATS, default=FORMATS[0], help="report format"
            )

    p_check = sub.add_parser("check", help="analyse a project without mutating anything")
    p_check.add_argument("project", metavar="PROJECT.pdl")
    common(p_check, specs=True, rules=True, fmt=True)

    p_adapt = sub.add_parser("adapt", help="run the full adaptation workflow")
    p_adapt.add_argument("project", metavar="PROJECT.pdl")
    p_adapt.add_argument("--emit", metavar="DIR", help="output directory (default: beside the project)")
    common(p_adapt, specs=True, rules=True, pool=True, fmt=True)

    p_fmt = sub.add_parser("fmt", help="print specs in canonical form")
    p_fmt.add_argument("files", metavar="FILE", nargs="+")

    p_pool = sub.add_parser("pool", help="administer the component pool")
    pool_sub = p_pool.add_subparsers(dest="pool_command", required=True)
    p_add = pool_sub.add_parser("add", help="store specs or adapter descriptors")
    p_add.add_argument("files", metavar="FILE", nargs="+")
    common(p_add, pool=True)
    p_query = pool_sub.add_parser("query", help="search by demanded concept")
    p_query.add_argument("concept", metavar="CONCEPT")
    p_query.add_argument("constraint", metavar="CONSTRAINT", nargs="?", help="*, =x.y.z or >=x.y.z")
    p_query.add_argument("--conversions", metavar="FILE")
    common(p_query, pool=True)
    p_list = pool_sub.add_parser("list", help="list stored artifacts")
    common(p_list, pool=True)
    p_verify = pool_sub.add_parser("verify", help="re-hash stored artifacts")
    common(p_verify, pool=True)

    p_aslt = sub.add_parser("aslt", help="inspect specification trees")
    aslt_sub = p_aslt.add_subparsers(dest="aslt_command", required=True)
    p_dump = aslt_sub.add_parser("dump", help="print the preorder tree")
    p_dump.add_argument("path", metavar="SPEC")
    p_dump.add_argument("--fold", metavar="KIND", help="hide subtrees of this node kind")
    common(p_dump, specs=True)

    return parser


def _pool_root(args: argparse.Namespace) -> Path:
    flag = getattr(args, "pool", None)
    if flag:
        return Path(flag)
    env = os.environ.get(POOL_ENV)
    if env:
        return Path(env)
    raise _UsageError(f"no pool directory: pass --pool or set ${POOL_ENV}")


def _load_rules(args: argparse.Namespace) -> tuple[ConversionTable, MatchConfig]:
    from .conversions import DEFAULT_CONFIG, ConversionTable, load_rules

    path = getattr(args, "conversions", None)
    if path:
        return load_rules(path)
    return ConversionTable(), DEFAULT_CONFIG


def _specs_dir(args: argparse.Namespace, project_path: Path) -> Path:
    if getattr(args, "specs", None):
        return Path(args.specs)
    return project_path.parent


def _cmd_check(args: argparse.Namespace) -> int:
    from .analyser import ADAPTABLE, INCOMPATIBLE, analyse
    from .report import render_match_report

    project_path = Path(args.project)
    conv, config = _load_rules(args)
    project = parse_spec_file(project_path, parse_project)
    components = load_specs_dir(_specs_dir(args, project_path))
    report = analyse(project, components, conv, config)
    sys.stdout.write(render_match_report(report, args.format))
    if report.demand or any(v.status == INCOMPATIBLE for v in report.verdicts):
        return EXIT_BLOCKED
    if any(v.status == ADAPTABLE for v in report.verdicts):
        return EXIT_FINDINGS
    return EXIT_OK


def _cmd_adapt(args: argparse.Namespace) -> int:
    from .linkage import ADAPTED, ALREADY_EXACT, run_workflow
    from .report import STRUCTURED, render_workflow

    project_path = Path(args.project)
    conv, config = _load_rules(args)
    result = run_workflow(
        project_path, _specs_dir(args, project_path), _pool_root(args), conv, config
    )
    emit_dir = Path(args.emit) if args.emit else project_path.parent
    emit_dir.mkdir(parents=True, exist_ok=True)
    stem = project_path.stem

    suffix = ".report.json" if args.format == STRUCTURED else ".report.txt"
    rendered = render_workflow(result, args.format)
    (emit_dir / f"{stem}{suffix}").write_text(rendered, encoding="utf-8")
    if result.integrations:
        (emit_dir / f"{stem}.adapted.pdl").write_text(
            serialize(result.adapted_project), encoding="utf-8"
        )
        for component in result.added_components:
            (emit_dir / f"{component.name}.cdl").write_text(
                serialize(component), encoding="utf-8"
            )
    for adapter, descriptor in zip(result.generated_adapters, result.descriptors):
        (emit_dir / f"{adapter.name}.adapter").write_text(descriptor, encoding="utf-8")
    sys.stdout.write(rendered)
    return {ALREADY_EXACT: EXIT_OK, ADAPTED: EXIT_FINDINGS}.get(result.outcome, EXIT_BLOCKED)


def _cmd_fmt(args: argparse.Namespace) -> int:
    for file in args.files:
        spec = parse_spec_file(Path(file), parse_any)
        sys.stdout.write(serialize(spec))
    return EXIT_OK


def _cmd_pool(args: argparse.Namespace) -> int:
    from .pool import (
        E_INVALID_SPEC,
        PoolQuery,
        init_pool,
        pool_add,
        pool_list,
        pool_query,
        pool_verify,
    )

    root = _pool_root(args)
    if args.pool_command == "add":
        init_pool(root)
        for file in args.files:
            text = read_spec_text(Path(file))
            try:
                fp = pool_add(root, text)
            except AdapterForgeError as err:  # an invalid document is the file's fault
                if err.code != E_INVALID_SPEC:
                    raise
                raise AdapterForgeError(err.code, f"{file}: {err.message}") from None
            sys.stdout.write(f"{fp}\n")
        return EXIT_OK
    if args.pool_command == "query":
        _, config = _load_rules(args)
        constraint = _parse_constraint(args.constraint) if args.constraint else None
        query = PoolQuery(_parse_concept(args.concept), constraint)
        for c in pool_query(root, query, config):
            sys.stdout.write(f"{c.fingerprint} {float(c.score):.3f} {c.entry.name}\n")
        return EXIT_OK
    if args.pool_command == "list":
        for fp, entry in pool_list(root):
            sys.stdout.write(f"{fp} {entry.kind} {entry.name} {entry.version}\n")
        return EXIT_OK
    findings = pool_verify(root)
    for finding in findings:
        sys.stdout.write(
            f"{finding.kind} {finding.fingerprint} {finding.path}: {finding.detail}\n"
        )
    return EXIT_FINDINGS if findings else EXIT_OK


def _parse_concept(text: str) -> ConceptId:
    try:
        return ConceptId.from_text(text)
    except ValueError as err:
        raise _UsageError(str(err)) from None


def _parse_constraint(text: str) -> VersionConstraint:
    try:
        if text == "*":
            return VersionConstraint("*")
        if text.startswith(">="):
            return VersionConstraint(">=", parse_version(text[2:]))
        if text.startswith("="):
            return VersionConstraint("=", parse_version(text[1:]))
    except ValueError as err:
        raise _UsageError(str(err)) from None
    raise _UsageError(f"bad constraint {text!r}: use *, =x.y.z or >=x.y.z")


def _cmd_aslt(args: argparse.Namespace) -> int:
    from .aslt import FoldPattern, build_aslt, build_component_aslt, dump, fold

    path = Path(args.path)
    spec = parse_spec_file(path, parse_any)
    if isinstance(spec, ProjectSpec):
        components = load_specs_dir(_specs_dir(args, path))
        tree = build_aslt(spec, components)
    else:
        tree = build_component_aslt(spec)
    view = fold(tree, FoldPattern(kind=args.fold)) if args.fold else tree
    sys.stdout.write(dump(view))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_ERROR
    except SystemExit as exit_:  # --version / --help
        return int(exit_.code or 0)
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "adapt":
            return _cmd_adapt(args)
        if args.command == "fmt":
            return _cmd_fmt(args)
        if args.command == "pool":
            return _cmd_pool(args)
        return _cmd_aslt(args)
    except _UsageError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_ERROR
    except AdapterForgeError as err:
        sys.stderr.write(f"error: {err.code}: {err.message}\n")
        return EXIT_ERROR
    except OSError as err:
        sys.stderr.write(f"error: E_IO: {err}\n")
        return EXIT_ERROR
    except Exception as err:  # a bug must not exit with a code CI reads as success
        message = " ".join(str(err).split())
        sys.stderr.write(f"error: E_INTERNAL: {type(err).__name__}: {message}\n")
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
