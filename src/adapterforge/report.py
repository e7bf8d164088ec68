"""Report rendering and the structured round-trip format.

Human output is line-oriented: one verdict line per connection with
the literal EXACT / ADAPTABLE / INCOMPATIBLE token, mismatch detail
indented beneath. Structured output is canonical JSON that re-parses
to an equal value, so CI can archive and diff results.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from . import canonjson
from .adapters import (
    _concept_from_json,
    _literal_from_json,
    _literal_to_json,
    _port_from_json,
    _port_to_json,
    _rule_from_json,
    _rule_to_json,
    parse_descriptor,
)
from .analyser import (
    ConnectionVerdict,
    Demand,
    MatchReport,
    Mismatch,
    OperationMatch,
    OperationShape,
)
from .linkage import (
    Integration,
    StepRecord,
    WorkflowResult,
)
from .speclang import (
    ConceptId,
    Connection,
    parse_component,
    parse_project,
    serialize,
)
from .speclang.model import IDENT_RE
from .speclang.parser import parse_type

HUMAN = "human"
STRUCTURED = "structured"


def _score_text(score: Fraction | None) -> str:
    if score is None:
        return "-"
    return f"{float(score):.3f}"


def render_match_report(report: MatchReport, format: str = HUMAN) -> str:
    if format == STRUCTURED:
        return canonjson.dumps(match_report_to_json(report))
    lines = [f"project {report.project}"]
    for verdict in report.verdicts:
        lines.append(
            f"connection {verdict.connection.label()}: {verdict.status}"
            f" score {_score_text(verdict.score)}"
        )
        if verdict.reason:
            lines.append(f"  reason: {verdict.reason}")
        for mismatch in verdict.mismatches:
            lines.append(f"  {mismatch.describe()}")
    for demand in report.demand:
        lines.append(f"demand {demand.concept} ({demand.origin})")
    return "\n".join(lines) + "\n"


def render_workflow(result: WorkflowResult, format: str = HUMAN) -> str:
    if format == STRUCTURED:
        return canonjson.dumps(workflow_result_to_json(result))
    lines = [f"project {result.final_report.project}"]
    for verdict in result.final_report.verdicts:
        lines.append(
            f"connection {verdict.connection.label()}: {verdict.status}"
            f" score {_score_text(verdict.score)}"
        )
    for integration in result.integrations:
        lines.append(
            f"integrated {integration.component} ({integration.source}"
            f" {integration.fingerprint[:12]}) for {integration.connection}"
        )
    for demand in result.unresolved:
        lines.append(f"unresolved demand {demand.concept} ({demand.origin})")
    for note in result.diagnostics:
        lines.append(f"note: {note}")
    lines.append(f"outcome {result.outcome}")
    return "\n".join(lines) + "\n"


# --- JSON encoding ---


def mismatch_to_json(m: Mismatch) -> dict:
    doc: dict[str, Any] = {"kind": m.kind, "location": list(m.location)}
    if m.renamed_from is not None:
        doc["renamed_from"] = m.renamed_from
        doc["renamed_to"] = m.renamed_to
    if m.order is not None:
        doc["order"] = list(m.order)
    if m.slot is not None:
        doc["slot"] = m.slot
    if m.from_port is not None:
        doc["from"] = _port_to_json(m.from_port)
        doc["to"] = _port_to_json(m.to_port)
    if m.rule is not None:
        doc["rule"] = _rule_to_json(m.rule)
    if m.fill_value is not None:
        doc["fill"] = _literal_to_json(m.fill_value)
    if m.hops is not None:
        doc["hops"] = m.hops
    if m.concept is not None:
        doc["concept"] = str(m.concept)
    return doc


def mismatch_from_json(doc: dict) -> Mismatch:
    return Mismatch(
        kind=doc["kind"],
        location=tuple(doc["location"]),  # type: ignore[arg-type]
        renamed_from=doc.get("renamed_from"),
        renamed_to=doc.get("renamed_to"),
        order=tuple(doc["order"]) if "order" in doc else None,
        slot=doc.get("slot"),
        from_port=_port_from_json(doc["from"]) if "from" in doc else None,
        to_port=_port_from_json(doc["to"]) if "to" in doc else None,
        rule=_rule_from_json(doc["rule"]) if "rule" in doc else None,
        fill_value=_literal_from_json(doc["fill"]) if "fill" in doc else None,
        hops=doc.get("hops"),
        concept=_concept_from_json(doc["concept"]) if "concept" in doc else None,
    )


def _shape_json(shape: OperationShape | None) -> Any:
    if shape is None:
        return None
    return {
        "params": [
            {"type": str(ty), **({"unit": unit} if unit else {}), "concept": str(c)}
            for ty, unit, c in shape.params
        ],
        "returns": str(shape.returns),
    }


def _param_concept_from_json(text: str) -> ConceptId:
    """A shape param's effective concept: a declared one, or the op's
    concept extended by `arg.<param name>`, whose name is any identifier."""
    head, sep, name = text.rpartition(".arg.")
    if sep and IDENT_RE.match(name):
        return _concept_from_json(head).child("arg", name)
    return _concept_from_json(text)


def _shape_from(doc: Any) -> OperationShape | None:
    if doc is None:
        return None
    return OperationShape(
        params=tuple(
            (parse_type(p["type"]), p.get("unit"), _param_concept_from_json(p["concept"]))
            for p in doc["params"]
        ),
        returns=parse_type(doc["returns"]),
    )


def demand_to_json(demand: Demand) -> dict:
    return {
        "concept": str(demand.concept),
        "origin": demand.origin,
        "shape": _shape_json(demand.shape),
    }


def demand_from_json(doc: dict) -> Demand:
    return Demand(
        concept=_concept_from_json(doc["concept"]),
        shape=_shape_from(doc["shape"]),
        origin=doc["origin"],
    )


def _op_match_json(match: OperationMatch) -> dict:
    return {
        "required": match.required_name,
        "provided": match.provided_name,
        "score": canonjson.fraction_to_text(match.score),
        "mismatches": [mismatch_to_json(m) for m in match.mismatches],
    }


def _op_match_from(doc: dict) -> OperationMatch:
    return OperationMatch(
        required_name=doc["required"],
        provided_name=doc["provided"],
        score=canonjson.fraction_from_text(doc["score"]),
        mismatches=tuple(mismatch_from_json(m) for m in doc["mismatches"]),
    )


def _verdict_json(verdict: ConnectionVerdict) -> dict:
    conn = verdict.connection
    return {
        "connection": {
            "consumer": [conn.consumer_component, conn.consumer_interface],
            "provider": [conn.provider_component, conn.provider_interface],
        },
        "status": verdict.status,
        "score": canonjson.fraction_to_text(verdict.score) if verdict.score is not None else None,
        "reason": verdict.reason,
        "op_matches": [_op_match_json(m) for m in verdict.op_matches],
        "mismatches": [mismatch_to_json(m) for m in verdict.mismatches],
    }


def _verdict_from(doc: dict) -> ConnectionVerdict:
    conn_doc = doc["connection"]
    return ConnectionVerdict(
        connection=Connection(
            consumer_component=conn_doc["consumer"][0],
            consumer_interface=conn_doc["consumer"][1],
            provider_component=conn_doc["provider"][0],
            provider_interface=conn_doc["provider"][1],
        ),
        status=doc["status"],
        op_matches=tuple(_op_match_from(m) for m in doc["op_matches"]),
        mismatches=tuple(mismatch_from_json(m) for m in doc["mismatches"]),
        score=canonjson.fraction_from_text(doc["score"]) if doc["score"] is not None else None,
        reason=doc["reason"],
    )


def match_report_to_json(report: MatchReport) -> dict:
    return {
        "format": "report/1",
        "project": report.project,
        "verdicts": [_verdict_json(v) for v in report.verdicts],
        "demand": [demand_to_json(d) for d in report.demand],
    }


def match_report_from_json(doc: dict) -> MatchReport:
    return MatchReport(
        project=doc["project"],
        verdicts=tuple(_verdict_from(v) for v in doc["verdicts"]),
        demand=tuple(demand_from_json(d) for d in doc["demand"]),
    )


def workflow_result_to_json(result: WorkflowResult) -> dict:
    return {
        "format": "workflow/1",
        "outcome": result.outcome,
        "integrations": [
            {
                "connection": i.connection,
                "source": i.source,
                "fingerprint": i.fingerprint,
                "component": i.component,
            }
            for i in result.integrations
        ],
        "unresolved": [demand_to_json(d) for d in result.unresolved],
        "final_report": match_report_to_json(result.final_report),
        "steps": [
            {"step": s.step, "action": s.action, "detail": s.detail, "at": s.at}
            for s in result.steps
        ],
        "adapted_project": serialize(result.adapted_project),
        "added_components": [serialize(c) for c in result.added_components],
        "generated_adapters": list(result.descriptors),
        "diagnostics": list(result.diagnostics),
    }


def workflow_result_from_json(doc: dict) -> WorkflowResult:
    return WorkflowResult(
        outcome=doc["outcome"],
        integrations=tuple(
            Integration(
                connection=i["connection"],
                source=i["source"],
                fingerprint=i["fingerprint"],
                component=i["component"],
            )
            for i in doc["integrations"]
        ),
        unresolved=tuple(demand_from_json(d) for d in doc["unresolved"]),
        final_report=match_report_from_json(doc["final_report"]),
        steps=tuple(
            StepRecord(step=s["step"], action=s["action"], detail=s["detail"], at=s["at"])
            for s in doc["steps"]
        ),
        adapted_project=parse_project(doc["adapted_project"]),
        added_components=tuple(parse_component(c) for c in doc["added_components"]),
        generated_adapters=tuple(parse_descriptor(t) for t in doc["generated_adapters"]),
        diagnostics=tuple(doc["diagnostics"]),
        descriptors=tuple(doc["generated_adapters"]),
    )
