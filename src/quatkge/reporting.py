"""Rendering of reports as key-value documents and readable text.

Key-value documents are the machine-readable contract: one ``key=value`` line
per field in a fixed order, floats via ``repr`` so reruns with identical
inputs are byte-identical.
"""

from __future__ import annotations

from .evaluation import ClassificationReport, RankingReport
from .properties import PropertyVerdict, TrainedRelationDiagnostic

FORMATS = ("text", "keyvalue")


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def render_keyvalue(items: list[tuple[str, object]]) -> str:
    return "".join(f"{key}={format_value(value)}\n" for key, value in items)


def render_text(title: str, items: list[tuple[str, object]]) -> str:
    width = max((len(key) for key, _ in items), default=0)
    lines = [title] + [f"  {key.ljust(width)}  {format_value(value)}"
                       for key, value in items]
    return "\n".join(lines) + "\n"


def render(items: list[tuple[str, object]], fmt: str, title: str) -> str:
    if fmt == "keyvalue":
        return render_keyvalue(items)
    return render_text(title, items)


def ranking_items(report: RankingReport, relation_names) -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = [
        ("mode", report.mode),
        ("count", report.count),
        ("mr", report.mr),
        ("mrr", report.mrr),
    ]
    items += [(f"hits_{n}", report.hits[n]) for n in sorted(report.hits)]
    items.append(("gold_reinserted", report.gold_reinserted))
    for relation, value in sorted(report.per_relation_mrr.items()):
        items.append((f"per_relation_mrr.{relation_names[relation]}", value))
    return items


def classification_items(report: ClassificationReport,
                         relation_names) -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = [
        ("accuracy", report.accuracy),
        ("count", report.count),
        ("seed", report.seed),
        ("global_threshold", report.global_threshold),
    ]
    for relation, value in sorted(report.thresholds.items()):
        items.append((f"threshold.{relation_names[relation]}", value))
    return items


def verdict_items(verdict: PropertyVerdict, prefix: str) -> list[tuple[str, object]]:
    items = [
        (f"{prefix}property", verdict.property),
        (f"{prefix}trials", verdict.trials),
        (f"{prefix}passed", verdict.passed),
        (f"{prefix}max_violation", verdict.max_violation),
    ]
    if verdict.tolerance is not None:
        items.append((f"{prefix}tolerance", verdict.tolerance))
    for key in sorted(verdict.detail):
        items.append((f"{prefix}detail.{key}", verdict.detail[key]))
    return items


def diagnostic_items(diag: TrainedRelationDiagnostic,
                     prefix: str) -> list[tuple[str, object]]:
    return [
        (f"{prefix}relation", diag.relation),
        (f"{prefix}imaginary_energy", diag.imaginary_energy),
        (f"{prefix}score_asymmetry", diag.score_asymmetry),
        (f"{prefix}score_scale", diag.score_scale),
        (f"{prefix}pairs", diag.pairs),
    ]


def stats_items(stats: dict) -> list[tuple[str, object]]:
    order = ("entities", "relations", "triples", "train", "valid", "test")
    return [(key, stats[key]) for key in order]


def training_log_lines(log: list[dict]) -> str:
    """Append-only per-epoch records, one key-value line each."""
    lines = []
    for record in log:
        fields = [("epoch", record["epoch"]), ("loss", record["loss"])]
        if "val_mrr" in record:
            fields.append(("val_mrr", record["val_mrr"]))
        fields.append(("active_fraction", record["active_fraction"]))
        fields.append(("wall_time", record["wall_time"]))
        lines.append(" ".join(f"{key}={format_value(value)}" for key, value in fields))
    return "".join(line + "\n" for line in lines)


def curve_rows(points: list[tuple[int, float]]) -> str:
    """(dimension, accuracy) rows as CSV, sorted by dimension."""
    lines = ["k,accuracy"]
    for k, acc in sorted(points):
        lines.append(f"{k},{format_value(float(acc))}")
    return "\n".join(lines) + "\n"
