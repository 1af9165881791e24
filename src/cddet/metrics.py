"""Benchmark measures over a finished run: final average accuracy (AA),
mean backward-transfer degradation (AF), per-source recognition accuracy
(AA-M) and mean average precision over per-task PR curves (mAP).

AF uses BWT_i = (1/(n-i)) * sum_{j>i} (B[i,j] - B[i,i]); the divisor is the
number of summed terms, which stays defined for every i < n. The last-column
variant (B[i,n] - B[i,i]) is available as ``af_last``.

Emitted artifacts:
    accuracy_matrix.csv  row i = task, column j = session, blanks below the
                         diagonal, full-precision decimal reprs
    metrics.json         aa, af, af_last, aa_m (null for sigmoid runs),
                         per_task_ap, map, config echo; sorted keys
    pr_curves.csv        task_id,threshold,precision,recall
    predictions.csv      task_id,record_id,true_label,pred_label,p_fake,
                         true_class,pred_class (class fields empty for
                         sigmoid runs)
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateInputError, ParseError, names_its_file
from .trainer import PredictionLog, RunRecord

Array = np.ndarray


def _validate_matrix(matrix: Array) -> Array:
    b = np.asarray(matrix, dtype=np.float64)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ContractError("accuracy matrix must be square")
    upper = b[np.triu_indices(b.shape[0])]
    if np.any(~np.isfinite(upper)) or np.any(upper < 0.0) or np.any(upper > 1.0):
        raise ContractError("upper-triangle accuracies must lie in [0, 1]")
    return b


def aa(matrix: Array) -> float:
    """Mean of the last column: final accuracy averaged over tasks."""
    b = _validate_matrix(matrix)
    n = b.shape[0]
    total = 0.0
    for i in range(n):
        total += float(b[i, n - 1])
    return total / n


def af(matrix: Array) -> float:
    """Mean backward-transfer degradation over the first n-1 tasks."""
    b = _validate_matrix(matrix)
    n = b.shape[0]
    if n < 2:
        raise ContractError("forgetting needs at least two tasks")
    total = 0.0
    for i in range(n - 1):
        bwt = 0.0
        for j in range(i + 1, n):
            bwt += float(b[i, j]) - float(b[i, i])
        total += bwt / (n - i - 1)  # 0-based: n-1-i terms were summed
    return total / (n - 1)


def af_last(matrix: Array) -> float:
    """Last-column-only variant: mean of B[i,n] - B[i,i] over i < n."""
    b = _validate_matrix(matrix)
    n = b.shape[0]
    if n < 2:
        raise ContractError("forgetting needs at least two tasks")
    total = 0.0
    for i in range(n - 1):
        total += float(b[i, n - 1]) - float(b[i, i])
    return total / (n - 1)


def aa_m(logs: dict[int, PredictionLog]) -> float | None:
    """Per-task source-recognition accuracy averaged over tasks; None when
    the run carries no class predictions (sigmoid systems)."""
    if not logs:
        raise ContractError("no prediction logs")
    accs = []
    for task_id in sorted(logs):
        log = logs[task_id]
        if log.true_class is None or log.pred_class is None:
            return None
        accs.append(float(np.mean(log.pred_class == log.true_class)))
    return sum(accs) / len(accs)


@dataclass
class PRCurve:
    """Sweep points at descending score thresholds; recall is non-decreasing."""

    thresholds: Array
    precision: Array
    recall: Array


def pr_curve(scores, labels) -> PRCurve:
    """Precision-recall sweep with fakes as positives; tied scores collapse
    into a single threshold step."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ContractError("scores and labels must be matching vectors")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DegenerateInputError("PR curve needs at least one fake and one real")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    tp = np.cumsum(sorted_labels == 1)
    fp = np.cumsum(sorted_labels == 0)
    # keep only the last row of each tie group
    boundary = np.flatnonzero(np.diff(sorted_scores) != 0.0)
    keep = np.append(boundary, sorted_scores.size - 1)
    tp, fp = tp[keep], fp[keep]
    thresholds = sorted_scores[keep]
    precision = tp / (tp + fp)
    recall = tp / n_pos
    return PRCurve(thresholds=thresholds, precision=precision, recall=recall)


def ap(curve: PRCurve) -> float:
    """Area under the PR sweep: sum of (R_k - R_{k-1}) * P_k with R_0 = 0."""
    total = 0.0
    prev_recall = 0.0
    for p, r in zip(curve.precision, curve.recall):
        total += (float(r) - prev_recall) * float(p)
        prev_recall = float(r)
    return total


def map_score(curves: dict[int, PRCurve]) -> float:
    """Unweighted mean of the per-task average precisions."""
    if not curves:
        raise ContractError("no PR curves")
    values = [ap(curves[task_id]) for task_id in sorted(curves)]
    return sum(values) / len(values)


def compute_metrics(
    matrix: Array, logs: dict[int, PredictionLog], config_echo: dict
) -> tuple[dict, dict[int, PRCurve]]:
    """The metrics document of a run (all four measures and the config echo),
    plus the per-task PR curves; the one builder of ``metrics.json``."""
    n = matrix.shape[0]
    curves = {task_id: pr_curve(log.p_fake, log.true_polarity) for task_id, log in logs.items()}
    metrics = {
        "aa": aa(matrix),
        "af": af(matrix) if n >= 2 else None,
        "af_last": af_last(matrix) if n >= 2 else None,
        "aa_m": aa_m(logs) if logs else None,
        "per_task_ap": {str(task_id): ap(curves[task_id]) for task_id in sorted(curves)},
        "map": map_score(curves) if curves else None,
        "config": config_echo,
    }
    return metrics, curves


# ---------------------------------------------------------------------------
# artifact files


def metrics_to_json(metrics: dict) -> str:
    return json.dumps(metrics, sort_keys=True, indent=2) + "\n"


def write_metrics_json(path, metrics: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(metrics_to_json(metrics))


def write_accuracy_matrix(path, matrix: Array) -> None:
    b = _validate_matrix(matrix)
    n = b.shape[0]
    lines = []
    for i in range(n):
        fields = ["" if i > j else repr(float(b[i, j])) for j in range(n)]
        lines.append(",".join(fields))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@names_its_file
def read_accuracy_matrix(path) -> Array:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip() != ""]
    if not lines:
        raise ParseError("no accuracy rows", line=1)
    n = len(lines)
    matrix = np.full((n, n), np.nan)
    for i, line in enumerate(lines):
        fields = line.split(",")
        if len(fields) != n:
            raise ParseError(f"expected {n} columns, found {len(fields)}", line=i + 1)
        for j, field in enumerate(fields):
            if i > j:
                if field != "":
                    raise ParseError("below-diagonal entries must be blank", line=i + 1)
                continue
            try:
                value = float(field)
            except ValueError:
                raise ParseError(f"bad accuracy value {field!r}", line=i + 1) from None
            if not 0.0 <= value <= 1.0:
                raise ParseError(f"accuracy {value} outside [0, 1]", line=i + 1)
            matrix[i, j] = value
    return matrix


def write_pr_curves(path, curves: dict[int, PRCurve]) -> None:
    lines = ["task_id,threshold,precision,recall"]
    for task_id in sorted(curves):
        curve = curves[task_id]
        for t, p, r in zip(curve.thresholds, curve.precision, curve.recall):
            lines.append(f"{task_id},{float(t)!r},{float(p)!r},{float(r)!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_predictions(path, record: RunRecord) -> None:
    lines = ["task_id,record_id,true_label,pred_label,p_fake,true_class,pred_class"]
    for task_id in sorted(record.logs):
        log = record.logs[task_id]
        has_classes = log.true_class is not None
        for i, rid in enumerate(log.record_ids):
            tc = str(int(log.true_class[i])) if has_classes else ""
            pc = str(int(log.pred_class[i])) if has_classes else ""
            lines.append(
                f"{task_id},{rid},{int(log.true_polarity[i])},"
                f"{int(log.pred_polarity[i])},{float(log.p_fake[i])!r},{tc},{pc}"
            )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


_INT64 = 2**63  # class indices are stored as int64


@names_its_file
def read_predictions(path) -> dict[int, PredictionLog]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "task_id,record_id,true_label,pred_label,p_fake,true_class,pred_class":
        raise ParseError("bad predictions header", line=1)
    buckets: dict[int, list] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 7:
            raise ParseError(f"expected 7 fields, found {len(fields)}", line=lineno)
        try:
            task_id = int(fields[0])
            true_pol = int(fields[2])
            pred_pol = int(fields[3])
            p_fake = float(fields[4])
            # both class columns are blank, or both hold an integer
            true_cls = int(fields[5]) if fields[5] or fields[6] else None
            pred_cls = int(fields[6]) if true_cls is not None else None
        except ValueError:
            raise ParseError("malformed prediction row", line=lineno) from None
        if true_pol not in (0, 1) or pred_pol not in (0, 1) or not 0.0 <= p_fake <= 1.0:
            raise ParseError("labels must be 0 or 1, and p_fake in [0, 1]", line=lineno)
        rows = buckets.setdefault(task_id, [])
        if rows and (rows[0][4] is None) != (true_cls is None):
            raise ParseError(f"task {task_id} mixes rows with and without classes", line=lineno)
        if true_cls is not None and not (-_INT64 <= true_cls < _INT64 and -_INT64 <= pred_cls < _INT64):
            raise ParseError("class index out of range", line=lineno)
        rows.append((fields[1], true_pol, pred_pol, p_fake, true_cls, pred_cls))
    logs: dict[int, PredictionLog] = {}
    for task_id, rows in buckets.items():
        ids, true_pol, pred_pol, p_fake, true_cls, pred_cls = zip(*rows)
        has_classes = true_cls[0] is not None
        logs[task_id] = PredictionLog(
            record_ids=list(ids),
            true_polarity=np.array(true_pol, dtype=np.int64),
            pred_polarity=np.array(pred_pol, dtype=np.int64),
            p_fake=np.array(p_fake, dtype=np.float64),
            true_class=np.array(true_cls, dtype=np.int64) if has_classes else None,
            pred_class=np.array(pred_cls, dtype=np.int64) if has_classes else None,
        )
    return logs
