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

``read_predictions`` reads every line of predictions.csv and checks it whole.
Blank lines are skipped. Fields convert as Python's int and float convert them;
labels are 0 or 1, p_fake lies in [0, 1], and a task's rows all hold both class
fields or none. An integer field outside int64 is an error. A malformed file
raises ``ParseError`` naming its earliest bad line; a line is checked for its
field count, conversion, labels and p_fake, class mixing, then class range.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateInputError, ParseError, names_its_file, read_text

Array = np.ndarray


@dataclass
class PredictionLog:
    """One task's logged test predictions, as predictions.csv holds them."""

    record_ids: list[str]
    true_polarity: Array
    pred_polarity: Array
    p_fake: Array
    true_class: Array | None
    pred_class: Array | None


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
    """Area under the PR sweep: sum of (R_k - R_{k-1}) * P_k with R_0 = 0,
    added in sweep order (``cumsum`` is sequential, unlike ``sum``)."""
    return float(np.cumsum(np.diff(curve.recall, prepend=0.0) * curve.precision)[-1])


def map_score(aps: dict[int, float]) -> float:
    """Unweighted mean of the per-task average precisions, summed in task order."""
    if not aps:
        raise ContractError("no average precisions")
    values = [aps[task_id] for task_id in sorted(aps)]
    return sum(values) / len(values)


def compute_metrics(
    matrix: Array, logs: dict[int, PredictionLog], config_echo: dict
) -> tuple[dict, dict[int, PRCurve]]:
    """The metrics document of a run (all four measures and the config echo),
    plus the per-task PR curves; the one builder of ``metrics.json``."""
    n = matrix.shape[0]
    curves = {task_id: pr_curve(log.p_fake, log.true_polarity) for task_id, log in logs.items()}
    aps = {task_id: ap(curves[task_id]) for task_id in sorted(curves)}
    metrics = {
        "aa": aa(matrix),
        "af": af(matrix) if n >= 2 else None,
        "af_last": af_last(matrix) if n >= 2 else None,
        "aa_m": aa_m(logs) if logs else None,
        "per_task_ap": {str(task_id): value for task_id, value in aps.items()},
        "map": map_score(aps) if aps else None,
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
    # blank lines are skipped, and each row keeps its line number in the file
    lines = [(no, line) for no, line in enumerate(read_text(path).splitlines(), start=1) if line.strip() != ""]
    if not lines:
        raise ParseError("no accuracy rows", line=1)
    n = len(lines)
    matrix = np.full((n, n), np.nan)
    for i, (lineno, line) in enumerate(lines):
        fields = line.split(",")
        if len(fields) != n:
            raise ParseError(f"expected {n} columns, found {len(fields)}", line=lineno)
        for j, field in enumerate(fields):
            if i > j:
                if field != "":
                    raise ParseError("below-diagonal entries must be blank", line=lineno)
                continue
            try:
                value = float(field)
            except ValueError:
                raise ParseError(f"bad accuracy value {field!r}", line=lineno) from None
            if not 0.0 <= value <= 1.0:
                raise ParseError(f"accuracy {value} outside [0, 1]", line=lineno)
            matrix[i, j] = value
    return matrix


def write_pr_curves(path, curves: dict[int, PRCurve]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("task_id,threshold,precision,recall\n")
        for task_id in sorted(curves):
            curve = curves[task_id]
            for t, p, r in zip(curve.thresholds, curve.precision, curve.recall):
                fh.write(f"{task_id},{float(t)!r},{float(p)!r},{float(r)!r}\n")


_PREDICTIONS_HEADER = "task_id,record_id,true_label,pred_label,p_fake,true_class,pred_class"


def write_predictions(path, logs: dict[int, PredictionLog]) -> None:
    """predictions.csv from ``logs``: each task's rows as one string, from
    its columns, each converted to Python numbers once."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_PREDICTIONS_HEADER + "\n")
        for task_id in sorted(logs):
            log = logs[task_id]
            labels = (log.true_polarity, log.pred_polarity)
            if log.true_class is not None:
                labels += (log.true_class, log.pred_class)
            true_pol, pred_pol, *classes = (np.asarray(a, np.int64).tolist() for a in labels)
            true_cls, pred_cls = classes or ([""] * len(log.record_ids),) * 2
            scores = np.asarray(log.p_fake, np.float64).tolist()
            rows = zip(log.record_ids, true_pol, pred_pol, scores, true_cls, pred_cls)
            fh.write("".join(f"{task_id},{rid},{t},{p},{score!r},{tc},{pc}\n" for rid, t, p, score, tc, pc in rows))


def _numbers(values: tuple, dtype, where: Array) -> tuple[Array, Array, Array]:
    """The entries ``where`` (a mask) of a column of strings as ``dtype``, each
    converted by Python's ``int`` or ``float`` as numpy applies them, and the
    masks of those that do not parse and of the integers outside int64; every
    other entry holds 0. One numpy call when every entry converts."""
    out, malformed, wide = np.zeros(len(values), dtype=dtype), np.zeros(len(values), bool), np.zeros(len(values), bool)
    if where.all():
        try:
            return np.array(values, dtype=dtype), malformed, wide
        except (ValueError, OverflowError):
            pass
    for i in np.flatnonzero(where).tolist():  # only a file with a bad field, or with mixed rows, gets here
        try:
            out[i] = values[i]
        except ValueError:
            malformed[i] = True
        except OverflowError:
            wide[i] = True
    return out, malformed, wide


@names_its_file
def read_predictions(path) -> dict[int, PredictionLog]:
    lines = read_text(path).splitlines()
    if not lines or lines[0] != _PREDICTIONS_HEADER:
        raise ParseError("bad predictions header", line=1)
    rows = [line.split(",") for line in lines[1:]]
    widths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    # a blank line is one field of whitespace; the first other line without 7
    # fields ends the rows read, and is reported if no earlier line is bad
    end = next((i for i in np.flatnonzero(widths != 7).tolist() if widths[i] > 1 or rows[i][0].strip()), len(rows))
    kept = np.flatnonzero(widths[:end] == 7)
    rows = rows[:end] if kept.size == end else [rows[i] for i in kept.tolist()]
    task_col, ids, true_col, pred_col, p_col, true_cls_col, pred_cls_col = list(zip(*rows)) or [()] * 7
    everywhere = np.ones(len(rows), dtype=bool)
    has_classes = np.array(true_cls_col, dtype=bool) | np.array(pred_cls_col, dtype=bool)
    task, bad_task, wide_task = _numbers(task_col, np.int64, everywhere)
    true_pol, bad_true, wide_true = _numbers(true_col, np.int64, everywhere)
    pred_pol, bad_pred, wide_pred = _numbers(pred_col, np.int64, everywhere)
    p_fake, bad_p, _ = _numbers(p_col, np.float64, everywhere)
    true_cls, bad_true_cls, wide_true_cls = _numbers(true_cls_col, np.int64, has_classes)
    pred_cls, bad_pred_cls, wide_pred_cls = _numbers(pred_cls_col, np.int64, has_classes)
    in_range = (true_pol >= 0) & (true_pol <= 1) & (pred_pol >= 0) & (pred_pol <= 1) & (p_fake >= 0.0) & (p_fake <= 1.0)
    tasks, first, group = np.unique(task, return_index=True, return_inverse=True)
    checks = np.stack([  # one mask per check, in the order a line is checked
        bad_task | wide_task | bad_true | bad_pred | bad_p | bad_true_cls | bad_pred_cls,
        wide_true | wide_pred | ~in_range,
        has_classes != has_classes[first][group],
        wide_true_cls | wide_pred_cls,
    ])
    bad_rows = np.flatnonzero(checks.any(axis=0))
    if bad_rows.size:
        row = bad_rows[0]
        messages = ("malformed prediction row", "labels must be 0 or 1, and p_fake in [0, 1]",
                    f"task {task[row]} mixes rows with and without classes", "class index out of range")
        raise ParseError(messages[np.argmax(checks[:, row])], line=int(kept[row]) + 2)
    if end < len(widths):
        raise ParseError(f"expected 7 fields, found {widths[end]}", line=end + 2)
    ids = np.array(ids, dtype=object)
    logs: dict[int, PredictionLog] = {}
    for k in np.argsort(first).tolist():  # tasks in the order they first appear
        at, classes = np.flatnonzero(group == k), has_classes[first[k]]
        logs[int(tasks[k])] = PredictionLog(ids[at].tolist(), true_pol[at], pred_pol[at], p_fake[at],
                                            true_cls[at] if classes else None, pred_cls[at] if classes else None)
    return logs
