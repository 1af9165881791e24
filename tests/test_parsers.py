"""Property tests for the three parsers of persisted files: the dataset CSV
(``stream.load_dataset``), ``accuracy_matrix.csv`` (``read_accuracy_matrix``)
and ``predictions.csv`` (``read_predictions``).

Arbitrary text, and valid files with one field replaced, must either parse
or raise ``ParseError`` naming a line; no other exception may escape, since
``cddet`` maps ``ParseError`` to exit 2 and anything else to a traceback.
The column-wise ``read_predictions`` must also agree with a line-by-line
reference reader on every file.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cddet.errors import ParseError, read_text
from cddet.metrics import read_accuracy_matrix, read_predictions, write_predictions
from cddet.stream import load_dataset
from cddet.trainer import PredictionLog

DATASET = """task_id,split,label,f0,f1
3,train,0,0.5,-1.0
3,train,1,1.5,2.0
3,val,0,0.0,0.0
3,test,0,0.25,0.75
3,test,1,-0.5,1e-3
"""

MATRIX = """0.9,0.8,0.7
,0.85,0.6
,,0.95
"""

PREDICTIONS_HEADER = "task_id,record_id,true_label,pred_label,p_fake,true_class,pred_class"
PREDICTIONS = [
    # multi-class rows, then a sigmoid run's rows with blank class columns
    PREDICTIONS_HEADER + "\n1,1-test-0,0,0,0.1,0,0\n1,1-test-1,1,1,0.9,1,0\n2,2-test-0,1,0,0.4,3,2\n",
    PREDICTIONS_HEADER + "\n1,1-test-0,0,0,0.1,,\n1,1-test-1,1,0,0.25,,\n2,2-test-0,1,1,1.0,,\n",
]

# field values that parsers must reject or handle: blanks, words, non-finite
# and out-of-range numbers, integers past int64, padding
FIELDS = st.one_of(
    st.sampled_from(
        ["", "x", "nan", "inf", "-inf", "1e999", "-1", "0", "1", "2", "0.5", " 1", "1.0", str(2**64), "-" + str(2**64)]
    ),
    st.integers().map(str),
    st.floats().map(repr),
    st.text(max_size=6),
)


def _parse(read, text: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return read(path)


def _parses_or_names_a_line(read, text: str) -> None:
    try:
        _parse(read, text)
    except ParseError as exc:
        assert exc.line is not None, str(exc)
        assert str(exc).startswith(f"line {exc.line}: ")


def _mutated(text: str, data) -> str:
    """``text`` with one comma-separated field of one line replaced."""
    lines = text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    fields = lines[i].split(",")
    j = data.draw(st.integers(0, len(fields) - 1), label="field")
    fields[j] = data.draw(FIELDS, label="value")
    lines[i] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _arbitrary(header: str):
    """Arbitrary text, half the time behind a valid header line."""
    return st.tuples(st.booleans(), st.text(max_size=200)).map(lambda t: (header + "\n" if t[0] else "") + t[1])


EXAMPLES = settings(max_examples=200, deadline=None, database=None)


class TestDatasetCsv:
    def test_the_valid_file_parses(self):
        session = _parse(load_dataset, DATASET)
        assert session.task_id == 3 and session.train.x.shape == (2, 2)

    @EXAMPLES
    @given(_arbitrary(DATASET.splitlines()[0]))
    def test_arbitrary_text(self, text):
        _parses_or_names_a_line(load_dataset, text)

    @EXAMPLES
    @given(st.data())
    def test_one_field_mutated(self, data):
        _parses_or_names_a_line(load_dataset, _mutated(DATASET, data))


class TestAccuracyMatrixCsv:
    def test_the_valid_file_parses(self):
        assert _parse(read_accuracy_matrix, MATRIX)[1, 2] == 0.6

    def test_both_bounds_are_accuracies(self):
        assert _parse(read_accuracy_matrix, "0.0,1.0\n,0.5\n")[0].tolist() == [0.0, 1.0]

    @EXAMPLES
    @given(_arbitrary(MATRIX.splitlines()[0]))
    def test_arbitrary_text(self, text):
        _parses_or_names_a_line(read_accuracy_matrix, text)

    @EXAMPLES
    @given(st.data())
    def test_one_field_mutated(self, data):
        _parses_or_names_a_line(read_accuracy_matrix, _mutated(MATRIX, data))

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("\n0.5,0.4\n,x\n", 3, "bad accuracy value 'x'"),
            ("0.5,0.4\n\n\n,0.3,0.2\n", 4, "expected 2 columns, found 3"),
            ("\n\n0.5,0.4\n0.1,0.3\n", 4, "below-diagonal entries must be blank"),
        ],
    )
    def test_an_error_names_its_line_in_the_file(self, text, line, message):
        """Blank lines are skipped, but an error counts them: it names the
        line of the file that holds the fault."""
        with pytest.raises(ParseError) as caught:
            _parse(read_accuracy_matrix, text)
        assert (caught.value.line, str(caught.value)) == (line, f"line {line}: {message}")


class TestPredictionsCsv:
    def test_the_valid_files_parse(self):
        with_classes, without = (_parse(read_predictions, text) for text in PREDICTIONS)
        assert with_classes[2].pred_class.tolist() == [2]
        assert without[1].true_class is None

    @EXAMPLES
    @given(_arbitrary(PREDICTIONS_HEADER))
    def test_arbitrary_text(self, text):
        _parses_or_names_a_line(read_predictions, text)

    @EXAMPLES
    @given(st.sampled_from(PREDICTIONS), st.data())
    def test_one_field_mutated(self, text, data):
        _parses_or_names_a_line(read_predictions, _mutated(text, data))


_INT64 = 2**63


def reference_read_predictions(path) -> dict[int, PredictionLog]:
    """``predictions.csv`` read one line at a time, every check in line order."""
    lines = read_text(path).splitlines()
    if not lines or lines[0] != PREDICTIONS_HEADER:
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


def _outcome(read, text: str):
    try:
        return _parse(read, text)
    except ParseError as exc:
        return exc


def _holds_a_wide_integer(text: str, line: int) -> bool:
    """Whether ``line`` of ``text``, past the header, has an integer field outside int64."""
    lines = text.splitlines()
    if not 2 <= line <= len(lines):
        return False
    for field in [f for i, f in enumerate(lines[line - 1].split(",")) if i in (0, 2, 3, 5, 6)]:
        try:
            if not -_INT64 <= int(field) < _INT64:
                return True
        except ValueError:
            pass
    return False


def _same_as_the_reference(text: str) -> None:
    """Equal logs, values and dtypes, or the same error on the same line. An
    integer field outside int64 may give another message, on its own line."""
    got, want = _outcome(read_predictions, text), _outcome(reference_read_predictions, text)
    if isinstance(got, ParseError) and _holds_a_wide_integer(text, got.line):
        assert not isinstance(want, ParseError) or got.line <= want.line, (str(got), str(want))
        return
    if isinstance(want, ParseError) or isinstance(got, ParseError):
        assert (type(got), str(got), getattr(got, "line", None)) == (type(want), str(want), getattr(want, "line", None))
        return
    assert list(got) == list(want) and all(type(task_id) is int for task_id in got)
    for task_id, log in want.items():
        assert got[task_id].record_ids == log.record_ids
        for name in ("true_polarity", "pred_polarity", "p_fake", "true_class", "pred_class"):
            a, b = getattr(got[task_id], name), getattr(log, name)
            assert (a is None) == (b is None), name
            if b is not None:
                assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name


@st.composite
def _written_predictions(draw) -> str:
    """``write_predictions`` output of a random run, each task with or without
    classes, its rows shuffled across tasks and blank lines put in."""
    logs = {}
    for task_id in draw(st.lists(st.integers(-2, 15), min_size=1, max_size=4, unique=True)):
        n = draw(st.integers(1, 8))
        labels = st.lists(st.integers(0, 1), min_size=n, max_size=n)
        classes = st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)
        with_classes = draw(st.booleans())
        logs[task_id] = PredictionLog(
            record_ids=[f"{task_id}-test-{i}" for i in range(n)],
            true_polarity=np.array(draw(labels), dtype=np.int64),
            pred_polarity=np.array(draw(labels), dtype=np.int64),
            p_fake=np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)), dtype=np.float64),
            true_class=np.array(draw(classes), dtype=np.int64) if with_classes else None,
            pred_class=np.array(draw(classes), dtype=np.int64) if with_classes else None,
        )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "predictions.csv")
        write_predictions(path, logs)
        header, *rows = read_text(path).splitlines()
    rows = draw(st.permutations(rows))
    for blank in draw(st.lists(st.sampled_from(["", " ", "\t", "  \t "]), max_size=3)):
        rows.insert(draw(st.integers(0, len(rows))), blank)
    return "\n".join([header, *rows]) + "\n"


class TestPredictionsMatchTheReference:
    def test_each_field_at_the_edges(self):
        """Every field of the first two rows set in turn to an int64 bound,
        one past it, a non-number or a blank."""
        for text in PREDICTIONS:
            _same_as_the_reference(text)
            lines = text.splitlines()
            for i in (1, 2):
                for j in range(7):
                    for value in (str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1), "x", ""):
                        fields = lines[i].split(",")
                        fields[j] = value
                        _same_as_the_reference("\n".join([*lines[:i], ",".join(fields), *lines[i + 1:]]) + "\n")

    @EXAMPLES
    @given(_arbitrary(PREDICTIONS_HEADER))
    def test_arbitrary_text(self, text):
        _same_as_the_reference(text)

    @EXAMPLES
    @given(st.sampled_from(PREDICTIONS), st.data())
    def test_one_field_mutated(self, text, data):
        _same_as_the_reference(_mutated(text, data))

    @EXAMPLES
    @given(_written_predictions())
    def test_written_files(self, text):
        _same_as_the_reference(text)

    @EXAMPLES
    @given(_written_predictions(), st.data())
    def test_written_files_with_one_field_mutated(self, text, data):
        _same_as_the_reference(_mutated(text, data))
