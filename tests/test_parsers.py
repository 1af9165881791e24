"""Property tests for the three parsers of persisted files: the dataset CSV
(``stream.load_dataset``), ``accuracy_matrix.csv`` (``read_accuracy_matrix``)
and ``predictions.csv`` (``read_predictions``).

Arbitrary text, and valid files with one field replaced, must either parse
or raise ``ParseError`` naming a line; no other exception may escape, since
``cddet`` maps ``ParseError`` to exit 2 and anything else to a traceback.
"""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from cddet.errors import ParseError
from cddet.metrics import read_accuracy_matrix, read_predictions
from cddet.stream import load_dataset

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

    @EXAMPLES
    @given(_arbitrary(MATRIX.splitlines()[0]))
    def test_arbitrary_text(self, text):
        _parses_or_names_a_line(read_accuracy_matrix, text)

    @EXAMPLES
    @given(st.data())
    def test_one_field_mutated(self, data):
        _parses_or_names_a_line(read_accuracy_matrix, _mutated(MATRIX, data))


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
