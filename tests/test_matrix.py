"""Matrix helpers, Matrix Market round trips and text records."""

import contextlib
import io
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from jointnmf import matrix
from jointnmf.errors import DataError, NotSymmetric, ShapeMismatch
from jointnmf.matrix import (
    as_csc,
    as_dense,
    frobenius_norm_sq,
    read_matrix_market,
    read_names,
    read_records,
    require_symmetric,
    write_matrix_market,
    write_records,
)


def test_frobenius_norm_sq_known_value():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert frobenius_norm_sq(M) == 30.0
    assert frobenius_norm_sq(sparse.csc_array(M)) == 30.0
    # past the float64 range: inf, without a warning (warnings fail the run)
    M = np.diag([1e200, 1.0])
    assert frobenius_norm_sq(M) == frobenius_norm_sq(sparse.csc_array(M)) == np.inf


def test_frobenius_norm_sq_sparse_dense_agree():
    rng = np.random.default_rng(0)
    for _ in range(20):
        M = rng.random((7, 5))
        M[M < 0.5] = 0.0
        d = frobenius_norm_sq(M)
        s = frobenius_norm_sq(sparse.csc_array(M))
        assert abs(d - s) <= 1e-12 * max(d, 1.0)


def test_is_symmetric():
    require_symmetric(np.eye(3))
    require_symmetric(sparse.csc_array(np.eye(3)))
    A = np.array([[0.0, 1.0], [1.0 + 5e-13, 0.0]])
    require_symmetric(A)
    B = np.array([[0.0, 1.0], [1.1, 0.0]])
    with pytest.raises(NotSymmetric):
        require_symmetric(B)
    with pytest.raises(ShapeMismatch):
        require_symmetric(np.zeros((2, 3)))


def test_require_symmetric_errors():
    with pytest.raises(ShapeMismatch):
        require_symmetric(np.zeros((2, 3)))
    with pytest.raises(NotSymmetric):
        require_symmetric(np.array([[0.0, 1.0], [2.0, 0.0]]))
    require_symmetric(np.eye(2))


def test_as_dense_and_as_csc():
    M = np.array([[1, 0], [0, 2]], dtype=np.int64)
    D = as_dense(M)
    assert D.dtype == np.float64
    C = as_csc(M)
    assert sparse.issparse(C) and C.dtype == np.float64
    C2 = as_csc(sparse.coo_array(M))
    assert (C2.toarray() == D).all()


@pytest.mark.parametrize("kind", [sparse.csc_array, sparse.csc_matrix])
def test_as_csc_stores_each_entry_once_in_a_copy(kind):
    # column 0 stores row 1 as a zero and row 0 as two halves, after it
    M = kind((np.array([0.0, 0.5, 0.5, 2.0]), np.array([1, 0, 0, 1]), np.array([0, 3, 4])),
             shape=(2, 2))
    stored = [a.copy() for a in (M.data, M.indices, M.indptr)]
    C = as_csc(M)
    assert isinstance(C, sparse.csc_array) and C.dtype == np.float64
    assert C.has_canonical_format and C.nnz == 2
    assert C.toarray().tolist() == [[1.0, 0.0], [0.0, 2.0]]
    assert all(np.array_equal(a, b) for a, b in zip(stored, (M.data, M.indices, M.indptr)))
    assert as_csc(C) is C


def test_sparse_round_trip_exact(tmp_path):
    rng = np.random.default_rng(1)
    M = sparse.random_array((9, 6), density=0.4, rng=rng, format="csc")
    M.data += 1e-9
    M.data[0] = 1e300
    M.data[-1] = 1e-300
    path = tmp_path / "m.mtx"
    write_matrix_market(path, M)
    back = read_matrix_market(path)
    assert sparse.issparse(back)
    assert back.shape == M.shape
    assert (back.toarray() == M.toarray()).all()


def test_dense_round_trip_exact(tmp_path):
    rng = np.random.default_rng(2)
    M = rng.random((4, 7))
    path = tmp_path / "d.mtx"
    write_matrix_market(path, M)
    back = read_matrix_market(path)
    assert isinstance(back, np.ndarray)
    assert (back == M).all()


def test_symmetric_write_expands_on_read(tmp_path):
    # the lower triangle of A in symmetric storage, as other writers emit it
    A = np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 3.0], [0.0, 3.0, 0.0]])
    path = tmp_path / "s.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "3 3 3\n1 1 2.0\n2 1 1.0\n3 2 3.0\n")
    back = read_matrix_market(path)
    assert (back.toarray() == A).all()


def test_read_uses_one_based_coordinates(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 3 2\n1 1 5.0\n2 3 7.0\n"
    )
    M = read_matrix_market(path).toarray()
    assert M[0, 0] == 5.0 and M[1, 2] == 7.0
    assert M.sum() == 12.0


def test_empty_sparse_round_trip(tmp_path):
    M = sparse.csc_array((3, 4))
    path = tmp_path / "e.mtx"
    write_matrix_market(path, M)
    back = read_matrix_market(path)
    assert back.shape == (3, 4) and back.nnz == 0


# ---------------------------------------------------------------------------
# malformed Matrix Market input


def test_every_truncation_reads_or_is_a_data_error(tmp_path, child_env):
    # every prefix of a coordinate and an array file, in one child process,
    # since a number with a dangling exponent at the end of a file can crash
    # the parser (1.5e, 1.5e+, 1.5E-)
    write_matrix_market(tmp_path / "c.mtx", sparse.csc_array(np.array([[1.5e-3, 0.0], [0.0, 2.25e10]])))
    write_matrix_market(tmp_path / "a.mtx", np.array([[1.5e-3, 0.0], [7.0, 2.25e10]]))
    (tmp_path / "upper.mtx").write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n2 2 1.0\n1 1 1.5E-7\n"
    )
    script = (
        "import sys\n"
        "from pathlib import Path\n"
        "from jointnmf.errors import DataError\n"
        "from jointnmf.matrix import read_matrix_market\n"
        "reads = 0\n"
        "for name in sys.argv[1:]:\n"
        "    data, cut = Path(name).read_bytes(), Path(name + '.cut')\n"
        "    for end in range(len(data)):\n"
        "        cut.write_bytes(data[:end])\n"
        "        try:\n"
        "            read_matrix_market(cut)\n"
        "            reads += 1\n"
        "        except DataError:\n"
        "            pass\n"
        "print(reads)\n"
    )
    names = [str(tmp_path / n) for n in ("c.mtx", "a.mtx", "upper.mtx")]
    done = subprocess.run([sys.executable, "-c", script, *names], env=child_env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, f"child exited {done.returncode}: {done.stderr[-2000:]}"
    assert int(done.stdout) > 0  # a cut inside the last number still parses


def test_a_file_without_a_final_newline_parses_as_with_one(tmp_path):
    text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n2 2 1.0\n1 1 1.5e3"
    (tmp_path / "open.mtx").write_text(text)
    (tmp_path / "closed.mtx").write_text(text + "\n")
    a = read_matrix_market(tmp_path / "open.mtx")
    b = read_matrix_market(tmp_path / "closed.mtx")
    assert (a.toarray() == b.toarray()).all() and a[0, 0] == 1500.0


def test_a_parse_error_is_a_data_error_naming_the_file(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 1.0\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: "):
        read_matrix_market(path)
    with pytest.raises(FileNotFoundError):
        read_matrix_market(tmp_path / "missing.mtx")


def test_an_index_past_int64_or_a_huge_array_header_is_a_data_error(tmp_path):
    path = tmp_path / "big.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n99999999999999999999 1 1.0\n")
    with pytest.raises(DataError, match="big.mtx: "):
        read_matrix_market(path)
    # a 75 GiB dense array: the allocation fails, or else the data is short
    path.write_text("%%MatrixMarket matrix array real general\n100000 100000\n1.0\n")
    with pytest.raises(DataError, match="big.mtx: "):
        read_matrix_market(path)
    # 1e11 columns: the CSC column pointers would take 745 GiB
    path.write_text("%%MatrixMarket matrix coordinate real general\n3 100000000000 1\n1 1 1.0\n")
    with pytest.raises(DataError, match="big.mtx: "):
        read_matrix_market(path)


# ---------------------------------------------------------------------------
# text records


def test_read_records_splits_skips_blanks_and_checks_fields(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_bytes(b"a b\tc \n\n  \r\nd\te\r\n")
    assert list(read_records(path)) == [["a b", "c "], ["d", "e"]]
    assert list(read_records(path, sep=None)) == [["a", "b", "c"], ["d", "e"]]
    assert list(read_records(path, fields=2, convert=tuple)) == [("a b", "c "), ("d", "e")]
    with pytest.raises(DataError, match=r"r\.tsv:1: expected two words, got 'a b\\tc '$"):
        list(read_records(path, sep=None, fields=2, expect="two words"))


def test_read_records_reports_a_bad_conversion_at_its_line(tmp_path):
    path = tmp_path / "n.txt"
    path.write_text("1 2\n\n3 x\n")
    with pytest.raises(DataError, match=r"n\.txt:3: expected integers, got '3 x'$"):
        list(read_records(path, sep=None, convert=lambda r: [int(v) for v in r], expect="integers"))
    known = {"1": 0}
    with pytest.raises(DataError, match=r"n\.txt:1: expected a known id"):
        list(read_records(path, sep=None, convert=lambda r: known[r[1]], expect="a known id"))


def test_read_records_names_the_path_of_a_non_utf8_file(tmp_path):
    path = tmp_path / "ids.txt"
    path.write_bytes(b"d0\nd\xc3\xa9\n\nd\xff2\n")  # line 2 is valid UTF-8
    with pytest.raises(DataError, match=r"ids\.txt: expected UTF-8 text$"):
        read_names(path)
    path.write_bytes("d0\ndé\n".encode("utf-8"))
    assert read_names(path) == ["d0", "dé"]


def test_read_names_keeps_a_line_whole_and_rejects_a_tab(tmp_path):
    path = tmp_path / "ids.txt"
    path.write_text("doc 0\n\n d1\n")
    assert read_names(path) == ["doc 0", " d1"]
    path.write_text("d0\nd1\tx\n")
    with pytest.raises(DataError, match=r"ids\.txt:2: expected one name without a tab, got 'd1\\tx'$"):
        read_names(path)


def test_write_records_has_one_cell_rule(tmp_path, capsys):
    columns = (["a"], [1], [0.1], np.array([1 / 3]), [None], [np.int64(7)], [1e300])
    write_records(tmp_path / "w.tsv", *columns)
    expected = "a\t1\t0.1\t0.3333333333333333\tNA\t7\t1e+300\n"
    assert (tmp_path / "w.tsv").read_text() == expected
    write_records("-", *columns)
    assert capsys.readouterr().out == expected
    write_records(tmp_path / "empty.tsv", [], np.array([]))
    assert (tmp_path / "empty.tsv").read_text() == ""
    write_records(tmp_path / "none.tsv")
    assert (tmp_path / "none.tsv").read_text() == ""


def test_write_records_writes_a_column_of_names_as_it_is(tmp_path):
    # the id columns of rec_*.tsv: Python str in an object array, whose
    # trailing NULs a numpy U array would drop and read_names keeps
    ids = np.array(["d\x00", "é", "7"], dtype=object)
    write_records(tmp_path / "ids.txt", ids)
    assert read_names(tmp_path / "ids.txt") == ["d\x00", "é", "7"]
    write_records(tmp_path / "w.tsv", ids[[2, 2, 0]], [np.str_("x"), "y", None])
    assert (tmp_path / "w.tsv").read_text(encoding="utf-8") == "7\tx\n7\ty\nd\x00\tNA\n"


def test_write_records_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError, match=r"unequal length \[2, 1\]"):
        write_records(tmp_path / "w.tsv", ["a", "b"], np.array([1.0]))
    assert not (tmp_path / "w.tsv").exists()


def test_records_round_trip_floats_bit_for_bit(tmp_path):
    rng = np.random.default_rng(4)
    values = rng.standard_normal(50) * 10.0 ** rng.integers(-300, 300, 50)
    write_records(tmp_path / "f.tsv", range(50), values)
    back = list(read_records(tmp_path / "f.tsv", fields=2, convert=lambda r: float(r[1])))
    assert back == values.tolist()


def _reference_cell(v):
    # the cell rule, one value at a time
    if isinstance(v, float):
        return repr(float(v))
    return "NA" if v is None else str(v)


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 1e16, 1e-5, 5e-324, -2.2250738585072014e-308,
                     float("nan"), float("inf"), float("-inf"), 0.1]),
)
_CELLS = st.one_of(
    _FLOATS,
    _FLOATS.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(),
    st.none(),
    st.text(alphabet=st.characters(blacklist_characters="\t\n\r", blacklist_categories=["Cs"])),
)
_NAMES = st.text(alphabet=st.characters(blacklist_characters="\t\n\r", blacklist_categories=["Cs"]))


@st.composite
def _columns(draw):
    rows = draw(st.integers(0, 12))
    columns = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["floats", "ints", "cells", "names"]))
        if kind == "ints":
            # an integer array, such as the cluster column of labels.tsv
            dtype = draw(st.sampled_from([np.int64, np.int32, np.uint8, np.uint64]))
            info = np.iinfo(dtype)
            columns.append(np.array(draw(st.lists(st.integers(int(info.min), int(info.max)),
                                                  min_size=rows, max_size=rows)), dtype=dtype))
        elif kind == "floats":
            # a float64 array, its values drawn from a few so that they repeat
            pool = draw(st.lists(_FLOATS, min_size=1, max_size=4))
            columns.append(np.array(draw(st.lists(st.sampled_from(pool), min_size=rows,
                                                  max_size=rows)), dtype=np.float64))
        elif kind == "cells":
            columns.append(draw(st.lists(_CELLS, min_size=rows, max_size=rows)))
        else:
            # str only, as a list or as an object array like the id columns
            # of rec_*.tsv
            names = draw(st.lists(_NAMES, min_size=rows, max_size=rows))
            columns.append(np.array(names, dtype=object) if draw(st.booleans()) else names)
    return columns


@settings(max_examples=300)
@given(columns=_columns(), stdout=st.booleans(), block=st.integers(1, 13))
@example(columns=[np.array([0.0, -0.0, 0.0, np.nan, -np.nan, 5e-324]),
                  [np.float64(-0.0), np.int64(-3), None, "x", 1e16, 1e-5]], stdout=False, block=4)
@example(columns=[[], np.array([])], stdout=True, block=1)
@example(columns=[np.array(["a\x00", "b"], dtype=object), ["\x00", np.str_("c")]], stdout=False,
         block=2)
def test_write_records_equals_the_cell_rule_per_cell(tmp_path_factory, columns, stdout, block):
    expected = "".join("\t".join(map(_reference_cell, row)) + "\n" for row in zip(*columns))
    # small blocks, so that a file spans several
    with mock.patch.object(matrix, "WRITE_BLOCK_ROWS", block):
        if stdout:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                write_records("-", *columns)
            written = out.getvalue()
        else:
            path = tmp_path_factory.mktemp("w") / "w.tsv"
            write_records(path, *columns)
            written = path.read_text(encoding="utf-8")
    assert written == expected
