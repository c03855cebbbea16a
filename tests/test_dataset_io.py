"""The chunked dataset reader, the block writer and ``prepare``'s whole-array pass, against the per-scalar oracles.

``load_dataset`` must give what ``oracles.load_dataset_ref`` gives (records
equal to the bit, or the same error type and message), ``save_dataset`` the
bytes of ``oracles.save_dataset_ref``, and ``prepare`` the arrays of
``oracles.prepare_arrays_ref``.
"""

import csv
import io
import math
import struct
import tracemalloc
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hscl.data
from hscl.data import (
    NormalizationStats,
    PatientSeries,
    ScanRecord,
    SyntheticSpec,
    _row,
    _runs,
    _texts,
    categorize_sf,
    generate_synthetic,
    load_dataset,
    pair_labels,
    save_dataset,
)
from hscl.errors import ConfigError, DatasetError
from hscl.pipeline import DataConfig, prepare

from oracles import (
    categorize_sf_ref,
    change_label_ref,
    load_dataset_ref,
    normalize_ref,
    prepare_arrays_ref,
    save_dataset_ref,
)

HEADER = "patient_id,seq_index,health_score,f0,f1\n"


def _bits(value) -> bytes:
    return struct.pack("<d", value)


def _outcome(loader, path):
    """What ``loader(path)`` gives, in a form that compares to the bit: records or (error type, message)."""
    try:
        collection = loader(path)
    except Exception as exc:  # the type is part of the outcome
        return (type(exc), str(exc))
    return [
        (
            series.patient_id,
            [
                (
                    rec.patient_id,
                    type(rec.seq_index),
                    rec.seq_index,
                    type(rec.health_score),
                    _bits(rec.health_score),
                    rec.features.dtype,
                    rec.features.shape,
                    rec.features.tobytes(),
                )
                for rec in series.records
            ],
        )
        for series in collection
    ]


def _many_rows(n, fault_at=None, fault="p9,0,x,1.0,2.0"):
    """``n`` good rows (patients of 6 scans), the row at data line ``fault_at`` (2-based) replaced."""
    lines = [f"p{i // 6},{i % 6},{20.0 + i / 7},{i * 0.25},{-i / 3}" for i in range(n)]
    if fault_at is not None:
        lines[fault_at - 2] = fault
    return HEADER + "\n".join(lines) + "\n"


CORPUS = {
    # good files
    "plain": HEADER + "p0,0,5.0,1.0,2.0\np0,1,6.0,1.5,2.5\np1,0,7.0,0.5,0.25\n",
    "no final newline": HEADER + "p0,0,5.0,1.0,2.0\np0,1,6.0,1.5,2.5",
    "blank lines": HEADER + "\np0,0,5.0,1.0,2.0\n\n\np0,1,6.0,1.5,2.5\n\n",
    "crlf": HEADER.replace("\n", "\r\n") + "p0,0,5.0,1.0,2.0\r\np0,1,6.0,1.5,2.5\r\n",
    "crlf blank lines": HEADER.replace("\n", "\r\n") + "\r\np0,0,5.0,1.0,2.0\r\n\r\n",
    "cr only": HEADER.replace("\n", "\r") + "p0,0,5.0,1.0,2.0\rp0,1,6.0,1.5,2.5\r",
    "quoted plain id": HEADER + '"p0",0,5.0,1.0,2.0\n',
    "quoted id with comma": HEADER + '"p, 0",0,5.0,1.0,2.0\n"p, 0",1,6.0,1.0,2.0\n',
    "quoted id with quote": HEADER + '"p ""0""",0,5.0,1.0,2.0\n',
    "quoted id with newline": HEADER + '"p\n0",0,5.0,1.0,2.0\n"p\r\n1",0,6.0,1.0,2.0\nq,0,7,8,9\n',
    "quoted id with lone cr": HEADER + '"p\r0",0,5.0,1.0,2.0\n"p\r",0,6.0,1.0,2.0\nq,0,7,8,9\n',
    # characters str.splitlines ends a line at, and a file read with newline="" does not
    "crlf ids with other line breaks": HEADER.replace("\n", "\r\n")
    + "p\x85,0,5.0,1.0,2.0\r\np\x0b\x0c,0,6.0,1.0,2.0\r\n\"\x1c\u2028\",0,7,8,9\r\n",
    "quoted numbers": HEADER + 'p0,"0","5.0","1.0","2.0"\n',
    "underscores": HEADER + "p0,1_0,1_0.5,1_000,2e1_0\n",
    "unicode digits": HEADER + "p0,٣,١٢.٥,１２,3\n",
    "padded numbers": HEADER + "p0, 3 ,\t5.0 , +1.0,-2.\n",
    "float forms": HEADER + "p0,0,-0,5e-324,1e308\np0,1,-1.7976931348623157e308,.5,1.\n",
    "unsorted and interleaved": HEADER + "b,2,1,1,1\na,0,2,2,2\nb,0,3,3,3\na,1,4,4,4\nb,1,5,5,5\n",
    "nul and unicode ids": HEADER + "p\x00,0,1,2,3\né x,0,1,2,3\n",
    "huge seq_index": HEADER + "p0,123456789012345678901234567890,1,2,3\n",
    "many rows": _many_rows(700),
    "bom": "\ufeff" + HEADER + "p0,0,5.0,1.0,2.0\n",
    "bom and crlf": "\ufeff" + HEADER.replace("\n", "\r\n") + "p0,0,5.0,1.0,2.0\r\n",
    # bad files: every message the loader has
    "empty": "",
    "header only": HEADER,
    "header and blank lines": HEADER + "\n\n",
    "blank first line": "\n" + HEADER + "p0,0,5.0,1.0,2.0\n",
    "bad header": "patient,seq_index,health_score,f0\np0,0,1,2\n",
    "no features": "patient_id,seq_index,health_score\np0,0,1\n",
    "features out of order": "patient_id,seq_index,health_score,f1,f0\np0,0,1,2,3\n",
    "short row": HEADER + "p0,0,5.0,1.0,2.0\np0,1,6.0,1.0\n",
    "long row": HEADER + "p0,0,5.0,1.0,2.0,3.0\n",
    "whitespace row": HEADER + "p0,0,5.0,1.0,2.0\n \n",
    "empty id": HEADER + ",0,5.0,1.0,2.0\n",
    "quoted empty id": HEADER + '"",0,5.0,1.0,2.0\n',
    "seq not an integer": HEADER + "p0,zero,5.0,1.0,2.0\n",
    "seq a float": HEADER + "p0,1.0,5.0,1.0,2.0\n",
    "seq negative": HEADER + "p0,-1,5.0,1.0,2.0\n",
    "non-numeric": HEADER + "p0,0,5.0,one,2.0\n",
    "hex value": HEADER + "p0,0,5.0,0x1,2.0\n",
    "empty value": HEADER + "p0,0,5.0,,2.0\n",
    "inf score": HEADER + "p0,0,inf,1.0,2.0\n",
    "nan feature": HEADER + "p0,0,5.0,1.0,nan\n",
    "overflowing value": HEADER + "p0,0,5.0,1e309,2.0\n",
    "duplicate": HEADER + "p0,0,5.0,1.0,2.0\np0,0,6.0,2.0,3.0\n",
    "duplicate by int()": HEADER + "p0,1,5.0,1.0,2.0\np0,01,6.0,2.0,3.0\n",
    "faults in check order": HEADER + ",x,y,z,w\n",
    "seq before numbers": HEADER + "p0,-1,y,z,w\n",
    "numbers before finite": HEADER + "p0,0,inf,z,2.0\n",
    "earlier line first": HEADER + "p0,0,5.0,1.0,2.0\np0,0,x,1.0,2.0\np1,0,1.0,2.0\n",
    "fault in a later block": _many_rows(700, fault_at=600),
    "fault at a block edge": _many_rows(700, fault_at=258, fault="p0,0,1,2,3"),
    "duplicate across blocks": _many_rows(700, fault_at=400, fault="p1,2,1,2,3"),
    # values np.loadtxt and float() read differently: where either refuses one, the row is float()'s to read
    "value padded with x1c": HEADER + "p0,0,\x1c5.0,1.0,2.0\n",
    "value padded with x1f": HEADER + "p0,0,5.0,1.0\x1f,2.0\n",
    "values padded with unicode spaces": HEADER + "p0,0,\xa05.0,1.0\u3000,\u2003 2.0\xa0\n",
    "trailing comma": HEADER + "p0,0,5.0,1.0,2.0,\n",
    "no values": HEADER + "p0,0,\np0,1,\n",
    "whitespace value": HEADER + "p0,0,5.0, ,2.0\n",
    "underscore and unicode digits in a later block": _many_rows(700, fault_at=600, fault="p99,0,1_0,١٢,2.0"),
    "short row after a blank block": HEADER + "\n" * 300 + "p0,0,1\n",
}


@pytest.mark.filterwarnings("error")  # a warning, such as np.loadtxt's on no data, is an outcome of its own
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_load_matches_the_per_scalar_loader(name, tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(CORPUS[name].encode("utf-8"))
    ours, ref = _outcome(load_dataset, path), _outcome(load_dataset_ref, path)
    assert ours == ref
    if name.startswith(("plain", "quoted id", "crlf", "cr only", "many rows", "bom")):
        assert isinstance(ours, list)


def test_corpus_covers_every_loader_message(tmp_path):
    messages = set()
    for name, text in CORPUS.items():
        path = tmp_path / f"{len(messages)}.csv"
        path.write_bytes(text.encode("utf-8"))
        outcome = _outcome(load_dataset, path)
        if isinstance(outcome, tuple):
            assert outcome[0] is DatasetError, name
            messages.add(outcome[1].split(": ", 2)[-1].split(" ")[0])
    assert messages == {
        "no",  # "no records"
        "header",
        "feature",
        "expected",
        "empty",
        "seq_index",
        "non-numeric",
        "non-finite",
        "duplicate",
    }


def test_records_are_row_views_of_one_matrix(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(CORPUS["many rows"], encoding="utf-8")
    records = [rec for series in load_dataset(path) for rec in series.records]
    base = records[0].features.base
    assert base is not None and base.shape == (700, 3)
    assert all(rec.features.base is base and rec.features.flags.c_contiguous for rec in records)
    assert all(type(rec.health_score) is float for rec in records)


def _text_file(data: bytes) -> io.TextIOWrapper:
    """``data`` as ``load_dataset`` opens a file."""
    return io.TextIOWrapper(io.BytesIO(data), **hscl.data._TEXT_MODE)


def _reader_rows(data: bytes, chunk_bytes: int) -> list[list[str]]:
    with mock.patch.object(hscl.data, "_CHUNK_CHARS", chunk_bytes):
        return list(map(_row, chain.from_iterable(_runs(_text_file(data), "f.csv"))))


def _pieces(data: bytes, chunk_bytes: int) -> list[str]:
    with mock.patch.object(hscl.data, "_CHUNK_CHARS", chunk_bytes):
        return list(_texts(_text_file(data)))


def _every_piece_but_the_last_ends_a_line(pieces: list[str]) -> bool:
    """Each piece ends with ``\\n``, or with a ``\\r`` that the next piece does not follow with ``\\n``."""
    return all(
        piece.endswith("\n") or piece.endswith("\r") and not after.startswith("\n")
        for piece, after in zip(pieces, pieces[1:])
    )


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_reader_rows_are_the_csv_reader_rows_of_the_text_in_any_pieces(name):
    """A plain piece's lines, split at ``,``, then ``csv.reader`` rows from the first piece that is not plain: the same rows."""
    text = CORPUS[name]
    expected = list(csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline="")))
    data = text.encode("utf-8")
    for chunk_bytes in {1, 2, 3, 5, 8, 13, 64, len(data) or 1}:
        assert _reader_rows(data, chunk_bytes) == expected, chunk_bytes


@given(
    st.text(alphabet=st.sampled_from(list('ab1.,"\n\r \t\x00\x0b\x0c\x1c\x85\u2028é€\U0001f600')), max_size=60),
    st.booleans(),
    st.integers(1, 16),
)
@settings(max_examples=400, deadline=None)
def test_reader_rows_are_the_csv_reader_rows_of_any_text(text, mark, chunk_bytes):
    data = ("\ufeff" if mark else "").encode("utf-8") + text.encode("utf-8")
    assert _reader_rows(data, chunk_bytes) == list(csv.reader(io.StringIO(text, newline="")))


@given(
    st.text(alphabet=st.sampled_from(list("ab,\n\r\x85\u2028é€\U0001f600")), max_size=60),
    st.booleans(),
    st.integers(1, 16),
)
@settings(max_examples=400, deadline=None)
def test_pieces_are_whole_lines_of_the_text_without_its_mark(text, mark, chunk_bytes):
    data = ("\ufeff" if mark else "").encode("utf-8") + text.encode("utf-8")
    pieces = _pieces(data, chunk_bytes)
    assert "".join(pieces) == text
    assert _every_piece_but_the_last_ends_a_line(pieces)


# -- errors the per-scalar loader did not catch ----------------------------------------


def test_a_file_that_is_not_utf8_names_its_line(tmp_path):
    path = tmp_path / "latin1.csv"
    for mark in (b"", "\ufeff".encode("utf-8")):  # the line is the same after a byte-order mark
        path.write_bytes(mark + HEADER.encode() + b"p0,0,5.0,1.0,2.0\np\xff,0,5.0,1.0,2.0\n")
        with pytest.raises(DatasetError) as exc:
            load_dataset(path)
        assert str(exc.value) == f"{path}: line 3: not UTF-8 text"


@pytest.mark.parametrize("quoted", [False, True])
def test_a_field_over_the_csv_size_limit_names_its_line_on_both_tokenisers(quoted, tmp_path):
    limit = csv.field_size_limit()
    pid = '"p0"' if quoted else "p0"
    path = tmp_path / "big.csv"
    path.write_text(HEADER + f"{pid},0,5.0,1.0,2.0\np1,0,{'1' * (limit + 1)},1.0,2.0\n", encoding="utf-8")
    with pytest.raises(DatasetError) as exc:
        load_dataset(path)
    assert str(exc.value) == f"{path}: line 3: field larger than field limit ({limit})"
    # a field of exactly the limit is fine
    long_id = "x" * limit
    path.write_text(HEADER + f"{pid},0,5.0,1.0,2.0\n{long_id},0,5.0,1.0,2.0\n", encoding="utf-8")
    assert load_dataset(path)[1].patient_id == long_id


# -- chunk edges and the precedence of file faults --------------------------------------


# a file, and the part of it that a chunk edge is put inside
CHUNK_EDGE_CASES = {
    "multi-byte characters": (HEADER + "pé€\U0001f600,0,5.0,1.0,2.0\n", "é€\U0001f600"),
    "byte-order mark": ("\ufeff" + HEADER + "p0,0,5.0,1.0,2.0\n", "\ufeff"),
    "crlf pair": (HEADER.replace("\n", "\r\n") + "p0,0,5.0,1.0,2.0\r\np0,1,6.0,1.5,2.5\r\n", "\r\n"),
    "quoted id holding a newline": (HEADER + 'p0,0,5.0,1.0,2.0\n"p\n1",0,6.0,1.0,2.0\nq,0,7,8,9\n', '"p\n1"'),
}


@pytest.mark.parametrize("name", sorted(CHUNK_EDGE_CASES))
def test_load_matches_the_per_scalar_loader_with_a_chunk_edge_inside(name, tmp_path, monkeypatch):
    text, part = CHUNK_EDGE_CASES[name]
    data = text.encode("utf-8")
    start = data.index(part.encode("utf-8"))
    end = start + len(part.encode("utf-8"))
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    ref = _outcome(load_dataset_ref, path)
    assert isinstance(ref, list)
    cutting = [size for size in range(1, end) if any(start < edge < end for edge in range(size, end, size))]
    assert cutting
    for chunk_bytes in cutting:  # a byte edge falls inside the part, yet every piece ends a line
        pieces = _pieces(data, chunk_bytes)
        assert "".join(pieces) == text.removeprefix("\ufeff"), chunk_bytes
        assert _every_piece_but_the_last_ends_a_line(pieces), chunk_bytes
        monkeypatch.setattr(hscl.data, "_CHUNK_CHARS", chunk_bytes)
        assert _outcome(load_dataset, path) == ref, chunk_bytes


@pytest.mark.parametrize("cut", [False, True], ids=["whole", "cut"])
def test_characters_across_the_text_layers_own_reads_read_as_one_decode(cut, tmp_path, monkeypatch):
    """A character, whole or cut short, across an edge of the text layer's 8 KiB byte reads: as one decode gives."""
    body = "".join("\U0001f600é€" * 3 + f"{i},0,{i}.5,1.0,2.0\n" for i in range(400)).encode("utf-8")
    path = tmp_path / "data.csv"
    edges = 0
    for pad in range(4):  # blank lines that shift the body against the edge at byte 8192
        data = HEADER.encode() + b"\n" * pad + body
        if not 0x80 <= data[8192] < 0xC0:  # no character spans the edge
            continue
        edges += 1
        path.write_bytes(data[:8192] + data[8193:] if cut else data)
        ref = _outcome(load_dataset_ref, path)
        assert isinstance(ref, list) != cut
        for chunk_chars in (64, 1 << 17):
            monkeypatch.setattr(hscl.data, "_CHUNK_CHARS", chunk_chars)
            assert _outcome(load_dataset, path) == ref, (pad, chunk_chars)
    assert edges


@pytest.fixture
def field_limit():
    """``csv.field_size_limit()`` at 200 characters, so that a field over it is short."""
    old = csv.field_size_limit(200)
    yield 200
    csv.field_size_limit(old)


# a fault of the file itself, put after a bad row and more good rows than a block or a small chunk holds
LATE_FILE_FAULTS = {
    "not utf-8": (b"q\xff,0,5.0,1.0,2.0\n", "line 304: not UTF-8 text"),
    "over-limit field": (b"q," + b"1" * 201 + b",5.0,1.0,2.0\n", "line 304: field larger than field limit (200)"),
    # the quoted field runs on to the end of the file, past the limit
    "unclosed quote": (b'"q,0,5.0,1.0,2.0\n' + b"r,0,5.0,1.0,2.0\n" * 20, "line 304: field larger than field limit (200)"),
}


@pytest.mark.parametrize("chunk_bytes", [64, 1 << 17])
@pytest.mark.parametrize("name", sorted(LATE_FILE_FAULTS))
def test_a_late_fault_of_the_file_beats_an_earlier_bad_row(name, chunk_bytes, field_limit, tmp_path, monkeypatch):
    fault, message = LATE_FILE_FAULTS[name]
    good = "".join(f"p{i},0,{i}.5,1.0,2.0\n" for i in range(1, 301))
    path = tmp_path / "data.csv"
    # line 2 has a non-numeric value; a blank line 303 ends the good rows, and the fault is on line 304
    path.write_bytes((HEADER + "p0,0,x,1.0,2.0\n" + good + "\n").encode("utf-8") + fault)
    monkeypatch.setattr(hscl.data, "_CHUNK_CHARS", chunk_bytes)
    ours = _outcome(load_dataset, path)
    assert ours == (DatasetError, f"{path}: {message}")
    assert ours == _outcome(load_dataset_ref, path)
    # without the fault, the bad row is what is reported
    path.write_bytes((HEADER + "p0,0,x,1.0,2.0\n" + good).encode("utf-8"))
    assert _outcome(load_dataset, path) == (DatasetError, f"{path}: line 2: non-numeric value")


@pytest.mark.parametrize("chunk_chars", [1, 64])
def test_a_last_line_over_the_limit_without_a_line_end_is_a_field_over_the_limit(chunk_chars, field_limit, tmp_path,
                                                                                  monkeypatch):
    """A piece of one line of ``limit + 1`` characters, the file's last, goes to ``csv.reader``, not to the plain path."""
    path = tmp_path / "data.csv"
    path.write_text(HEADER + "p0,0,5.0,1.0,2.0\n" + "1" * 201, encoding="utf-8")
    monkeypatch.setattr(hscl.data, "_CHUNK_CHARS", chunk_chars)
    ours = _outcome(load_dataset, path)
    assert ours == (DatasetError, f"{path}: line 3: field larger than field limit (200)")
    assert ours == _outcome(load_dataset_ref, path)


def test_non_utf8_bytes_beat_an_earlier_over_limit_field(field_limit, tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_bytes((HEADER + "p0,0," + "1" * 201 + ",1.0,2.0\n" + "p1,0,5.0,1.0,2.0\n" * 300).encode() + b"\xff\n")
    monkeypatch.setattr(hscl.data, "_CHUNK_CHARS", 64)
    ours = _outcome(load_dataset, path)
    assert ours == (DatasetError, f"{path}: line 303: not UTF-8 text")
    assert ours == _outcome(load_dataset_ref, path)


# bytes that are not UTF-8 (alone, a cut character, an encoded surrogate), the byte-order mark whole and cut,
# the line ends, quote and separator the reader splits at, digits, and the line ends it must not split at
FUZZ_BYTES = [
    b"\xff", b"\xc3", b"\xe2\x80", b"\xed\xa0\x80", b"\xef\xbb\xbf", b"\xef", b"\xef\xbb",
    b"\r", b"\n", b"\r\n", b'"', b",", *(bytes([d]) for d in b"0123456789"), b"\xc2\x85", b"\xe2\x80\xa8",
]


@given(
    lead=st.lists(st.sampled_from(FUZZ_BYTES), max_size=2),
    header=st.booleans(),
    body=st.lists(st.sampled_from(FUZZ_BYTES), max_size=40),
    limit=st.sampled_from([4, 12, 131072]),  # 12 holds the header's fields, 4 does not
)
@settings(max_examples=300, deadline=None)
def test_load_of_any_bytes_matches_the_per_scalar_loader(lead, header, body, limit, tmp_path_factory):
    """Bad bytes and marks anywhere, and at any piece edge: the same records, or the same error and line."""
    path = tmp_path_factory.mktemp("bytes") / "data.csv"
    path.write_bytes(b"".join(lead) + (HEADER.encode() if header else b"") + b"".join(body))
    old = csv.field_size_limit(limit)
    try:
        ref = _outcome(load_dataset_ref, path)
        for chunk_chars in (1, 2, 3, 7, 1 << 17):
            with mock.patch.object(hscl.data, "_CHUNK_CHARS", chunk_chars):
                assert _outcome(load_dataset, path) == ref, chunk_chars
    finally:
        csv.field_size_limit(old)


@pytest.mark.parametrize("data", [b"\xef", b"\xef\xbb"], ids=["1-byte", "2-byte"])
def test_a_file_of_a_cut_byte_order_mark_is_not_utf8(data, tmp_path):
    """Not "no records": the file is read as ``utf-8`` with the mark dropped by hand, not as ``utf-8-sig``."""
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    ours = _outcome(load_dataset, path)
    assert ours == (DatasetError, f"{path}: line 1: not UTF-8 text")
    assert ours == _outcome(load_dataset_ref, path)


def test_save_and_load_hold_less_than_the_file_at_once(tmp_path):
    """Neither holds the file's text whole: each peaks below the file size, whatever its line ends (the whole-text code: 3.1x and 1.6x)."""
    collection = generate_synthetic(SyntheticSpec(n_patients=400, scans_per_patient=6, n_features=32, seed=0))
    path = tmp_path / "cohort.csv"
    tracemalloc.start()
    try:
        save_dataset(collection, path)
        save_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert 1_500_000 < size < 1_700_000  # 1.51 MiB
    assert save_peak < size
    data = path.read_bytes()
    for line_end in (b"\n", b"\r\n", b"\r"):
        path.write_bytes(data.replace(b"\n", line_end))
        tracemalloc.start()
        try:
            loaded = load_dataset(path)
            held, load_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(len(series.records) for series in loaded) == 2400
        assert load_peak - held < size, line_end
        del loaded


def test_a_saved_cohort_is_read_by_np_loadtxt_block_by_block(tmp_path):
    """Every block of a file ``save_dataset`` wrote goes through one ``np.loadtxt`` call, none through ``csv.reader`` rows."""
    path = tmp_path / "cohort.csv"
    save_dataset(generate_synthetic(SyntheticSpec(n_patients=400, scans_per_patient=6, n_features=32, seed=0)), path)
    with (
        mock.patch.object(hscl.data.np, "loadtxt", wraps=np.loadtxt) as loadtxt,
        mock.patch.object(hscl.data, "_parse_block", wraps=hscl.data._parse_block) as parse_block,
    ):
        loaded = load_dataset(path)
    assert sum(len(series.records) for series in loaded) == 2400
    assert (loadtxt.call_count, parse_block.call_count) == (math.ceil(2400 / hscl.data._BLOCK_ROWS), 0)
    assert _outcome(lambda _: loaded, path) == _outcome(load_dataset_ref, path)


# value fields: numbers in forms float() reads and np.loadtxt reads otherwise or not at all, padded with
# whitespace that either strips; rows of plain numbers, which both read, and rows with one such field
value_fields = st.tuples(
    st.sampled_from(["", " ", "\x0b", "\x0c", "\xa0", "\x85", "\u2003", "\u3000", "\x1c", "\x1d", "\x1e", "\x1f"]),
    st.one_of(
        st.floats().map(repr),
        st.integers(0, 10**6).map(lambda n: f"{n:_}"),
        st.sampled_from(["١٢", "٣.٥", "１２", "1e1_0", "inf", "nan", "-Infinity", ".5", "5.", "+1e-3", "", "1__0", "_1"]),
        st.lists(st.sampled_from([*"0123456789.eE+-_"]), min_size=1, max_size=5).map("".join),
    ),
    st.sampled_from(["", " ", "\xa0", "\u3000", "\x1f"]),
).map("".join)
plain_values = st.floats(allow_nan=False, allow_infinity=False).map(repr)
plain_rows = st.lists(plain_values, min_size=3, max_size=3)
odd_rows = st.tuples(value_fields, plain_values, plain_values).flatmap(st.permutations)


@given(
    rows=st.lists(st.one_of(plain_rows, plain_rows, odd_rows), min_size=1, max_size=12),
    block_rows=st.integers(1, 4),
)
@settings(max_examples=200, deadline=None)
def test_loaded_values_match_the_per_scalar_loader(rows, block_rows, tmp_path_factory):
    """Blocks read by ``np.loadtxt`` and blocks read by ``float()`` interleave across pieces, and give what ``float()`` alone gives."""
    text = HEADER + "".join(f"p{i // 3},{i % 3},{','.join(values)}\n" for i, values in enumerate(rows))
    path = tmp_path_factory.mktemp("values") / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    ref = _outcome(load_dataset_ref, path)
    with mock.patch.object(hscl.data, "_BLOCK_ROWS", block_rows):
        for chunk_bytes in (16, 100, 1 << 17):
            with mock.patch.object(hscl.data, "_CHUNK_CHARS", chunk_bytes):
                assert _outcome(load_dataset, path) == ref, chunk_bytes


# -- the writer ----------------------------------------------------------------------


finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]),
)
patient_ids = st.text(
    alphabet=st.sampled_from(list('ab7 ,"\n\ré٣\x00')), min_size=1, max_size=6
)


@given(
    pids=st.lists(patient_ids, min_size=1, max_size=4, unique=True),
    n_scans=st.integers(1, 3),
    n_features=st.integers(1, 3),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_save_then_load_is_exact_to_the_bit(pids, n_scans, n_features, data, tmp_path_factory):
    collection = [
        PatientSeries(
            pid,
            [
                ScanRecord(pid, 2 * t, np.array(data.draw(st.lists(finite, min_size=n_features, max_size=n_features))), data.draw(finite))
                for t in range(n_scans)
            ],
        )
        for pid in pids
    ]
    folder = tmp_path_factory.mktemp("roundtrip")
    ours, ref = folder / "ours.csv", folder / "ref.csv"
    save_dataset(collection, ours)
    save_dataset_ref(collection, ref)
    if not any("\r" in pid for pid in pids):  # the old writer left a "\r" unquoted (see below)
        assert ours.read_bytes() == ref.read_bytes()
    assert _outcome(load_dataset, ours) == _outcome(lambda _: collection, ours)


def test_save_quotes_a_patient_id_holding_a_carriage_return(tmp_path):
    collection = [PatientSeries(pid, [ScanRecord(pid, 0, np.array([1.5]), 2.0)]) for pid in ("a\rb", "c\r")]
    path = tmp_path / "data.csv"
    save_dataset(collection, path)
    assert path.read_bytes() == b'patient_id,seq_index,health_score,f0\n"a\rb",0,2.0,1.5\n"c\r",0,2.0,1.5\n'
    assert [s.patient_id for s in load_dataset(path)] == ["a\rb", "c\r"]
    # the per-scalar writer wrote them bare, so they read back as line ends
    save_dataset_ref(collection, path)
    with pytest.raises(DatasetError, match="line 2: expected 4 fields, got 1"):
        load_dataset(path)


def test_save_takes_every_record_s_width_from_its_flattened_features(tmp_path):
    """A first record whose features are a list, or shaped (2, 1), has 2 features, as any later record would."""
    later = ScanRecord("p", 1, np.array([0.25, 4.0]), 6.0)
    expected = tmp_path / "arrays.csv"
    save_dataset([PatientSeries("p", [ScanRecord("p", 0, np.array([1.5, -2.0]), 3.0), later])], expected)
    assert expected.read_bytes().startswith(b"patient_id,seq_index,health_score,f0,f1\n")
    for first in ([1.5, -2.0], np.array([[1.5], [-2.0]])):
        path = tmp_path / "data.csv"
        save_dataset([PatientSeries("p", [ScanRecord("p", 0, first, 3.0), later])], path)
        assert path.read_bytes() == expected.read_bytes()
    wide = ScanRecord("p", 1, np.zeros(3), 6.0)
    with pytest.raises(DatasetError, match=r"record p/1 has 3 features, expected 2"):
        save_dataset([PatientSeries("p", [ScanRecord("p", 0, [1.5, -2.0], 3.0), wide])], path)


def test_save_rejects_a_record_of_another_width_before_writing(tmp_path):
    collection = generate_synthetic(SyntheticSpec(n_patients=3, scans_per_patient=2, n_features=4, seed=1))
    collection[1].records[1].features = np.zeros(3)
    path = tmp_path / "data.csv"
    with pytest.raises(DatasetError, match=r"record p1/1 has 3 features, expected 4"):
        save_dataset(collection, path)
    assert not path.exists()


@pytest.mark.parametrize(
    "score, feature, named",
    [
        (math.nan, 0.5, "health_score=nan"),
        (1.0, math.inf, "f2=inf"),
        (-math.inf, -math.inf, "health_score=-inf, f2=-inf"),
    ],
    ids=["nan-score", "inf-feature", "both"],
)
def test_save_rejects_a_non_finite_record_before_writing(tmp_path, score, feature, named):
    """``load_dataset`` rejects a non-finite value, so ``save_dataset`` does not write one."""
    collection = generate_synthetic(SyntheticSpec(n_patients=3, scans_per_patient=2, n_features=4, seed=1))
    rec = collection[1].records[1]
    rec.health_score = score
    rec.features[2] = feature
    path = tmp_path / "data.csv"
    with pytest.raises(DatasetError) as exc:
        save_dataset(collection, path)
    assert str(exc.value) == f"save_dataset: record p1/1 has a non-finite value: {named}"
    assert not path.exists()


# -- prepare ----------------------------------------------------------------------------


def _sf_cohort(**kw):
    """A cohort whose scores read as S/F ratios, all positive and spread over the clinical bins."""
    collection = generate_synthetic(SyntheticSpec(hs_center=300.0, hs_scale=40.0, **kw))
    assert all(rec.health_score > 0 for series in collection for rec in series.records)
    return collection


def _assert_prepare_matches_the_reference(collection, seed, dcfg):
    prepared = prepare(collection, seed, dcfg)
    regression, pairs = prepare_arrays_ref(collection, seed, dcfg)
    for split in ("train", "val", "test"):
        for ours, ref in zip(
            (*prepared.regression[split], *prepared.pairs[split]), (*regression[split], *pairs[split])
        ):
            assert ours.dtype == ref.dtype and ours.shape == ref.shape
            assert ours.tobytes() == ref.tobytes()


@pytest.mark.parametrize("label_mode", ["threshold", "bin"])
@pytest.mark.parametrize("higher_is_better", [True, False])
@pytest.mark.parametrize("seed", [0, 5])
def test_prepare_matches_the_per_record_reference(label_mode, higher_is_better, seed):
    collection = _sf_cohort(n_patients=40, scans_per_patient=5, n_features=6, seed=seed + 2)
    dcfg = DataConfig(label_mode=label_mode, higher_is_better=higher_is_better, tau=0.03)
    _assert_prepare_matches_the_reference(collection, seed, dcfg)


@pytest.mark.parametrize("label_mode", ["threshold", "bin"])
def test_prepare_matches_the_reference_on_empty_splits_and_single_scan_patients(label_mode):
    collection = _sf_cohort(n_patients=30, scans_per_patient=3, n_features=4, seed=9)
    # uneven series: single-scan patients among longer ones
    collection = [PatientSeries(s.patient_id, s.records[: 1 + i % 3]) for i, s in enumerate(collection)]
    _assert_prepare_matches_the_reference(collection, 1, DataConfig(fractions=(0.8, 0.2, 0.0), label_mode=label_mode))
    single = [PatientSeries(s.patient_id, s.records[:1]) for s in collection]
    _assert_prepare_matches_the_reference(single, 2, DataConfig(label_mode=label_mode))


def test_prepare_matches_the_reference_on_a_loaded_file(tmp_path):
    path = tmp_path / "data.csv"
    save_dataset(_sf_cohort(n_patients=25, scans_per_patient=4, n_features=3, seed=4), path)
    for label_mode in ("threshold", "bin"):
        _assert_prepare_matches_the_reference(load_dataset(path), 3, DataConfig(label_mode=label_mode))


def _raised(fn):
    try:
        fn()
    except Exception as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "scores, label_mode, error",
    [
        ({}, "threshold", ConfigError),  # every score equal: degenerate stats
        ({}, "bin", ConfigError),
        # a score the labels reject is bad input: pair_labels' DomainError text as a ConfigError
        ({("p03", 1): -4.0, ("p07", 0): 0.0}, "bin", ConfigError),  # non-positive S/F
        ({("p05", 2): float("nan"), ("p02", 1): float("inf")}, "threshold", ConfigError),
        ({("p05", 2): float("nan"), ("p02", 1): -1.0}, "bin", ConfigError),
    ],
)
def test_prepare_raises_the_reference_errors(scores, label_mode, error):
    collection = _sf_cohort(n_patients=12, scans_per_patient=3, n_features=3, seed=1)
    for series in collection:
        for rec in series.records:
            if not scores:
                rec.health_score = 250.0
            rec.health_score = scores.get((rec.patient_id, rec.seq_index), rec.health_score)
    for seed in range(4):
        dcfg = DataConfig(label_mode=label_mode)
        ours = _raised(lambda: prepare(collection, seed, dcfg))
        assert ours is not None and ours[0] is error
        assert ours == _raised(lambda: prepare_arrays_ref(collection, seed, dcfg))


@given(st.lists(st.tuples(finite, finite), max_size=8), st.booleans(), st.sampled_from([0.0, 0.05, 0.5]))
@settings(max_examples=200, deadline=None)
def test_threshold_labels_and_scores_match_the_scalar_rules(pairs, higher_is_better, tau):
    stats = NormalizationStats(-1.0, 3.0, higher_is_better)
    prev = np.array([p for p, _ in pairs], dtype=np.float64)
    nxt = np.array([n for _, n in pairs], dtype=np.float64)
    labels = pair_labels(prev, nxt, stats, "threshold", tau)
    assert labels.dtype == np.int64
    assert labels.tolist() == [change_label_ref(p, n, stats, "threshold", tau) for p, n in pairs]
    assert [_bits(v) for v in stats.normalize_array(prev)] == [_bits(normalize_ref(stats, p)) for p, _ in pairs]


@pytest.mark.parametrize(
    "stats",
    [NormalizationStats(-1e308, 1e308), NormalizationStats(0.0, 1e300), NormalizationStats(1e-300, 2e-300)],
)
def test_normalize_array_keeps_the_scalar_clamp_on_signed_zero_and_nan(stats):
    values = np.array([-1e308, -5e-324, 0.0, -0.0, 1e-300, 1.5e-300, 5e-324, 1e308, 2e-300])
    assert [_bits(v) for v in stats.normalize_array(values)] == [_bits(normalize_ref(stats, float(v))) for v in values]


def test_bin_labels_match_the_scalar_rules_at_the_edges():
    edges = [429.9999, 430.0, 430.0001, 274.9999, 275.0, 275.0001, 179.9999, 180.0, 180.0001, 1e-300, 1e308]
    prev, nxt = np.meshgrid(edges, edges)
    labels = pair_labels(prev.ravel(), nxt.ravel(), NormalizationStats(0.0, 1.0), "bin")
    assert labels.tolist() == [change_label_ref(p, n) for p, n in zip(prev.ravel(), nxt.ravel())]
    assert [categorize_sf(v) for v in edges] == [categorize_sf_ref(v) for v in edges]


faulty = st.one_of(finite, st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.0, -0.0, -1.0]))


@given(st.lists(st.tuples(faulty, faulty), max_size=6), st.sampled_from(["bin", "threshold"]))
@settings(max_examples=300, deadline=None)
def test_pair_labels_raise_what_the_scalar_rule_raises_first(pairs, mode):
    stats = NormalizationStats(-1.0, 3.0)
    prev = np.array([p for p, _ in pairs], dtype=np.float64)
    nxt = np.array([n for _, n in pairs], dtype=np.float64)
    ours = _raised(lambda: pair_labels(prev, nxt, stats, mode).tolist())
    assert ours == _raised(lambda: [change_label_ref(p, n, stats, mode) for p, n in pairs])
    if ours is None:
        assert pair_labels(prev, nxt, stats, mode).tolist() == [change_label_ref(p, n, stats, mode) for p, n in pairs]
