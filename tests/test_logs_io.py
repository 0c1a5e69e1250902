"""BidLog structure plus strict CSV/JSONL serialization."""

import csv
import json
import math
import re
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reservelab import logio
from reservelab.errors import LogParseError
from reservelab.logio import (LOG_HEADER, format_micro, is_micro, parse_bid_token, parse_log,
                              quantize_log, read_reserves, write_log, write_reserves)
from reservelab.logs import BidLog
from reservelab.mechanics import BidProfile, ReserveVector
from reservelab.vectorized import ABSENT


def small_log():
    return BidLog([BidProfile("a1", {"A": 7.0, "B": 5.0, "C": 3.0}),
                   BidProfile("a2", {"B": 1.25}),
                   BidProfile("a3", {"A": 0.000001, "C": 2.0})])


def test_duplicate_auction_id_rejected():
    with pytest.raises(ValueError):
        BidLog([BidProfile("a", {"A": 1.0}), BidProfile("a", {"B": 2.0})])


def test_bidder_universe_sorted():
    assert small_log().bidder_ids == ("A", "B", "C")


def test_matrix_round_trip():
    log = small_log()
    m = log.to_matrix()
    assert m.shape == (3, 3)
    assert m[1, 0] == ABSENT and m[1, 1] == 1.25
    back = BidLog.from_matrix(m, log.bidder_ids, [p.auction_id for p in log.profiles])
    assert [p.bids for p in back.profiles] == [dict(p.bids) for p in log.profiles]


def test_micro_formatting():
    assert format_micro(5.0) == "5"
    assert format_micro(5.25) == "5.25"
    assert format_micro(0.000001) == "0.000001"
    assert format_micro(123456.654321) == "123456.654321"
    with pytest.raises(ValueError):
        format_micro(1 / 3)
    with pytest.raises(ValueError):
        format_micro(-1.0)


def test_micro_round_trip_random():
    rng = np.random.default_rng(31)
    for _ in range(2000):
        micros = int(rng.integers(0, 10 ** 12))
        value = micros / 10 ** 6
        assert is_micro(value)
        assert parse_bid_token(format_micro(value)) == value


@pytest.mark.parametrize("x", ["1", None, True, [1.0]])
def test_is_micro_is_false_for_what_is_not_a_float_or_int(x):
    assert not is_micro(x)


def test_quantize():
    q = quantize_log(BidLog([BidProfile("a", {"A": 1 / 3})]))
    assert q.profiles[0].bids["A"] == 0.333333


@pytest.mark.parametrize("x", [1e305, sys.float_info.max])
def test_values_whose_micros_overflow_are_refused(tmp_path, x):
    """x * 10**6 overflows to inf: a ValueError, not round()'s OverflowError."""
    assert not is_micro(x)
    with pytest.raises(ValueError, match="not representable"):
        format_micro(x)
    log = BidLog.from_matrix(np.array([[1.0, x]]), ("A", "B"))
    with pytest.raises(ValueError, match="not representable"):
        write_log(log, str(tmp_path / "log.csv"))
    with pytest.raises(ValueError, match="exceeds the 1e9 cap"):
        quantize_log(log)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_write_parse_round_trip(tmp_path, fmt):
    log = small_log()
    path = str(tmp_path / f"log.{fmt}")
    write_log(log, path, fmt)
    back = parse_log(path)
    assert [p.auction_id for p in back.profiles] == ["a1", "a2", "a3"]
    assert [dict(p.bids) for p in back.profiles] == [dict(p.bids) for p in log.profiles]


def test_write_rejects_non_micro_unless_quantized(tmp_path):
    log = BidLog([BidProfile("a", {"A": 1 / 3})])
    path = str(tmp_path / "log.csv")
    with pytest.raises(ValueError):
        write_log(log, path)
    write_log(quantize_log(log), path)
    assert parse_log(path).profiles[0].bids["A"] == 0.333333


def test_csv_header_must_match_exactly(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("auction_id,bidder_id, bid\na,A,1\n")
    with pytest.raises(LogParseError) as e:
        parse_log(str(path))
    assert e.value.line_number == 1


@pytest.mark.parametrize("token", ["-1", "nan", "NaN", "1e3", "1.2345678", "+5",
                                   " 5", "5.", ".5", "inf", "0x5", "1000000001",
                                   "\u0661\u0662", "\u0966.\u096b",
                                   pytest.param("1" + "0" * 5000, id="1e5000")])
def test_bad_bid_tokens_rejected_with_line_number(tmp_path, token):
    path = tmp_path / "log.csv"
    for field in (f'"{token}"', token):  # the per-record parse, then the columnar one first
        path.write_text(f"auction_id,bidder_id,bid\na,A,1\nb,A,{field}\n", encoding="utf-8")
        with pytest.raises(LogParseError) as e:
            parse_log(str(path))
        assert e.value.line_number == 3


@pytest.mark.parametrize("token", ["\u0661\u0662", "\u0966.\u096b", "1\n", "5\u0663"])
def test_bid_grammar_is_ascii_digits_only(tmp_path, token):
    with pytest.raises(LogParseError):
        parse_bid_token(token)
    path = tmp_path / "log.jsonl"
    path.write_text(json.dumps({"auction_id": "a", "bidder_id": "A", "bid": token}) + "\n")
    with pytest.raises(LogParseError) as e:
        parse_log(str(path))
    assert e.value.line_number == 1
    if "\n" not in token:  # a CSV line cannot hold one
        path = tmp_path / "reserves.csv"
        path.write_text(f"bidder_id,reserve\nA,1\nB,{token}\n", encoding="utf-8")
        with pytest.raises(LogParseError) as e:
            read_reserves(str(path))
        assert e.value.line_number == 3


def test_leading_zeros_do_not_count_against_the_cap():
    assert parse_bid_token("0" * 5000 + "1.5") == 1.5
    assert parse_bid_token("0" * 5000 + "1000000000") == 1e9


@pytest.mark.parametrize("name, text", [
    ("log.csv", b"auction_id,bidder_id,bid\na,A,1\nb,A,\xff\n"),
    ("log.jsonl", b'{"auction_id": "a", "bidder_id": "A", "bid": "1"}\n'
                  b'{"auction_id": "b\xc3", "bidder_id": "A", "bid": "1"}\n'),
    ("reserves.csv", b"bidder_id,reserve\nA,1\nB,\xe9\n")])
def test_invalid_utf8_is_a_parse_error_on_its_line(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text)
    read = read_reserves if name == "reserves.csv" else parse_log
    with pytest.raises(LogParseError, match="invalid UTF-8 byte 0x") as e:
        read(str(path))
    assert e.value.line_number == 3 - name.endswith(".jsonl")


def test_duplicate_pair_rejected(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("auction_id,bidder_id,bid\na,A,1\na,A,2\n")
    with pytest.raises(LogParseError) as e:
        parse_log(str(path))
    assert e.value.line_number == 3
    # same bidder in different auctions is fine
    path.write_text("auction_id,bidder_id,bid\na,A,1\nb,A,2\n")
    assert len(parse_log(str(path))) == 2


def test_empty_and_headerless_files_rejected(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("")
    with pytest.raises(LogParseError):
        parse_log(str(path))
    path.write_text("auction_id,bidder_id,bid\n")
    with pytest.raises(LogParseError):
        parse_log(str(path))
    (tmp_path / "log.jsonl").write_text("")
    with pytest.raises(LogParseError, match="^empty log file$"):
        parse_log(str(tmp_path / "log.jsonl"))


def test_interleaved_auctions_group_in_first_seen_order(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("auction_id,bidder_id,bid\nz,A,1\ny,A,2\nz,B,3\n")
    log = parse_log(str(path))
    assert [p.auction_id for p in log.profiles] == ["z", "y"]
    assert dict(log.profiles[0].bids) == {"A": 1.0, "B": 3.0}


def test_jsonl_strictness(tmp_path):
    path = tmp_path / "log.jsonl"
    ok = {"auction_id": "a", "bidder_id": "A", "bid": "2.5"}
    path.write_text(json.dumps(ok) + "\n")
    assert parse_log(str(path)).profiles[0].bids["A"] == 2.5

    for bad in [{**ok, "extra": 1},
                {"auction_id": "a", "bidder_id": "A"},
                {**ok, "bid": 2.5},
                {**ok, "bid": True},
                {**ok, "bid": -3},
                {**ok, "bid": "abc"}]:
        path.write_text(json.dumps(bad) + "\n")
        with pytest.raises(LogParseError) as e:
            parse_log(str(path))
        assert e.value.line_number == 1

    path.write_text("not json\n")
    with pytest.raises(LogParseError):
        parse_log(str(path))


def test_jsonl_integer_bid_accepted(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(json.dumps({"auction_id": "a", "bidder_id": "A", "bid": 3}) + "\n")
    assert parse_log(str(path)).profiles[0].bids["A"] == 3.0


def test_format_inference_and_override(tmp_path):
    path = tmp_path / "log.dat"
    with pytest.raises(ValueError):
        parse_log(str(path))
    write_log(small_log(), str(path), format="csv")
    assert len(parse_log(str(path), format="csv")) == 3
    with pytest.raises(ValueError, match="^unknown log format 'xml'$"):
        parse_log(str(path), format="XML")


def test_reserves_round_trip(tmp_path):
    rv = ReserveVector({"A": 6.0, "B": 0.25, "C": math.inf})
    path = str(tmp_path / "reserves.csv")
    write_reserves(rv, path)
    back = read_reserves(path)
    assert back.get("A") == 6.0 and back.get("B") == 0.25 and back.get("C") == math.inf
    assert back.get("unlisted") == 0.0


def test_ids_with_commas_and_quotes_round_trip(tmp_path):
    log = BidLog([BidProfile("a,1", {'x,y': 1.5, 'q"': 2.0, "plain": 0.5}),
                  BidProfile('"a2"', {'x,y': 3.0})])
    src = tmp_path / "log.jsonl"
    write_log(log, str(src))
    path = tmp_path / "log.csv"
    write_log(parse_log(str(src)), str(path))
    assert path.read_text().splitlines()[1:4] == ['"a,1",plain,0.5', '"a,1","q""",2',
                                                   '"a,1","x,y",1.5']
    assert parse_log(str(path)) == log
    rv = ReserveVector({'x,y': 1.0, 'q"': math.inf, "plain": 2.0})
    write_reserves(rv, str(tmp_path / "reserves.csv"))
    assert read_reserves(str(tmp_path / "reserves.csv")) == rv


@pytest.mark.parametrize("bad", ["a\nb", "a\rb", "a\x85b", "a\u2028b"])
def test_csv_refuses_ids_with_line_breaks(tmp_path, bad):
    log = BidLog([BidProfile("a1", {bad: 1.0})])
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        write_log(log, str(tmp_path / "log.csv"))
    with pytest.raises(ValueError):
        write_reserves(ReserveVector({bad: 1.0}), str(tmp_path / "reserves.csv"))
    write_log(log, str(tmp_path / "log.jsonl"))  # JSON escapes the break: one record per line
    assert parse_log(str(tmp_path / "log.jsonl")) == log


def test_jsonl_written_as_json_dumps_would(tmp_path):
    log = BidLog([BidProfile('a"1', {"\u00e9,x": 1.25, "b\\": 7.0})])
    path = tmp_path / "log.jsonl"
    write_log(log, str(path))
    want = [json.dumps({"auction_id": 'a"1', "bidder_id": b, "bid": bid})
            for b, bid in (("b\\", "7"), ("\u00e9,x", "1.25"))]
    assert path.read_text().splitlines() == want


def test_reserve_file_validation(tmp_path):
    path = tmp_path / "reserves.csv"
    path.write_text("bidder,reserve\nA,1\n")
    with pytest.raises(LogParseError) as e:
        read_reserves(str(path))
    assert e.value.line_number == 1
    path.write_text("bidder_id,reserve\nA,1\nA,2\n")
    with pytest.raises(LogParseError) as e:
        read_reserves(str(path))
    assert e.value.line_number == 3
    path.write_text("bidder_id,reserve\nA,-1\n")
    with pytest.raises(LogParseError):
        read_reserves(str(path))
    path.write_text("bidder_id,reserve\nA,1\n,2\n")
    with pytest.raises(LogParseError, match="empty bidder_id") as e:
        read_reserves(str(path))
    assert e.value.line_number == 3


def test_log_is_immutable():
    log = small_log()
    with pytest.raises(ValueError):
        log.to_matrix()[0, 0] = 99.0
    with pytest.raises(AttributeError):
        log.profiles.append(BidProfile("a4", {"A": 1.0}))
    with pytest.raises(AttributeError):
        log.bidder_ids = ("A",)
    assert log == small_log()


@pytest.mark.parametrize("rows", ['a,"b\nx",1',  # one reader: a quote must not reach line 3
                                  "a," + "b" * 200_000 + ",1"])  # over csv.field_size_limit()
def test_malformed_csv_record_rejected_at_its_line(tmp_path, rows):
    path = tmp_path / "log.csv"
    path.write_text(f"auction_id,bidder_id,bid\n{rows}\n")
    with pytest.raises(LogParseError) as e:
        parse_log(str(path))
    assert e.value.line_number == 2


def test_from_matrix_validates_and_normalizes():
    m = np.array([[2.0, ABSENT, 1.0], [ABSENT, ABSENT, 3.0]])
    log = BidLog.from_matrix(m, ("z", "y", "x"), ("q", "p"))
    assert log.bidder_ids == ("x", "z") and log.auction_ids == ("q", "p")
    assert log.to_matrix().tolist() == [[1.0, 2.0], [3.0, ABSENT]]
    for bad in (np.array([[ABSENT, ABSENT]]), np.array([[-1.0, 1.0]]),
                np.array([[math.nan, 1.0]]), np.array([[math.inf, 1.0]])):
        with pytest.raises(ValueError):
            BidLog.from_matrix(bad, ("A", "B"))
    with pytest.raises(ValueError):
        BidLog.from_matrix(m, ("A", "A", "B"))
    with pytest.raises(ValueError):
        BidLog.from_matrix(m, ("A", "B", "C"), ("q", "q"))
    with pytest.raises(ValueError, match=r"bid matrix of shape \(2, 3\) for 2 auction ids "
                                         r"and 2 bidder ids"):
        BidLog.from_matrix(m, ("A", "B"))


def test_a_log_with_no_auctions_is_refused_where_it_is_made():
    for make in (lambda: BidLog([]), lambda: BidLog.from_matrix(np.empty((0, 2)), ["a", "b"])):
        with pytest.raises(ValueError, match="^log has no auctions$"):
            make()


@pytest.mark.parametrize("make, what", [
    (lambda: BidLog.from_matrix([[1.0]], [""], ["a"]), "bidder_id"),
    (lambda: BidLog.from_matrix([[1.0]], ["b"], [""]), "auction_id"),
    (lambda: BidLog.from_matrix([[1.0, ABSENT]], ["b", ""], ["a"]), "bidder_id"),  # dropped
    (lambda: BidLog([BidProfile("", {"b": 1.0})]), "auction_id"),
    (lambda: BidLog([BidProfile("a", {"": 1.0})]), "bidder_id")],
    ids=["bidder", "auction", "absent-bidder", "profile-auction", "profile-bidder"])
def test_an_empty_id_is_refused(make, what):
    """parse_log reads an empty id as a bad one, so no log holds one: write_log would
    write a file parse_log refuses."""
    with pytest.raises(ValueError, match=f"^empty {what}$"):
        make()


_IDS = st.text('abcxyz_019,"', min_size=1, max_size=4)
_PLAIN_IDS = st.text("ab09._ ", min_size=1, max_size=4)  # no byte a CSV writer quotes
# plain ids that prefix each other, differ only in their last byte, and pass 8 bytes
_SPAN_IDS = st.text("ab", min_size=1, max_size=11)


@st.composite
def micro_logs(draw, ids=_IDS):
    """Micro-quantized logs with absent bidders, unsorted auction and bidder ids,
    and an all-absent column that from_matrix drops."""
    bidder_ids = draw(st.lists(ids, min_size=1, max_size=5, unique=True))
    auction_ids = draw(st.lists(ids, min_size=1, max_size=12, unique=True))
    cell = st.one_of(st.just(None), st.integers(0, 10 ** 15), st.sampled_from([0, 10 ** 6]))
    rows = []
    for _ in auction_ids:
        row = draw(st.lists(cell, min_size=len(bidder_ids), max_size=len(bidder_ids)))
        row[draw(st.integers(0, len(bidder_ids) - 1))] = draw(st.integers(0, 10 ** 9))
        rows.append([ABSENT if c is None else c / 10 ** 6 for c in row] + [ABSENT])
    return BidLog.from_matrix(np.array(rows), bidder_ids + ["~gone"], auction_ids)


@settings(max_examples=60, deadline=None)
@given(micro_logs())
def test_log_round_trips(log):
    assert BidLog(log.profiles) == log
    assert BidLog.from_matrix(log.to_matrix(), log.bidder_ids, log.auction_ids) == log
    assert quantize_log(log) == log
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("csv", "jsonl"):
            path = f"{tmp}/log.{fmt}"
            write_log(log, path)
            assert parse_log(path) == log


def _outcome(parse):
    try:
        return parse()
    except LogParseError as e:
        return e.line_number, str(e)


# What a mutation inserts or writes over: CSV syntax, bid characters, a letter, a
# non-ASCII character, a byte that is not UTF-8 and a field over the csv limit.
_MUTANTS = [b",", b'"', b"\n", b"\r", b".", *(b"%d" % d for d in range(10)), b"a", b"-",
            "\u00e9".encode(), b"\xff", b"x" * (csv.field_size_limit() + 1)]


@st.composite
def mutated_csv(draw):
    """A written CSV log, its bytes, and the same bytes after 0-3 edits: an insert, a
    delete or an overwrite at a random offset, a copy of one line put before another,
    one line moved before another (so an auction's records may form two runs), or one
    field of a line replaced by a short string of bid and CSV characters."""
    log = draw(st.one_of(micro_logs(_PLAIN_IDS), micro_logs(_SPAN_IDS), micro_logs()))
    with tempfile.TemporaryDirectory() as tmp:
        write_log(log, f"{tmp}/log.csv")
        with open(f"{tmp}/log.csv", "rb") as fh:
            data = fh.read()
    edited = data
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["insert", "delete", "replace", "repeat", "move", "field"]))
        at = draw(st.integers(0, len(edited)))
        lines = edited.split(b"\n")
        if kind in ("repeat", "move"):
            i = draw(st.integers(1, len(lines) - 1))
            line = lines[i] if kind == "repeat" else lines.pop(i)
            lines.insert(draw(st.integers(1, len(lines))), line)
            edited = b"\n".join(lines)
        elif kind == "field":
            i = draw(st.integers(1, len(lines) - 1))
            fields = lines[i].split(b",")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(
                st.text("0123456789.,e+- ", max_size=10)).encode()
            lines[i] = b",".join(fields)
            edited = b"\n".join(lines)
        else:
            new = b"" if kind == "delete" else draw(st.sampled_from(_MUTANTS))
            edited = edited[:at] + new + edited[at + (kind != "insert"):]
    return log, data, edited


@settings(max_examples=300, deadline=None)
@given(mutated_csv(), st.sampled_from([1, 2, 3, 1 << 16]))
def test_columnar_parse_equals_the_per_record_parse(case, block_lines):
    """parse_log and the per-record parse both return == logs or both raise the same
    error at the same line, on logs that span many blocks (ids repeat across blocks and
    a repeated line lands in another block) and on every mutation of them."""
    log, data, edited = case
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(logio, "_BLOCK_LINES", block_lines)
        with open(f"{tmp}/log.csv", "wb") as fh:
            fh.write(edited)
        got = _outcome(lambda: parse_log(f"{tmp}/log.csv"))
        assert got == _outcome(lambda: logio._parse_records(edited, "csv"))
        if edited == data:
            assert got == log
            if b'"' not in data:  # no quoted id: every record is plain
                assert logio._columnar_csv(data) == log


_EDGE_BODIES = [b"a,A,1\nb,A,2\na,B,3.25\n", b"a,A,1\nb,A,2\na,A,3\n", b"a,A,1\na,A,1\n",
                 b"a,A,1.5.5\n", b"a,A,1.\n", b"a,A,.5\n", b"a,A,1.1234567\n", b"a,A,1e3\n",
                 b"a,A,1000000000.000001\n", b"a,A,1000000000\n", b"a,A,0001.250000\n",
                 b"a,A,\n", b"a,,1\n", b",A,1\n", b"a,A\n", b"a,A,1,\n", b"a,A,1\n\n",
                 b"a,A,1", b"a,A,1\r\n", b"a\r,A,1\n", b"a,A,1\x0b\n", b"a\x1c,A,1\n",
                 b"a,A, 1\n", b"a,A,+1\n", b"a,A,-1\n", b'a,"A",1\n', b"a.b,A.1,2\n",
                 b"a\tb,A,1\n", b"a\x00b,A,1\n", "a,A,\u0661\n".encode(), "\u00e9,A,1\n".encode(),
                 b"a,A,1\n\xff", b"a" * 131_073 + b",A,1\n", b"a,A," + b"0" * 131_073 + b"1\n",
                 b"a,A," + b"0" * 5000 + b"1\n",
                 # ids that prefix each other, differ only in their last byte, or pass 8 bytes
                 b"a,A,1\nab,A,2\nab,AB,3\na,AB,4\n", b"ab,AB,1\na,A,2\nab,A,3\n",
                 b"x1,Ay,1\nx2,Az,2\nx1,Az,3\nx2,Ay,4\n", b"bb,A,1\na,A,2\nccc,B,3\nbb,B,4\n",
                 b"auction-01,bidder-00000001,1\nauction-01,bidder-00000002,2\n"
                 b"auction-02,bidder-00000001,3\n",
                 b"abcdefghij,ABCDEFGHIJKLMNOPQ,1\nabcdefghij,ABCDEFGHIJKLMNOPR,2\n"
                 b"abcdefghik,ABCDEFGHIJKLMNOPQ,3\nabcdefghij,ABCDEFGHIJKLMNOPQ,4\n",
                 # an auction in two separate runs; runs across a block boundary
                 b"a,A,1\na,B,2\nb,A,3\na,C,4\n", b"a,A,1\na,B,2\na,C,3\nb,A,4\nb,B,5\n",
                 b"a,A,1\na,B,2\na,A,3\n",
                 # the digit pass: integer parts of 10 and 11 bytes, the largest bids under
                 # and at the cap, the least bid, a zero fraction, and bids of unlike
                 # lengths side by side in a block
                 b"a,A,0000000000.5\nb,A,10\n", b"a,A,00000000001\nb,A,1\n",
                 b"a,A,999999999.999999\nb,A,0.000001\n", b"a,A,1000000000.000000\nb,A,7.25\n",
                 b"a,A,0.000001\nb,A,1.000000\nc,A,10\nd,A,999999999.999999\n",
                 # a last record without a newline, with 1 and 6 fraction digits
                 b"a,A,1\nb,A,2.5", b"a,A,1\nb,A,2.123456"]


@pytest.mark.parametrize("block_lines", [1, 2])
@pytest.mark.parametrize("body", _EDGE_BODIES, ids=range(len(_EDGE_BODIES)))
def test_columnar_parse_equals_the_per_record_parse_on_edge_cases(tmp_path, monkeypatch,
                                                                 body, block_lines):
    monkeypatch.setattr(logio, "_BLOCK_LINES", block_lines)
    for data in (LOG_HEADER.encode() + b"\n" + body, LOG_HEADER.encode() + body, body):
        (tmp_path / "log.csv").write_bytes(data)
        assert (_outcome(lambda: parse_log(str(tmp_path / "log.csv")))
                == _outcome(lambda: logio._parse_records(data, "csv")))


def test_plain_csv_takes_the_columnar_path(tmp_path, monkeypatch):
    """Also with ids of 1, 7, 8, 9 and 17 bytes as the first auction and bidder after the
    header and the last ones in the file, among ids of 2 to 4 bytes: one-word keys of
    each width up to 8 and wider keys, read at both ends of the buffer; and without the
    file's last newline."""
    rng = np.random.default_rng(5)
    bids = np.where(rng.random((300, 4)) < 0.3, ABSENT, rng.integers(0, 10 ** 9, (300, 4)) / 1e6)
    bids[:, 0] = 2.5
    logs = [BidLog.from_matrix(bids, ["b0", "b1", "b2", "b3"])]
    bids[-1, -1] = 1e9
    for width in (1, 7, 8, 9, 17):  # bidder ids sort as listed: "A" < "b" < "z"
        auction_ids = ["x" * width, *(f"a{i}" for i in range(1, 299)), "y" * width]
        logs.append(BidLog.from_matrix(bids, ["A" * width, "b1", "b2", "z" * width],
                                       auction_ids))
    paths = [tmp_path / f"log{i}.csv" for i in range(len(logs))]
    for log, path in zip(logs, paths):
        write_log(log, str(path))
    for log, path in zip(logs[1:], paths[1:]):
        lines = path.read_bytes().split(b"\n")
        first, last = log.auction_ids[0], log.auction_ids[-1]
        assert lines[1].startswith(f"{first},{log.bidder_ids[0]},".encode())
        assert lines[-2] == f"{last},{log.bidder_ids[-1]},1000000000".encode()
    logs.append(logs[-1])
    paths.append(tmp_path / "no_last_newline.csv")
    paths[-1].write_bytes(paths[-2].read_bytes()[:-1])

    def refuse(data, fmt):
        raise AssertionError("the per-record parse ran")

    monkeypatch.setattr(logio, "_parse_records", refuse)
    monkeypatch.setattr(logio, "_BLOCK_LINES", 64)
    for log, path in zip(logs, paths):
        assert parse_log(str(path)) == log


_STEM = "abcdefghijklmnopqrstuvwx"
# plain ids of 1 to 24 bytes: a prefix of _STEM with at most one byte changed, often one
# of bytes 9 to 16, so that ids of one width differ only in one of their 1 to 3 words
_WIDE_IDS = st.builds(lambda width, at, byte: (_STEM[:at] + byte + _STEM[at + 1:])[:width],
                      st.integers(1, 24), st.one_of(st.integers(8, 15), st.integers(0, 23)),
                      st.sampled_from("AB.x"))


@settings(max_examples=150, deadline=None)
@given(micro_logs(_WIDE_IDS), st.sampled_from([1, 3, 1 << 16]), st.booleans())
def test_columnar_parse_keys_ids_of_every_width(log, block_lines, last_newline):
    """Ids of widths 1 to 24 in one file, the first and last records' among them, so keys
    of 1, 2 and 3 words are gathered at both ends of the buffer: the columnar parse runs
    and returns what the per-record parse returns on the same bytes."""
    records = logio._parse_records
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        write_log(log, f"{tmp}/log.csv")
        with open(f"{tmp}/log.csv", "rb") as fh:
            data = fh.read()
        if not last_newline:
            data = data[:-1]
            with open(f"{tmp}/log.csv", "wb") as fh:
                fh.write(data)

        def refuse(data, fmt):
            raise AssertionError("the per-record parse ran")

        mp.setattr(logio, "_parse_records", refuse)
        mp.setattr(logio, "_BLOCK_LINES", block_lines)
        assert parse_log(f"{tmp}/log.csv") == records(data, "csv") == log


# ids of 12 or 20 bytes that differ from each other in one byte before their last 8
_EARLY_DIFFERING_IDS = st.builds(
    lambda width, at, byte: (_STEM[:at] + byte + _STEM[at + 1:])[:width],
    st.sampled_from([12, 20]), st.integers(0, 11), st.sampled_from("AB.x"))


@st.composite
def run_ordered_csv(draw):
    """A written CSV log of wide and short ids, its record lines reordered: each auction's
    records cut into 1 to 3 runs, and the runs of all auctions shuffled, so that runs of
    other auctions come between them and an id's first sighting may be in any block."""
    ids = st.one_of(_WIDE_IDS, _EARLY_DIFFERING_IDS, st.text("ab", min_size=1, max_size=3))
    log = draw(micro_logs(ids))
    with tempfile.TemporaryDirectory() as tmp:
        write_log(log, f"{tmp}/log.csv")
        with open(f"{tmp}/log.csv", "rb") as fh:
            header, *lines = fh.read().split(b"\n")[:-1]
    runs = []
    for count in (log.to_matrix() != ABSENT).sum(axis=1).tolist():  # each auction's records
        records, lines = lines[:count], lines[count:]
        cuts = draw(st.sets(st.integers(1, count - 1), max_size=2)) if count > 1 else set()
        bounds = [0, *sorted(cuts), count]
        runs += [records[a:b] for a, b in zip(bounds, bounds[1:])]
    runs = draw(st.permutations(runs))
    return b"\n".join([header, *(line for run in runs for line in run)]) + b"\n"


@settings(max_examples=150, deadline=None)
@given(run_ordered_csv(), st.sampled_from([1, 2, 3, 7, 1 << 16]))
def test_columnar_parse_numbers_runs_and_first_sightings_across_blocks(data, block_lines):
    """Ids are numbered a block at a time against running tables, only run heads keyed:
    with an auction's records in several runs among other auctions' runs, and runs that
    cross block edges, the columnar parse still returns the per-record parse's log."""
    records = logio._parse_records
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        with open(f"{tmp}/log.csv", "wb") as fh:
            fh.write(data)

        def refuse(data, fmt):
            raise AssertionError("the per-record parse ran")

        mp.setattr(logio, "_parse_records", refuse)
        mp.setattr(logio, "_BLOCK_LINES", block_lines)
        assert parse_log(f"{tmp}/log.csv") == records(data, "csv")


def _uuid_log(auctions: int) -> BidLog:
    """A 5-bidder log of seeded bids whose auction ids are 36-byte UUID strings."""
    rng = np.random.default_rng(11)
    bids = np.where(rng.random((auctions, 5)) < 0.2, ABSENT,
                    rng.integers(0, 10 ** 7, (auctions, 5)) / 1e6)
    bids[:, 0] = 1.25
    hexes = rng.integers(0, 16, (auctions, 32)).astype(np.uint8)
    ids = ["-".join(h[a:b] for a, b in ((0, 8), (8, 12), (12, 16), (16, 20), (20, 32)))
           for h in ("".join("0123456789abcdef"[d] for d in row) for row in hexes.tolist())]
    return BidLog.from_matrix(bids, [f"b{j}" for j in range(5)], ids)


def test_the_columnar_parse_keys_one_block_at_a_time(tmp_path, monkeypatch):
    """No key array spans more than one block: on a 20k-record log read in blocks of 4096
    lines, each call that keys ids gets the spans of one block, once per id column."""
    log = BidLog.from_matrix(np.full((4000, 5), 2.5), [f"b{j}" for j in range(5)])
    write_log(log, str(tmp_path / "log.csv"))
    number, spans = logio._number, []

    def recorded(data, starts, stops, *tables):
        spans.append(len(stops))
        return number(data, starts, stops, *tables)

    monkeypatch.setattr(logio, "_number", recorded)
    monkeypatch.setattr(logio, "_BLOCK_LINES", 4096)
    assert parse_log(str(tmp_path / "log.csv")) == log
    assert spans == [4096] * 8 + [20_000 - 4 * 4096] * 2


def test_the_columnar_parse_holds_no_whole_file_key_arrays(tmp_path, monkeypatch):
    """The parse's traced peak, the file's bytes included, on a 20k x 5 log with UUID
    auction ids read in blocks of 4096 lines: 3.2 times the file's size. Whole-file key,
    order and index arrays took it to 4.2 times."""
    import tracemalloc

    log = _uuid_log(20_000)
    path = tmp_path / "log.csv"
    write_log(log, str(path))
    monkeypatch.setattr(logio, "_BLOCK_LINES", 4096)
    tracemalloc.start()
    try:
        assert parse_log(str(path)) == log
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * path.stat().st_size


_MICROS = st.one_of(st.integers(0, 10 ** 15), st.sampled_from([0, 1, 10 ** 6, 10 ** 15]),
                    st.integers(0, 10 ** 14 - 1).map(lambda k: 10 * k + 5))


@settings(max_examples=100, deadline=None)
@given(st.lists(_MICROS, min_size=1, max_size=40), st.sampled_from([1, 7, 1 << 16]))
def test_written_bids_are_format_micro_tokens(micros, block_lines):
    values = [m / 10 ** 6 for m in micros]
    log = BidLog.from_matrix(np.array(values)[:, None], ["A"])
    want = [format_micro(v) for v in values]
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(logio, "_BLOCK_LINES", block_lines)
        write_log(log, f"{tmp}/log.csv")
        write_log(log, f"{tmp}/log.jsonl")
        with open(f"{tmp}/log.csv", encoding="utf-8") as fh:
            assert [line.split(",")[2] for line in fh.read().splitlines()[1:]] == want
        with open(f"{tmp}/log.jsonl", encoding="utf-8") as fh:
            assert [json.loads(line)["bid"] for line in fh] == want


@pytest.mark.parametrize("row", [[1.5, 1 / 3, 2e9], [1.5, 1e9 + 1e-6, 1 / 3],
                                 [0.1 + 0.2, 1.0, 1.0]])
def test_write_log_refuses_the_first_non_micro_bid(tmp_path, row):
    bad = next(v for v in row if not is_micro(v))
    with pytest.raises(ValueError) as want:
        format_micro(bad)
    log = BidLog.from_matrix(np.array([row, [1.0] * 3]), ["A", "B", "C"])
    for fmt in ("csv", "jsonl"):
        with pytest.raises(ValueError) as e:
            write_log(log, str(tmp_path / f"log.{fmt}"))
        assert str(e.value) == str(want.value)
        assert not (tmp_path / f"log.{fmt}").exists()


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_write_log_refuses_a_log_with_no_auctions(tmp_path, fmt):
    """parse_log refuses both a header-only CSV and an empty JSONL file."""
    path = tmp_path / f"log.{fmt}"
    with pytest.raises(ValueError, match="no auctions"):
        write_log(BidLog([]), str(path))
    assert not path.exists()


def _per_record_bytes(log, fmt):
    """The oracle writer: each record formatted on its own, from format_micro tokens, as
    CSV lines or as the json.dumps of the record's dict."""
    def field(i):
        return '"' + i.replace('"', '""') + '"' if "," in i or '"' in i else i

    lines = [LOG_HEADER] if fmt == "csv" else []
    for aid, row in zip(log.auction_ids, log.to_matrix().tolist()):
        for bidder, value in zip(log.bidder_ids, row):
            if value == ABSENT:
                continue
            bid = format_micro(value)
            lines.append(",".join([field(aid), field(bidder), bid]) if fmt == "csv" else
                         json.dumps({"auction_id": aid, "bidder_id": bidder, "bid": bid}))
    return ("\n".join(lines) + "\n").encode("utf-8")


# Ids of unequal widths, from one byte to past 8 bytes, with multi-byte UTF-8, NUL, commas,
# quotes and a backslash. None is empty: BidLog refuses an empty id.
_WRITER_IDS = st.text(st.sampled_from(["a", "b", ",", '"', "\\", "\x00", " ", "\t", "\u00e9",
                                       "\u20ac", "\U0001d11e"]), min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(micro_logs(_WRITER_IDS), st.sampled_from([1, 2, 3, 1 << 16]),
       st.sampled_from([1, 64, logio._BLOCK_BYTES]))
def test_write_log_writes_the_per_record_bytes(log, block_lines, block_bytes):
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(logio, "_BLOCK_LINES", block_lines)
        mp.setattr(logio, "_BLOCK_BYTES", block_bytes)
        for fmt in ("csv", "jsonl"):
            write_log(log, f"{tmp}/log.{fmt}")
            with open(f"{tmp}/log.{fmt}", "rb") as fh:
                assert fh.read() == _per_record_bytes(log, fmt)


def test_a_long_id_does_not_widen_every_block(tmp_path, monkeypatch):
    """A block's byte matrix is as wide as its widest token, so write_log halves a block
    with a long id until it fits _BLOCK_BYTES: one 4 kB id among 400 records costs
    4 kB rows in a few small blocks, not a 400-row matrix of 4 kB rows."""
    import tracemalloc

    monkeypatch.setattr(logio, "_BLOCK_BYTES", 1 << 14)
    aids = [f"a{i}" for i in range(400)]
    aids[200] = "x" * 4096
    log = BidLog.from_matrix(np.full((400, 1), 1.5), ["A"], aids)
    path = tmp_path / "log.csv"
    tracemalloc.start()
    try:
        write_log(log, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == _per_record_bytes(log, "csv")
    assert peak < 400 * 4096 // 4
