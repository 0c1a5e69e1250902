"""BidLog structure plus strict CSV/JSONL serialization."""

import json
import math
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reservelab.errors import LogParseError
from reservelab.logio import (format_micro, is_micro, parse_bid_token, parse_log,
                              quantize_log, quantize_value, read_reserves,
                              write_log, write_reserves)
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


def test_quantize():
    assert quantize_value(1 / 3) == 0.333333
    assert quantize_value(2.0) == 2.0
    with pytest.raises(ValueError):
        quantize_value(-1.0)
    with pytest.raises(ValueError):
        quantize_value(math.inf)
    q = quantize_log(BidLog([BidProfile("a", {"A": 1 / 3})]))
    assert q.profiles[0].bids["A"] == 0.333333


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
                                   " 5", "5.", ".5", "inf", "0x5", "1000000001"])
def test_bad_bid_tokens_rejected_with_line_number(tmp_path, token):
    path = tmp_path / "log.csv"
    path.write_text(f"auction_id,bidder_id,bid\na,A,1\nb,A,\"{token}\"\n")
    with pytest.raises(LogParseError) as e:
        parse_log(str(path))
    assert e.value.line_number == 3


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


_IDS = st.text('abcxyz_019,"', min_size=1, max_size=4)


@st.composite
def micro_logs(draw):
    """Micro-quantized logs with absent bidders, unsorted auction and bidder ids,
    and an all-absent column that from_matrix drops."""
    bidder_ids = draw(st.lists(_IDS, min_size=1, max_size=5, unique=True))
    auction_ids = draw(st.lists(_IDS, min_size=1, max_size=12, unique=True))
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
