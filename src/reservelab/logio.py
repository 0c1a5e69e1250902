"""Bid-log and reserve-file serialization, plus revenue/welfare lift reports.

Bids travel as decimal strings with at most 6 fractional digits (micros).
Parsing is strict: anything that is not a plain non-negative micro decimal is
rejected with its 1-based line number. Values are capped at 1e9 (1e15 micros)
so that micros -> float -> micros round trips are exact in both directions.

A CSV log is parsed column-wise first, in one gate pass over each block of lines:
byte-level numpy tests find and check each line's two commas, its dot and its end,
and an int64 Horner pass over the bid's digit columns gives its integer micros.
Each id column's ids are numbered block by block as the blocks are gated, against one
running table per column: per width, the sorted keys of the ids met so far and their
numbers. In a block, a span equal to the span before it takes its number, so only run
heads are keyed, sorted and looked up. The matrix rows and columns are then put in
first-seen order, by each id's first line. Only the distinct ids are decoded, and no
key array spans more than one block. A file with any record
outside that plain form (quotes, non-ASCII, a bad bid, a duplicate pair, ...) is
parsed again from the top by the per-record path, a `csv.reader` over its lines, which
alone raises `LogParseError`; JSONL logs and reserve files take that path only.

write_log checks every bid's integer micros in one array pass. It then fills each
block of records into one byte matrix, a row per record: the format's literal
pieces, the id tokens' bytes from per-id tables, and the bid's digits, with a mask
of the bytes each record keeps (no leading or trailing zeros, no token padding),
and writes the kept bytes in one step.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import LogParseError
from .logs import BidLog
from .mechanics import Mechanism, ReserveVector
from .optimize import empirical_totals, monopoly_reserves, optimal_lazy
from .vectorized import ABSENT

_BID_RE = re.compile(r"([0-9]+)(?:\.([0-9]{1,6}))?")  # with fullmatch
_LINE_BREAK_RE = re.compile("[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")  # where str.splitlines splits
MAX_MICROS = 10 ** 15  # 1e9 units; beyond this float round trips stop being exact
LOG_HEADER = "auction_id,bidder_id,bid"
RESERVE_HEADER = "bidder_id,reserve"
LOG_FORMATS = ("csv", "jsonl")


def parse_bid_token(token: str, line_number: int = 0) -> float:
    """Decimal string -> float, micro precision, non-negative, bounded."""
    m = _BID_RE.fullmatch(token)
    if m is None:
        raise LogParseError(f"bad bid {token!r}: want a non-negative decimal with "
                            f"at most 6 fractional digits", line_number)
    units = m.group(1).lstrip("0")  # leading zeros would count against int()'s digit limit
    micros = (int(units or "0") * 10 ** 6 + int((m.group(2) or "").ljust(6, "0"))
              if len(units) <= 10 else MAX_MICROS + 1)
    if micros > MAX_MICROS:
        raise LogParseError(f"bid {token!r} exceeds the 1e9 cap", line_number)
    return micros / 10 ** 6


def is_micro(x: float) -> bool:
    """True when x is exactly representable as a bounded micro decimal."""
    if not (isinstance(x, float) or isinstance(x, int)) or isinstance(x, bool):
        return False
    if math.isnan(x) or math.isinf(x) or x < 0:
        return False
    scaled = x * 10 ** 6
    if scaled == math.inf:  # the product overflows: far over the cap
        return False
    micros = round(scaled)
    return micros <= MAX_MICROS and micros / 10 ** 6 == x


def format_micro(x: float) -> str:
    """Canonical decimal string for a micro-representable value."""
    if not is_micro(x):
        raise ValueError(f"{x!r} is not representable at micro precision")
    q, r = divmod(round(x * 10 ** 6), 10 ** 6)
    return str(q) if r == 0 else f"{q}.{r:06d}".rstrip("0")


def quantize_log(log: BidLog) -> BidLog:
    """Copy of the log with every bid rounded to micro precision."""
    bids = log.to_matrix()
    with np.errstate(over="ignore"):  # a product that overflows is inf, over the cap
        micros = np.rint(bids * 10 ** 6)  # half to even, as round(); -inf stays -inf
    if (micros > MAX_MICROS).any():
        raise ValueError(f"{float(bids[micros > MAX_MICROS][0])!r} exceeds the 1e9 cap")
    return BidLog.from_matrix(micros / 10 ** 6, log.bidder_ids, log.auction_ids)


def _infer_format(path: str, format: Optional[str]) -> str:
    fmt = (format.lower() if format is not None
           else next((f for f in LOG_FORMATS if path.endswith("." + f)), None))
    if fmt is None:
        raise ValueError(f"cannot infer log format from {path!r}; pass format='csv' or 'jsonl'")
    if fmt not in LOG_FORMATS:
        raise ValueError(f"unknown log format {fmt!r}")
    return fmt


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _lines(data: bytes) -> list[str]:
    """The file's UTF-8 text split as str.splitlines splits it; a byte that is not
    UTF-8 is an error on its line (counted in newlines)."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise LogParseError(f"invalid UTF-8 byte {data[e.start]:#04x} ({e.reason})",
                            data.count(b"\n", 0, e.start) + 1) from None
    return text.splitlines()


def _csv_rows(lines: list[str], header: str, kind: str):
    """(line number, fields) of each data row under the exact header. A record must
    end on its own line: a quote cannot carry a field onto the next one."""
    if not lines:
        raise LogParseError(f"empty {kind} file")
    if lines[0] != header:
        raise LogParseError(f"bad header {lines[0]!r}: want {header!r}", 1)
    n_fields = header.count(",") + 1
    reader = csv.reader(lines[1:])
    try:
        for i, row in enumerate(reader, start=2):
            if reader.line_num != i - 1 or len(row) != n_fields:
                raise LogParseError(f"malformed row (want {n_fields} fields): {lines[i - 1]!r}", i)
            yield i, row
    except csv.Error as e:  # e.g. a field over csv.field_size_limit()
        raise LogParseError(f"malformed row: {e}", reader.line_num + 1) from None


def _records_from_csv(lines: list[str]):
    for i, (aid, bidder, token) in _csv_rows(lines, LOG_HEADER, "log"):
        yield i, aid, bidder, parse_bid_token(token, i)


def _records_from_jsonl(lines: list[str]):
    if not lines:
        raise LogParseError("empty log file")
    for i, line in enumerate(lines, start=1):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise LogParseError(f"invalid JSON: {e.msg}", i) from None
        if not isinstance(obj, dict) or set(obj) != {"auction_id", "bidder_id", "bid"}:
            raise LogParseError("object must have exactly the keys "
                                "auction_id, bidder_id, bid", i)
        aid, bidder, bid = obj["auction_id"], obj["bidder_id"], obj["bid"]
        if isinstance(bid, str):
            value = parse_bid_token(bid, i)
        elif isinstance(bid, int) and not isinstance(bid, bool):
            if bid < 0 or bid * 10 ** 6 > MAX_MICROS:
                raise LogParseError(f"bid {bid} out of range [0, 1e9]", i)
            value = float(bid)
        else:
            raise LogParseError(f"bid must be a decimal string or integer, got {bid!r}", i)
        yield i, aid, bidder, value


def parse_log(path: str, format: Optional[str] = None) -> BidLog:
    """Read a CSV or JSONL bid log. Auctions keep first-seen order."""
    fmt = _infer_format(path, format)
    data = _read_bytes(path)
    log = _columnar_csv(data) if fmt == "csv" else None
    return log if log is not None else _parse_records(data, fmt)


def _parse_records(data: bytes, fmt: str) -> BidLog:
    """The per-record parse: every check in file order, raising at the first failure."""
    lines = _lines(data)
    records = _records_from_csv(lines) if fmt == "csv" else _records_from_jsonl(lines)
    rows, cols = {}, {}  # auction / bidder id -> matrix row / column, in first-seen order
    cells: dict[int, float] = {}  # row << 32 | column -> bid
    for i, aid, bidder, value in records:
        if not isinstance(aid, str) or not aid:
            raise LogParseError(f"bad auction_id {aid!r}", i)
        if not isinstance(bidder, str) or not bidder:
            raise LogParseError(f"bad bidder_id {bidder!r}", i)
        key = rows.setdefault(aid, len(rows)) << 32 | cols.setdefault(bidder, len(cols))
        if key in cells:
            raise LogParseError(f"duplicate (auction_id, bidder_id) = ({aid!r}, {bidder!r})", i)
        cells[key] = value
    if not cells:
        raise LogParseError("log has a header but no data rows")
    keys = np.fromiter(cells, dtype=np.int64, count=len(cells))
    bids = np.full((len(rows), len(cols)), ABSENT)
    bids[keys >> 32, keys & 0xFFFFFFFF] = list(cells.values())
    return BidLog.from_matrix(bids, list(cols), list(rows))


_BLOCK_LINES = 1 << 16  # lines per block of the CSV gate and of write_log's byte matrix
# Bytes a plain CSV record may hold: printable ASCII and tab. So no quote, no byte
# str.splitlines breaks a line at other than the newline, nothing that is not ASCII,
# and no NUL, which the `S` decode of a key's NUL-padded words would strip.
_PLAIN_BYTE = np.zeros(256, dtype=bool)
_PLAIN_BYTE[[ord("\t"), ord("\n"), *range(0x20, 0x7F)]] = True
_PLAIN_BYTE[ord('"')] = False
# Integer digits a bid may have on the columnar route. A longer integer part is over the
# cap unless it has leading zeros, and the per-record parse reads both cases.
_INTEGER_PLACES = 10


def _digits(block: np.ndarray, at: np.ndarray, places: int, keep) -> np.ndarray:
    """Per line, the integer whose `places` decimal digits are the bytes block[at + k],
    each read as 0 where keep(k) is False: an int64 Horner pass over byte columns."""
    value = np.zeros(len(at), dtype=np.int64)
    for k in range(places):
        digit = block.take(at + k, mode="clip") - ord("0")  # any byte where not kept
        value *= 10
        value += digit * keep(k)
    return value


def _plain_block(block: np.ndarray, ends: np.ndarray):
    """(first commas, second commas, bid micros) of the lines of `block` (bytes; `ends`
    holds each line's newline offset, or the block's length for a file's last line that
    has no newline) when every line is `id,id,bid` with non-empty ids of plain bytes and
    a bid of at most 1e9 matching _BID_RE with an integer part of at most
    _INTEGER_PLACES bytes, and no line, so no field, is longer than
    csv.field_size_limit(); else None."""
    marks = np.flatnonzero(block - ord("0") >= 10)  # every byte but a digit (uint8 wraps)
    marked = block[marks]
    if not np.take(_PLAIN_BYTE, marked).all():  # a digit is plain
        return None
    commas = marks.compress(marked == ord(","))
    if len(commas) != 2 * len(ends):
        return None
    # Commas are sorted, so when each pair falls inside its own line, every line has two.
    starts = np.concatenate(([0], ends[:-1] + 1))
    first, second = commas[0::2], commas[1::2]
    if not ((starts < first) & (first + 1 < second) & (second + 1 < ends)
            & (ends - starts <= csv.field_size_limit())).all():
        return None
    at = np.flatnonzero(marked == ord("\n"))  # each line end's place in marks
    if len(at) < len(ends):  # the file's last line, with no newline, ends past every mark
        at = np.append(at, len(marks))
    last = marks[at - 1]  # the second comma when the bid is all digits, else its one dot
    dotted = ((block[last] == ord(".")) & (marks[at - 2] == second) & (second + 1 < last)
              & (last + 1 < ends) & (ends <= last + 7))
    if not ((last == second) | dotted).all():
        return None
    point = np.where(dotted, last, ends)  # where the integer part stops
    units, fraction = point - second - 1, np.where(dotted, ends - last - 1, 0)
    places = int(units.max())
    if places > _INTEGER_PLACES:
        return None
    micros = (_digits(block, point - places, places, lambda k: k >= places - units) * 10 ** 6
              + _digits(block, last + 1, 6, lambda k: k < fraction))
    return (first, second, micros) if micros.max() <= MAX_MICROS else None


def _number(data: bytes, starts: np.ndarray, stops: np.ndarray, tables: dict, seen: list,
            offset: int) -> np.ndarray:
    """Each span data[starts:stops]'s id, numbered in the order ids are met: block, then
    width, then key. `tables` maps a width to the sorted keys of the ids of that width met
    so far and their numbers; `seen` holds, in number order, their first lines (`offset`
    plus the span's index) and their bytes. Both gain the spans' new ids. A span of at
    most 8 bytes is keyed by the big-endian word that ends where it ends, shifted past the
    bytes before it, a wider one by its bytes as one fixed-width S string: either is exact
    on plain bytes, which hold no NUL. Only run heads are keyed and looked up: a span
    equal to the one before it (compared on all its bytes) is the same id."""
    number = np.empty(len(stops), dtype=np.int32)
    words = np.ndarray((len(data) - 7,), dtype=">u8", buffer=data, strides=(1,))
    widths = stops - starts
    for width in np.flatnonzero(np.bincount(widths)).tolist():
        group = np.flatnonzero(widths == width)
        spans = (words[stops[group] - 8] << np.uint64(64 - 8 * width) if width <= 8 else
                 np.ndarray((len(data) - width + 1,), dtype=f"S{width}", buffer=data,
                            strides=(1,))[starts[group]])
        head = np.append(True, (np.diff(group) > 1) | (spans[1:] != spans[:-1]))
        keys, heads = spans[head], group[head]
        table, numbers = tables.get(width, (keys[:0], number[:0]))
        at = np.searchsorted(table, keys)
        new = at == len(table)
        new[~new] = table[at[~new]] != keys[~new]
        ids = np.append(numbers, 0)[at]  # each head's number; a new key's is set below
        added, first, inverse = np.unique(keys[new], return_index=True, return_inverse=True)
        fresh = np.arange(len(added), dtype=np.int32) + sum(map(len, seen[1::2]))
        ids[new] = fresh[inverse]
        seen += heads[new][first] + offset, (added if width > 8 else
                                             added.astype(">u8").view("S8"))
        at = at[new][first]
        tables[width] = np.insert(table, at, added), np.insert(numbers, at, fresh)
        number[group] = np.repeat(ids, np.diff(np.flatnonzero(head), append=len(group)))
    return number


def _renumber(seen: list, column: np.ndarray) -> bytes:
    """Renumbers `column` in place, a block at a time, from the order its ids were met in
    (see _number) to first-seen order, by their first lines. Returns the ids in that order,
    newline-joined; a short id's NUL padding is stripped."""
    order = np.argsort(np.concatenate(seen[0::2]))
    rank = np.argsort(order).astype(np.int32)
    for i in range(0, len(column), _BLOCK_LINES):
        column[i:i + _BLOCK_LINES] = rank[column[i:i + _BLOCK_LINES]]
    return b"\n".join(np.concatenate(seen[1::2], dtype=object)[order].tolist())


def _columnar_csv(data: bytes) -> Optional[BidLog]:
    """The log of a CSV file whose records are all plain (see _plain_block) and hold no
    repeated (auction, bidder) pair, else None. On such a file the per-record parse
    returns the same log: each bid is its integer micros / 10**6, both exact integers,
    so the quotient is correctly rounded, the same double as parse_bid_token's. Each
    block's ids are numbered as it is gated (_number), against running tables that carry
    them across blocks; then rows and columns are put in first-seen order (_renumber).
    Whole-file arrays are only the file's bytes, its line ends, and each record's int32
    row and column and int64 micros; those are freed before the ids are decoded."""
    if not data.startswith(LOG_HEADER.encode() + b"\n"):
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))  # ends[0] closes the header
    if not data.endswith(b"\n"):  # the last line ends at the file's end
        ends = np.append(ends, len(raw))
    if len(ends) == 1:
        return None
    rows, cols = (np.empty(len(ends) - 1, dtype=np.int32) for _ in range(2))
    micros = np.empty(len(ends) - 1, dtype=np.int64)
    auctions, bidders = ({}, []), ({}, [])  # per id column: its tables and first sightings
    for i in range(1, len(ends), _BLOCK_LINES):
        start, block_ends = ends[i - 1] + 1, ends[i:i + _BLOCK_LINES]
        block = _plain_block(raw[start:block_ends[-1] + 1], block_ends - start)
        if block is None:
            return None
        lines = slice(i - 1, i - 1 + len(block_ends))
        first, second, micros[lines] = block[0] + start, block[1] + start, block[2]
        rows[lines] = _number(data, ends[lines] + 1, first, *auctions, i - 1)
        cols[lines] = _number(data, first + 1, second, *bidders, i - 1)
    names = _renumber(bidders[1], cols), _renumber(auctions[1], rows)
    bids = np.full((rows.max() + 1, cols.max() + 1), ABSENT)
    bids[rows, cols] = micros / 10 ** 6
    if np.count_nonzero(bids != ABSENT) != len(micros):  # a pair was written twice
        return None
    del ends, rows, cols, micros  # before the ids are decoded
    return BidLog.from_matrix(bids, *(text.decode().split("\n") for text in names))


def _id_tokens(ids: Iterable[str], fmt: str) -> list[str]:
    """Each id as written in a record, encoded once: a JSON string for JSONL; for CSV
    the id itself, quoted when it holds a comma or a quote. A CSV record must fit on
    one line, so a CSV id with a line break is refused."""
    ids = list(ids)
    if fmt == "jsonl":
        return [json.dumps(i) for i in ids]
    if _LINE_BREAK_RE.search("".join(ids)):
        bad = next(i for i in ids if _LINE_BREAK_RE.search(i))
        raise ValueError(f"id {bad!r} has a line break: a CSV record must fit on one line")
    return ['"' + i.replace('"', '""') + '"' if "," in i or '"' in i else i for i in ids]


def _micros(values: np.ndarray) -> np.ndarray:
    """Integer micros of each value, is_micro tested on the whole array; raises
    format_micro's error for the first value that fails it. Only the cap and exactness are
    tested: the values are a BidLog's present bids, each finite and >= 0."""
    with np.errstate(over="ignore"):  # a product that overflows is inf, over the cap
        micros = np.rint(values * 10 ** 6)  # half to even, as round()
    ok = (micros <= MAX_MICROS) & (micros / 10 ** 6 == values)
    if not ok.all():
        format_micro(float(values[np.argmin(ok)]))
    return micros.astype(np.int64)


# A record is these four literal pieces around its auction token, bidder token and bid.
_RECORD = {"csv": (b"", b",", b",", b"\n"),
           "jsonl": (b'{"auction_id": ', b', "bidder_id": ', b', "bid": "', b'"}\n')}
_BLOCK_BYTES = 1 << 23  # write_log halves a block while rows x widest tokens is larger


def _token_table(tokens: list[str]):
    """The tokens' UTF-8 bytes one after another, then as many zero bytes as the longest
    takes, and each token's offset and length in them. No token is empty (BidLog holds no
    empty id) or holds a newline: a CSV id with a line break is refused, JSON escapes one."""
    data = "\n".join(tokens).encode()
    raw = np.frombuffer(data, dtype=np.uint8)
    stops = np.append(np.flatnonzero(raw == ord("\n")), len(raw))
    starts = np.concatenate(([0], stops[:-1] + 1))
    lengths = stops - starts
    padded = data + bytes(int(lengths.max()))
    return np.frombuffer(padded, dtype=np.uint8), starts, lengths


def _token_column(table, at: np.ndarray):
    """(bytes, keep) of the tokens `at`, one row each, as wide as the longest. A mask, not
    NUL padding, marks each token's bytes: a token may hold a NUL."""
    raw, starts, lengths = table
    width = int(lengths[at].max())
    return sliding_window_view(raw, width)[starts[at]], np.arange(width) < lengths[at, None]


def _bid_column(micros: np.ndarray):
    """(bytes, keep) of each bid as format_micro writes it: its integer digits from the
    first that is not a leading zero, then, unless the fraction is 0, the dot and the
    fraction digits up to the last that is not a trailing zero."""
    places = max(7, len(str(int(micros.max()))))  # digits of the largest bid in micros
    digits = np.empty((len(micros), places + 1), dtype=np.uint8)
    keep = np.ones(digits.shape, dtype=bool)
    digits[:, places - 6], keep[:, places - 6] = ord("."), micros % 10 ** 6 != 0
    for j, k in enumerate(range(places - 1, -1, -1)):
        at = j + (k < 6)  # past the dot
        digits[:, at] = micros // 10 ** k % 10 + ord("0")
        if k > 6:  # a leading zero of the integer part
            keep[:, at] = micros >= 10 ** k
        elif k < 6:  # a trailing zero of the fraction
            keep[:, at] = micros % 10 ** (k + 1) != 0
    return digits, keep


def _record_bytes(pieces: tuple[bytes, ...], columns: list) -> bytes:
    """The records of a block: each a row of a byte matrix, the literal `pieces` set
    around the (bytes, keep) `columns`, then compacted to the bytes its row keeps."""
    parts = [(np.frombuffer(pieces[0], dtype=np.uint8), True)]
    for piece, column in zip(pieces[1:], columns):
        parts += [column, (np.frombuffer(piece, dtype=np.uint8), True)]
    rows = len(columns[0][0])
    matrix = np.concatenate([np.broadcast_to(v, (rows, v.shape[-1])) for v, _ in parts], axis=1)
    keep = np.concatenate([np.broadcast_to(k, (rows, v.shape[-1])) for v, k in parts], axis=1)
    return matrix[keep].tobytes()


def write_log(log: BidLog, path: str, format: Optional[str] = None) -> None:
    """Write a bid log, one row per present bid in auction then bidder order. Raises on bids
    that are not micro decimals, before it opens the file; BidLog already refuses the
    empty log and the empty id that parse_log would refuse."""
    fmt = _infer_format(path, format)
    bids = log.to_matrix()
    rows, cols = np.nonzero(bids != ABSENT)
    tables = [_token_table(_id_tokens(ids, fmt)) for ids in (log.auction_ids, log.bidder_ids)]
    micros = _micros(bids[rows, cols])
    blocks = [(i, min(i + _BLOCK_LINES, len(rows))) for i in range(0, len(rows), _BLOCK_LINES)]
    blocks.reverse()  # a stack: the next block last
    with open(path, "wb") as fh:
        if fmt == "csv":
            fh.write(LOG_HEADER.encode() + b"\n")
        while blocks:
            start, stop = blocks.pop()
            at = rows[start:stop], cols[start:stop]
            width = sum(int(lengths[i].max()) for (_, _, lengths), i in zip(tables, at))
            if stop - start > 1 and (stop - start) * width > _BLOCK_BYTES:
                middle = (start + stop) // 2
                blocks += [(middle, stop), (start, middle)]
                continue
            columns = [_token_column(table, i) for table, i in zip(tables, at)]
            fh.write(_record_bytes(_RECORD[fmt], columns + [_bid_column(micros[start:stop])]))


def read_reserves(path: str) -> ReserveVector:
    """Read a `bidder_id,reserve` CSV. The token `inf` excludes a bidder."""
    reserves: dict[str, float] = {}
    for i, (bidder, token) in _csv_rows(_lines(_read_bytes(path)), RESERVE_HEADER,
                                         "reserve"):
        if not bidder:
            raise LogParseError("empty bidder_id", i)
        if bidder in reserves:
            raise LogParseError(f"duplicate bidder_id {bidder!r}", i)
        reserves[bidder] = math.inf if token == "inf" else parse_bid_token(token, i)
    return ReserveVector(reserves)


def write_reserves(reserves: ReserveVector, path: str) -> None:
    bidders = sorted(reserves.reserves)
    lines = [RESERVE_HEADER]
    for bidder, token in zip(bidders, _id_tokens(bidders, "csv")):
        r = reserves.reserves[bidder]
        lines.append(f"{token},{'inf' if math.isinf(r) else format_micro(r)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


_CELLS = [(Mechanism.LAZY, "rstar_l"), (Mechanism.EAGER, "rstar_l"),
          (Mechanism.LAZY, "monopoly"), (Mechanism.EAGER, "monopoly")]
_LIFT_HEADER = "\t".join(["slot", "basis", *(f"delta_{m.value}_{src}" for m, src in _CELLS)])


@dataclass(frozen=True)
class LiftReport:
    """Per-auction revenue and welfare on one log: rev0 and wel0 with no reserves, then
    `revenue` and `welfare` under each (mechanism, reserve source) of _CELLS, in its order."""

    slot: str
    rev0: float
    wel0: float
    revenue: tuple[float, ...]
    welfare: tuple[float, ...]


def compute_lift_report(log: BidLog, slot: str) -> LiftReport:
    """Lifts of the optimal lazy reserves and the monopoly reserves on one log. Each
    optimizer's result already holds its totals under its own mechanism (lazy for
    rstar_l, eager for monopoly), so only the other two cells run a kernel."""
    rev0, wel0 = empirical_totals(log, ReserveVector.zero(), Mechanism.LAZY)
    results = {(Mechanism.LAZY, "rstar_l"): optimal_lazy(log),
               (Mechanism.EAGER, "monopoly"): monopoly_reserves(log, Mechanism.EAGER)}
    vectors = {source: result.reserves for (_, source), result in results.items()}
    totals = [(results[cell].total_revenue, results[cell].total_welfare) if cell in results
              else empirical_totals(log, vectors[cell[1]], cell[0]) for cell in _CELLS]
    return LiftReport(slot, rev0 / len(log), wel0 / len(log),
                      tuple(rev / len(log) for rev, _ in totals),
                      tuple(wel / len(log) for _, wel in totals))


def _lift_tsv(reports: Iterable[LiftReport], cells) -> str:
    """Raw cells, then the same divided by the lazy-at-rstar_l cell when it is positive."""
    lines = [_LIFT_HEADER]
    for rep in reports:
        raw = cells(rep)
        lines.append("\t".join([rep.slot, "raw"] + [f"{v:.10g}" for v in raw]))
        if raw[0] > 0.0:
            norm = [v / raw[0] for v in raw]
            lines.append("\t".join([rep.slot, "normalized"] + [f"{v:.10g}" for v in norm]))
        else:
            lines.append("\t".join([rep.slot, "normalization_unavailable"] + [""] * len(raw)))
    return "\n".join(lines) + "\n"


def lift_revenue_tsv(reports: Iterable[LiftReport]) -> str:
    """Revenue-lift table: raw deltas plus the same normalized so lazy-at-rstar = 1."""
    return _lift_tsv(reports, lambda rep: [rev - rep.rev0 for rev in rep.revenue])


def lift_welfare_tsv(reports: Iterable[LiftReport]) -> str:
    """Welfare-loss table, normalized so the lazy-at-rstar loss = 1 when positive."""
    return _lift_tsv(reports, lambda rep: [rep.wel0 - wel for wel in rep.welfare])
