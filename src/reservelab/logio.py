"""Bid-log and reserve-file serialization, plus revenue/welfare lift reports.

Bids travel as decimal strings with at most 6 fractional digits (micros).
Parsing is strict: anything that is not a plain non-negative micro decimal is
rejected with its 1-based line number. Values are capped at 1e9 (1e15 micros)
so that micros -> float -> micros round trips are exact in both directions.

A CSV log is parsed column-wise first: the file is read once as bytes and
checked in blocks of lines with byte-level numpy tests, then each block is
decoded and split once, and ids map to matrix rows and columns in first-seen
order. A file with any record outside that plain form (quotes, non-ASCII, a bad
bid, a duplicate pair, ...) is parsed again from the top by the per-record
path, a `csv.reader` over its lines, which alone raises `LogParseError`; JSONL
logs and reserve files take that path only. write_log checks every bid's
integer micros in one array pass, then formats and writes blocks of lines.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

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


def _round_micros(x: float) -> int:
    """round(x * 10**6), or MAX_MICROS + 1 where that product overflows to inf."""
    scaled = x * 10 ** 6
    return round(scaled) if scaled != math.inf else MAX_MICROS + 1


def is_micro(x: float) -> bool:
    """True when x is exactly representable as a bounded micro decimal."""
    if not (isinstance(x, float) or isinstance(x, int)) or isinstance(x, bool):
        return False
    if math.isnan(x) or math.isinf(x) or x < 0:
        return False
    micros = _round_micros(x)
    return micros <= MAX_MICROS and micros / 10 ** 6 == x


def quantize_value(x: float) -> float:
    """Round x to the nearest micro. Raises on NaN/inf/negative/out-of-range."""
    if math.isnan(x) or math.isinf(x) or x < 0:
        raise ValueError(f"cannot quantize {x!r}")
    micros = _round_micros(x)
    if micros > MAX_MICROS:
        raise ValueError(f"{x!r} exceeds the 1e9 cap")
    return micros / 10 ** 6


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
    if format is not None:
        fmt = format.lower()
    elif path.endswith(".csv"):
        fmt = "csv"
    elif path.endswith(".jsonl"):
        fmt = "jsonl"
    else:
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


_BLOCK_LINES = 1 << 16  # lines per block of the CSV parse and of write_log; bounds temporaries
# Bytes a plain CSV record may hold: printable ASCII and tab. So no quote, no byte
# str.splitlines breaks a line at other than the newline, and nothing that is not ASCII.
_PLAIN_BYTE = np.zeros(256, dtype=bool)
_PLAIN_BYTE[[ord("\t"), ord("\n"), *range(0x20, 0x7F)]] = True
_PLAIN_BYTE[ord('"')] = False


def _plain_block(block: np.ndarray, ends: np.ndarray) -> bool:
    """True when every line of `block` (bytes; `ends` holds each line's newline offset)
    is `id,id,bid` with non-empty ids of plain bytes and a bid matching _BID_RE, and no
    line, so no field, is longer than csv.field_size_limit()."""
    if not np.take(_PLAIN_BYTE, block).all():
        return False
    marks = np.flatnonzero(block - ord("0") >= 10)  # every byte but a digit (uint8 wraps)
    marked = block[marks]
    commas = marks[marked == ord(",")]
    if len(commas) != 2 * len(ends):
        return False
    # Commas are sorted, so when each pair falls inside its own line, every line has two.
    starts = np.concatenate(([0], ends[:-1] + 1))
    first, second = commas[0::2], commas[1::2]
    if not ((starts < first) & (first + 1 < second) & (second + 1 < ends)
            & (ends - starts <= csv.field_size_limit())).all():
        return False
    at = np.flatnonzero(marked == ord("\n"))  # each line end's place in marks
    last = marks[at - 1]  # the second comma when the bid is all digits, else its one dot
    dotted = ((block[last] == ord(".")) & (marks[at - 2] == second) & (second + 1 < last)
              & (last + 1 < ends) & (ends <= last + 7))
    return bool(((last == second) | dotted).all())


def _indices(ids: list[str], index: dict[str, int]) -> np.ndarray:
    """Each id's position in `index`, which takes unseen ids in first-seen order."""
    fresh = [key for key in dict.fromkeys(ids) if key not in index]
    index.update(zip(fresh, range(len(index), len(index) + len(fresh))))
    return np.fromiter(map(index.__getitem__, ids), dtype=np.intp, count=len(ids))


def _columnar_csv(data: bytes) -> Optional[BidLog]:
    """The log of a CSV file whose records are all plain (see _plain_block) with bids
    up to 1e9 and no repeated (auction, bidder) pair, else None. On such a file the
    per-record parse returns the same log: float(token) is the correctly rounded
    double of the decimal token, as is its micros / 10**6."""
    if not data.startswith(LOG_HEADER.encode() + b"\n"):
        return None
    if not data.endswith(b"\n"):
        data += b"\n"
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))  # ends[0] closes the header
    rows, cols = {}, {}
    parts = []
    for i in range(1, len(ends), _BLOCK_LINES):
        start, block_ends = ends[i - 1] + 1, ends[i:i + _BLOCK_LINES]
        stop = block_ends[-1] + 1
        if not _plain_block(raw[start:stop], block_ends - start):
            return None
        tokens = data[start:stop].decode("ascii").replace("\n", ",").split(",")
        values = np.fromiter(map(float, tokens[2::3]), dtype=float, count=len(block_ends))
        if (values > 1e9).any():
            return None
        parts.append((_indices(tokens[0:-1:3], rows), _indices(tokens[1::3], cols), values))
    if not parts:
        return None
    r, c, values = map(np.concatenate, zip(*parts))
    bids = np.full((len(rows), len(cols)), ABSENT)
    bids[r, c] = values
    if np.count_nonzero(bids != ABSENT) != len(values):  # a pair was written twice
        return None
    return BidLog.from_matrix(bids, list(cols), list(rows))


def _id_tokens(ids: Iterable[str], fmt: str) -> list[str]:
    """Each id as written in a record, encoded once: a JSON string for JSONL; for CSV
    the id itself, quoted when it holds a comma or a quote. A CSV record must fit on
    one line, so a CSV id with a line break is refused."""
    if fmt == "jsonl":
        return [json.dumps(i) for i in ids]
    tokens = []
    for i in ids:
        if _LINE_BREAK_RE.search(i):
            raise ValueError(f"id {i!r} has a line break: a CSV record must fit on one line")
        tokens.append('"' + i.replace('"', '""') + '"' if "," in i or '"' in i else i)
    return tokens


def _micros(values: np.ndarray) -> np.ndarray:
    """Integer micros of each value, is_micro tested on the whole array; raises
    format_micro's error for the first value that fails it."""
    with np.errstate(over="ignore"):  # a product that overflows is inf, over the cap
        micros = np.rint(values * 10 ** 6)  # half to even, as round()
    ok = np.isfinite(values) & (values >= 0) & (micros <= MAX_MICROS)
    ok &= micros / 10 ** 6 == values
    if not ok.all():
        format_micro(float(values[np.argmin(ok)]))
    return micros.astype(np.int64)


def write_log(log: BidLog, path: str, format: Optional[str] = None) -> None:
    """Write a bid log, one row per present bid in auction then bidder order;
    raises on bids that are not micro decimals before it opens the file."""
    fmt = _infer_format(path, format)
    bids = log.to_matrix()
    rows, cols = np.nonzero(bids != ABSENT)
    aids, ids = _id_tokens(log.auction_ids, fmt), _id_tokens(log.bidder_ids, fmt)
    units, frac = np.divmod(_micros(bids[rows, cols]), 10 ** 6)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if fmt == "csv":
            fh.write(LOG_HEADER + "\n")
        for i in range(0, len(rows), _BLOCK_LINES):
            block = slice(i, i + _BLOCK_LINES)
            tokens = [("%d.%06d" % (u, f)).rstrip("0") if f else str(u)  # as format_micro
                      for u, f in zip(units[block].tolist(), frac[block].tolist())]
            cells = zip(rows[block].tolist(), cols[block].tolist(), tokens)
            if fmt == "csv":
                lines = [f"{aids[r]},{ids[c]},{bid}" for r, c, bid in cells]
            else:  # the bytes json.dumps gives for the record's dict
                lines = [f'{{"auction_id": {aids[r]}, "bidder_id": {ids[c]}, "bid": "{bid}"}}'
                         for r, c, bid in cells]
            fh.write("\n".join(lines) + "\n")


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


@dataclass(frozen=True)
class LiftReport:
    """Revenue lifts and welfare losses of reserve vectors against the zero-reserve baseline.

    Raw per-auction revenues are stored; deltas are derived views.
    `delta_difference` computes eager-minus-lazy revenue at one reserve source
    directly (not as a difference of deltas), so it matches a fresh simulation
    bit for bit.
    """

    slot: str
    rev0: float
    wel0: float
    revenue: dict[str, float]  # keys "lazy:rstar_l", "eager:monopoly", ...
    welfare: dict[str, float]
    reserves: dict[str, ReserveVector]

    def delta(self, mechanism: Mechanism, source: str) -> float:
        return self.revenue[f"{mechanism.value}:{source}"] - self.rev0

    def welfare_loss(self, mechanism: Mechanism, source: str) -> float:
        return self.wel0 - self.welfare[f"{mechanism.value}:{source}"]

    def delta_difference(self, source: str) -> float:
        return self.revenue[f"eager:{source}"] - self.revenue[f"lazy:{source}"]


def compute_lift_report(log: BidLog, slot: str) -> LiftReport:
    """Lifts of the optimal lazy reserves and the monopoly reserves on one log."""
    rev0, wel0 = empirical_totals(log, ReserveVector.zero(), Mechanism.LAZY)
    vectors = {"rstar_l": optimal_lazy(log).reserves,
               "monopoly": monopoly_reserves(log).reserves}
    revenue: dict[str, float] = {}
    welfare: dict[str, float] = {}
    for source, rv in vectors.items():
        for mech in (Mechanism.LAZY, Mechanism.EAGER):
            rev, wel = empirical_totals(log, rv, mech)
            revenue[f"{mech.value}:{source}"] = rev / len(log)
            welfare[f"{mech.value}:{source}"] = wel / len(log)
    return LiftReport(slot, rev0 / len(log), wel0 / len(log), revenue, welfare, vectors)


_CELLS = [(Mechanism.LAZY, "rstar_l"), (Mechanism.EAGER, "rstar_l"),
          (Mechanism.LAZY, "monopoly"), (Mechanism.EAGER, "monopoly")]
_LIFT_HEADER = ("slot\tbasis\tdelta_lazy_rstar_l\tdelta_eager_rstar_l\t"
                "delta_lazy_monopoly\tdelta_eager_monopoly")


def _lift_tsv(reports: Iterable[LiftReport], cell) -> str:
    """Raw cells, then the same divided by the lazy-at-rstar_l cell when it is positive."""
    lines = [_LIFT_HEADER]
    for rep in reports:
        raw = [cell(rep, mech, src) for mech, src in _CELLS]
        lines.append("\t".join([rep.slot, "raw"] + [f"{v:.10g}" for v in raw]))
        if raw[0] > 0.0:
            norm = [v / raw[0] for v in raw]
            lines.append("\t".join([rep.slot, "normalized"] + [f"{v:.10g}" for v in norm]))
        else:
            lines.append("\t".join([rep.slot, "normalization_unavailable"] + [""] * len(raw)))
    return "\n".join(lines) + "\n"


def lift_revenue_tsv(reports: Iterable[LiftReport]) -> str:
    """Revenue-lift table: raw deltas plus the same normalized so lazy-at-rstar = 1."""
    return _lift_tsv(reports, LiftReport.delta)


def lift_welfare_tsv(reports: Iterable[LiftReport]) -> str:
    """Welfare-loss table, normalized so the lazy-at-rstar loss = 1 when positive."""
    return _lift_tsv(reports, LiftReport.welfare_loss)
