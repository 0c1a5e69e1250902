"""Bid-log and reserve-file serialization, plus revenue/welfare lift reports.

Bids travel as decimal strings with at most 6 fractional digits (micros).
Parsing is strict: anything that is not a plain non-negative micro decimal is
rejected with its 1-based line number. Values are capped at 1e9 (1e15 micros)
so that micros -> float -> micros round trips are exact in both directions.
Parsing fills a BidLog's bid matrix straight from the records; writing and
quantizing work on that matrix.
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

_BID_RE = re.compile(r"^(\d+)(?:\.(\d{1,6}))?$")
_LINE_BREAK_RE = re.compile("[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")  # where str.splitlines splits
MAX_MICROS = 10 ** 15  # 1e9 units; beyond this float round trips stop being exact
LOG_HEADER = "auction_id,bidder_id,bid"
RESERVE_HEADER = "bidder_id,reserve"


def parse_bid_token(token: str, line_number: int = 0) -> float:
    """Decimal string -> float, micro precision, non-negative, bounded."""
    m = _BID_RE.match(token)
    if m is None:
        raise LogParseError(f"bad bid {token!r}: want a non-negative decimal with "
                            f"at most 6 fractional digits", line_number)
    micros = int(m.group(1)) * 10 ** 6 + int((m.group(2) or "").ljust(6, "0") or "0")
    if micros > MAX_MICROS:
        raise LogParseError(f"bid {token!r} exceeds the 1e9 cap", line_number)
    return micros / 10 ** 6


def is_micro(x: float) -> bool:
    """True when x is exactly representable as a bounded micro decimal."""
    if not (isinstance(x, float) or isinstance(x, int)) or isinstance(x, bool):
        return False
    if math.isnan(x) or math.isinf(x) or x < 0:
        return False
    micros = round(x * 10 ** 6)
    return micros <= MAX_MICROS and micros / 10 ** 6 == x


def quantize_value(x: float) -> float:
    """Round x to the nearest micro. Raises on NaN/inf/negative/out-of-range."""
    if math.isnan(x) or math.isinf(x) or x < 0:
        raise ValueError(f"cannot quantize {x!r}")
    micros = round(x * 10 ** 6)
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
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown log format {fmt!r}")
    return fmt


def _read_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
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
    lines = _read_lines(path)
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


def write_log(log: BidLog, path: str, format: Optional[str] = None) -> None:
    """Write a bid log, one row per present bid in auction then bidder order;
    raises on bids that are not micro decimals."""
    fmt = _infer_format(path, format)
    bids = log.to_matrix()
    rows, cols = np.nonzero(bids != ABSENT)
    aids, ids = _id_tokens(log.auction_ids, fmt), _id_tokens(log.bidder_ids, fmt)
    cells = zip(rows.tolist(), cols.tolist(), map(format_micro, bids[rows, cols].tolist()))
    if fmt == "csv":
        lines = [LOG_HEADER] + [f"{aids[r]},{ids[c]},{bid}" for r, c, bid in cells]
    else:  # the bytes json.dumps gives for the record's dict
        lines = [f'{{"auction_id": {aids[r]}, "bidder_id": {ids[c]}, "bid": "{bid}"}}'
                 for r, c, bid in cells]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_reserves(path: str) -> ReserveVector:
    """Read a `bidder_id,reserve` CSV. The token `inf` excludes a bidder."""
    reserves: dict[str, float] = {}
    for i, (bidder, token) in _csv_rows(_read_lines(path), RESERVE_HEADER, "reserve"):
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


def _rev_welfare(log: BidLog, reserves: ReserveVector, mechanism: Mechanism) -> tuple[float, float]:
    revenue, welfare = empirical_totals(log, reserves, mechanism)
    return revenue / len(log), welfare / len(log)


RESERVE_SOURCES = ("rstar_l", "monopoly")


@dataclass(frozen=True)
class LiftReport:
    """Revenue lifts and welfare losses of reserve vectors against the zero-reserve baseline.

    Raw per-auction revenues are stored; deltas and normalizations are
    derived views. `delta_difference` computes eager-minus-lazy revenue at one
    reserve source directly (not as a difference of deltas), so it matches a
    fresh simulation bit for bit.
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

    @property
    def normalizer(self) -> float:
        return self.delta(Mechanism.LAZY, "rstar_l")

    @property
    def welfare_normalizer(self) -> float:
        return self.welfare_loss(Mechanism.LAZY, "rstar_l")

    @property
    def normalization_available(self) -> bool:
        return self.normalizer > 0.0

    @property
    def welfare_normalization_available(self) -> bool:
        return self.welfare_normalizer > 0.0


def compute_lift_report(log: BidLog, slot: str) -> LiftReport:
    """Lifts of the optimal lazy reserves and the monopoly reserves on one log."""
    rev0, wel0 = _rev_welfare(log, ReserveVector.zero(), Mechanism.LAZY)
    vectors = {"rstar_l": optimal_lazy(log).reserves,
               "monopoly": monopoly_reserves(log).reserves}
    revenue: dict[str, float] = {}
    welfare: dict[str, float] = {}
    for source, rv in vectors.items():
        for mech in (Mechanism.LAZY, Mechanism.EAGER):
            rev, wel = _rev_welfare(log, rv, mech)
            revenue[f"{mech.value}:{source}"] = rev
            welfare[f"{mech.value}:{source}"] = wel
    return LiftReport(slot, rev0, wel0, revenue, welfare, vectors)


_CELLS = [(Mechanism.LAZY, "rstar_l"), (Mechanism.EAGER, "rstar_l"),
          (Mechanism.LAZY, "monopoly"), (Mechanism.EAGER, "monopoly")]
_LIFT_HEADER = ("slot\tbasis\tdelta_lazy_rstar_l\tdelta_eager_rstar_l\t"
                "delta_lazy_monopoly\tdelta_eager_monopoly")


def _lift_tsv(reports: Iterable[LiftReport], cell, available, normalizer) -> str:
    lines = [_LIFT_HEADER]
    for rep in reports:
        raw = [cell(rep, mech, src) for mech, src in _CELLS]
        lines.append("\t".join([rep.slot, "raw"] + [f"{v:.10g}" for v in raw]))
        if available(rep):
            norm = [v / normalizer(rep) for v in raw]
            lines.append("\t".join([rep.slot, "normalized"] + [f"{v:.10g}" for v in norm]))
        else:
            lines.append("\t".join([rep.slot, "normalization_unavailable"] + [""] * len(raw)))
    return "\n".join(lines) + "\n"


def lift_revenue_tsv(reports: Iterable[LiftReport]) -> str:
    """Revenue-lift table: raw deltas plus the same normalized so lazy-at-rstar = 1."""
    return _lift_tsv(reports, LiftReport.delta,
                     lambda r: r.normalization_available, lambda r: r.normalizer)


def lift_welfare_tsv(reports: Iterable[LiftReport]) -> str:
    """Welfare-loss table, normalized so the lazy-at-rstar loss = 1 when positive."""
    return _lift_tsv(reports, LiftReport.welfare_loss,
                     lambda r: r.welfare_normalization_available, lambda r: r.welfare_normalizer)
