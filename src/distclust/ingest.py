"""Stock price CSV ingestion.

Input is daily OHLC data with columns {date, symbol, open, close, low, high}
(case-insensitive, any order, extra columns ignored). Each symbol becomes
one SampleGroup whose rows are the 4-vectors (open, close, low, high) in
date order, so a ticker is treated as a bag of daily price vectors.

Parsing is lenient by default: malformed rows are skipped and reported back
with their line numbers. In strict mode the first bad row raises RowError.
Duplicate (symbol, date) rows keep the last occurrence.
"""

import csv
import datetime
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    InsufficientSamples, InvalidConfig, RowError, SchemaError, _check_non_negative, _decoding
)
from .gaussian import SampleGroup

REQUIRED_COLUMNS = ("date", "symbol", "open", "close", "low", "high")
PRICE_COLUMNS = ("open", "close", "low", "high")


@dataclass(frozen=True, eq=False)
class IngestResult:
    groups: tuple[SampleGroup, ...]
    skipped: tuple[RowError, ...]
    dropped_symbols: tuple[str, ...]


def _parse_row(
    row: dict[str, str | None], line: int
) -> tuple[str, datetime.date, tuple[float, float, float, float]]:
    symbol = (row.get("symbol") or "").strip()
    if not symbol:
        raise RowError("empty symbol", line)
    raw_date = (row.get("date") or "").strip()
    try:
        day = datetime.date.fromisoformat(raw_date)
    except ValueError:
        raise RowError(f"bad date {raw_date!r}", line) from None
    prices = []
    for col in PRICE_COLUMNS:
        raw = (row.get(col) or "").strip()
        try:
            value = float(raw)
        except ValueError:
            raise RowError(f"bad {col} value {raw!r}", line) from None
        if not np.isfinite(value):
            raise RowError(f"non-finite {col} value {raw!r}", line)
        prices.append(value)
    return symbol, day, tuple(prices)


def read_stock_csv(
    path: str | Path, strict: bool = False, min_days: int = 2
) -> IngestResult:
    """Read OHLC rows into per-symbol sample groups.

    Symbols with fewer than ``max(min_days, 2)`` distinct dates are dropped
    (two rows is the covariance-estimation minimum); a file that leaves no
    symbol raises InsufficientSamples, and one that is not UTF-8 text
    SchemaError. Groups come back sorted by symbol.
    """
    if min_days < 0:
        raise InvalidConfig(f"min_days must be non-negative, got {min_days}")
    floor_days = max(min_days, 2)
    path = Path(path)
    with _decoding(path), path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        names = [h.strip().lower() for h in header]
        missing = [c for c in REQUIRED_COLUMNS if c not in names]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}")
        index = {c: names.index(c) for c in REQUIRED_COLUMNS}

        by_symbol: dict[str, dict[datetime.date, tuple]] = {}
        skipped: list[RowError] = []
        for line, cells in enumerate(reader, start=2):
            row = {
                c: cells[i] if i < len(cells) else None for c, i in index.items()
            }
            try:
                symbol, day, prices = _parse_row(row, line)
            except RowError as err:
                if strict:
                    raise
                skipped.append(err)
                continue
            by_symbol.setdefault(symbol, {})[day] = prices

    groups = []
    dropped = []
    for symbol in sorted(by_symbol):
        days = by_symbol[symbol]
        if len(days) < floor_days:
            dropped.append(symbol)
            continue
        samples = np.array([days[d] for d in sorted(days)], dtype=float)
        groups.append(SampleGroup(symbol, samples))
    if not groups:
        raise InsufficientSamples(
            f"{path}: no symbol has at least {floor_days} distinct dates "
            f"({len(dropped)} dropped, {len(skipped)} rows skipped)"
        )
    return IngestResult(tuple(groups), tuple(skipped), tuple(dropped))


def log_return_transform(groups) -> tuple[SampleGroup, ...]:
    """Replace each group's price rows with day-over-day log returns.

    Every coordinate must be strictly positive; the transform shortens each
    group by one row, so groups need at least 3 rows coming in.
    """
    out = []
    for g in groups:
        if g.count < 3:
            raise InsufficientSamples(
                f"group {g.group_id!r}: log returns need at least 3 days, "
                f"got {g.count}"
            )
        if g.samples.min() <= 0.0:
            raise InvalidConfig(
                f"group {g.group_id!r}: log returns need strictly positive prices"
            )
        logs = np.log(g.samples)
        out.append(SampleGroup(g.group_id, logs[1:] - logs[:-1]))
    return tuple(out)


def add_noise(groups, sigma: float, rng: np.random.Generator) -> tuple[SampleGroup, ...]:
    """Perturb every sample coordinate with iid N(0, sigma^2) noise.

    sigma = 0 returns byte-identical copies without consuming any random
    numbers, so noise-free runs do not depend on generator state.
    """
    _check_non_negative("sigma", sigma)
    if sigma == 0:
        return tuple(SampleGroup(g.group_id, g.samples) for g in groups)
    return tuple(
        SampleGroup(
            g.group_id, g.samples + sigma * rng.standard_normal(g.samples.shape)
        )
        for g in groups
    )
