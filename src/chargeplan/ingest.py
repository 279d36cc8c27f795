"""Turn raw origin-destination trip records into a planning instance.

Pipeline: parse a trips CSV into columns, bin destinations into zones and
time slots to get the flow matrix, average observed trip distances per zone
pair, then attach economic parameters with the same rules the synthetic
generator uses.

Flows count trip *destinations* (charging demand arises where trips end).
The slot index is the weekday-anchored minute of week divided by the slot
length, folded cyclically onto the horizon, so multi-week data accumulate
onto one representative cycle and binning stays shift-equivariant.

The CSV is read once, in blocks of whole lines, straight into one typed
buffer per column (``array.array``), which grows by appending each block's
records; the :class:`TripTable` columns are numpy views of those buffers,
so a parsed row costs its 48 bytes of values, and the parse adds about 1 MB
of per-block arrays at its peak.  Canonical lines (ISO start times without
zone or fraction, plain decimals) are parsed by array code over each
block's bytes, every other line by the per-row checks of the ``csv`` route;
both give the same values, bit for bit.  Python's text layer ends every
line, whether the file ends it with a LF, a CRLF or a lone CR, and each
block is whole lines, routed by its own lines.  From the first block with a
quote, ``csv`` reads the rest of the file, since a quoted field may span
lines.  Binning, the per-record distance fallback and the per-pair averages
are array code over that table.  On a 2-vCPU x86-64 host with CPython 3.11,
parsing a 100 000-row file of canonical lines takes about 0.07 s, under
any of the three line ends, and grid binning and averaging about 0.02 s; a
file with no canonical line (space-separated start times, say) takes about
0.35 s, since each of its blocks runs the array code before the row checks;
a 1.5 M-row file parses in 1.3-1.9 s and adds about 70 MB, the size of its
columns, to the process's peak RSS.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from dataclasses import dataclass
from datetime import date, datetime, time
from itertools import chain

import numpy as np

from .datagen import EconParams, build_instance, sample_alpha
from .model import PlanningInstance

EARTH_RADIUS_KM = 6371.0088

#: ``a`` terms closer than this relative gap may round to equal distances.
#: A gap of 1e-9 in ``a`` is at least 5e-10 in the distance (the square root
#: halves it, the arcsine keeps it), far beyond the three roundings of about
#: 1e-16 each that ``_arc_km`` adds.
_A_TIE_TOL = 1e-9

REQUIRED_COLUMNS = ("start_time", "origin_lng", "origin_lat", "dest_lng", "dest_lat")


@dataclass(frozen=True)
class Zone:
    label: str
    lon: float
    lat: float


@dataclass(frozen=True)
class BinningSpec:
    """Spatial zones plus temporal resolution.

    Either a rectangular grid (``bbox`` as (min_lon, min_lat, max_lon,
    max_lat) with ``rows`` x ``cols`` cells) or an explicit, non-empty zone
    list (records snap to the nearest zone point, ties to the first listed).
    Slot length must be positive and divide a day.
    """

    bbox: tuple[float, float, float, float] | None = None
    rows: int = 0
    cols: int = 0
    zones: tuple[Zone, ...] | None = None
    slot_minutes: int = 15
    n_slots: int = 672

    def __post_init__(self):
        if (self.bbox is None) == (self.zones is None):
            raise ValueError("specify exactly one of bbox-grid or zone list")
        if self.bbox is not None:
            if self.rows <= 0 or self.cols <= 0:
                raise ValueError("grid needs positive rows and cols")
            if len(self.bbox) != 4 or not all(map(math.isfinite, self.bbox)):
                raise ValueError("bbox needs four finite numbers")
            min_lon, min_lat, max_lon, max_lat = self.bbox
            if not (min_lon < max_lon and min_lat < max_lat):
                raise ValueError("bbox needs min_lon < max_lon and min_lat < max_lat")
        else:
            if not self.zones:
                raise ValueError("zone list must not be empty")
            if not all(math.isfinite(z.lon) and math.isfinite(z.lat) for z in self.zones):
                raise ValueError("zone coordinates must be finite numbers")
        if self.slot_minutes <= 0 or 24 * 60 % self.slot_minutes != 0:
            raise ValueError("slot length must be positive and divide 24 hours")
        if self.n_slots <= 0:
            raise ValueError("n_slots must be positive")

    @property
    def n_zones(self) -> int:
        if self.zones is not None:
            return len(self.zones)
        return self.rows * self.cols

    def zone_registry(self) -> list[Zone]:
        if self.zones is not None:
            return list(self.zones)
        min_lon, min_lat, max_lon, max_lat = self.bbox
        dlon = (max_lon - min_lon) / self.cols
        dlat = (max_lat - min_lat) / self.rows
        out = []
        for r in range(self.rows):
            for c in range(self.cols):
                out.append(
                    Zone(
                        f"r{r}c{c}",
                        min_lon + (c + 0.5) * dlon,
                        min_lat + (r + 0.5) * dlat,
                    )
                )
        return out

    def zones_of(self, lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
        """Zone index per point (int64), -1 where it falls outside the grid.

        Grid cells are half-open except on the far edges, which snap
        inward.  On a zone list a point goes to the zone at the least
        distance as :func:`haversine_km` rounds it; of zones at equal
        distances, the first listed.
        """
        lon = np.asarray(lon, dtype=float)
        lat = np.asarray(lat, dtype=float)
        best = np.full(lon.shape, -1, dtype=np.int64)
        if self.zones is not None:
            # the running best compares haversine ``a`` terms, which rise
            # with distance; only where two of them are too close for the
            # rounded distances to be told apart in advance are those
            # distances computed and compared
            best_a = np.full(lon.shape, np.inf)
            phi = np.radians(lat)
            cos_phi = np.cos(phi)
            for k, z in enumerate(self.zones):
                dlam = np.radians(np.subtract(z.lon, lon))
                a = _haversine_a(phi, cos_phi, np.radians(z.lat), dlam)
                closer = a < best_a * (1 - _A_TIE_TOL)
                near = (a <= best_a * (1 + _A_TIE_TOL)) ^ closer
                if near.any():
                    near &= a != best_a
                    near[near] = _arc_km(a[near]) < _arc_km(best_a[near])
                    closer |= near
                np.copyto(best, k, where=closer)
                np.copyto(best_a, a, where=closer)
            return best
        min_lon, min_lat, max_lon, max_lat = self.bbox
        inside = (min_lon <= lon) & (lon <= max_lon) & (min_lat <= lat) & (lat <= max_lat)
        col = (lon[inside] - min_lon) / (max_lon - min_lon) * self.cols
        row = (lat[inside] - min_lat) / (max_lat - min_lat) * self.rows
        c = np.minimum(col.astype(np.int64), self.cols - 1)
        r = np.minimum(row.astype(np.int64), self.rows - 1)
        best[inside] = r * self.cols + c
        return best

    def slots_of(self, minute_of_week: np.ndarray) -> np.ndarray:
        """Slot index per minute of week, folded cyclically onto the horizon."""
        return (minute_of_week // self.slot_minutes) % self.n_slots


def haversine_km(lon1, lat1, lon2, lat2) -> np.ndarray:
    """Great-circle distance in km, elementwise over broadcast arguments."""
    phi1 = np.radians(lat1)
    dlam = np.radians(np.subtract(lon2, lon1))
    return _arc_km(_haversine_a(phi1, np.cos(phi1), np.radians(lat2), dlam))


def _haversine_a(phi1, cos_phi1, phi2, dlam) -> np.ndarray:
    """The haversine term ``a`` in [0, 1], which rises with distance, from
    latitudes and the longitude difference in radians."""
    return np.sin((phi2 - phi1) / 2) ** 2 + cos_phi1 * np.cos(phi2) * np.sin(dlam / 2) ** 2


def _arc_km(a) -> np.ndarray:
    """Distance in km for haversine terms ``a``.

    The arcsine goes through ``math.asin`` one element at a time: numpy's
    SIMD ``arcsin`` can differ from libm's in the last bit, and distances
    (hence instance files) should not depend on the host's CPU extensions.
    """
    root = np.sqrt(a)
    arc = np.fromiter(map(math.asin, root.ravel().tolist()), float, root.size)
    return 2 * EARTH_RADIUS_KM * arc.reshape(root.shape)


@dataclass(frozen=True)
class TripTable:
    """Parsed trips as parallel columns, one entry per well-formed record."""

    minute: np.ndarray  # int64 weekday-anchored minute of week, Monday 00:00 = 0
    origin_lon: np.ndarray
    origin_lat: np.ndarray
    dest_lon: np.ndarray
    dest_lat: np.ndarray
    distance_km: np.ndarray  # NaN where the record gives no distance

    def __len__(self) -> int:
        return len(self.minute)


@dataclass
class ParseResult:
    records: TripTable
    skipped: int


def parse_trips(path) -> ParseResult:
    """Read trip records from a UTF-8 CSV, with or without a byte-order
    mark; malformed rows are counted, not fatal.

    Columns are found by header name (the last of duplicated names wins).
    Blank lines are ignored.  A row is malformed, and counted in
    ``skipped``, when it is too short to hold every required column, its
    start time is not ISO 8601 with ``T`` or a space between date and time
    (or a date alone), a coordinate is not a finite number, or it
    gives a ``distance_km`` that is not a finite non-negative number.  An
    empty or absent ``distance_km`` means the distance is not given.  A
    field longer than ``csv.field_size_limit()`` is an error naming its line.
    """
    with open(path, encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise ValueError(f"trips file line {reader.line_num}: {exc}") from None
        if header is None:
            raise ValueError("empty trips file")
        trips = _TripReader(header)
        trips.read(fh, reader.line_num + 1)
    return ParseResult(trips.table(), trips.skipped)


#: Characters read per block.  A block ends at a line end, so a longer line
#: makes a longer block.  Each block pays a fixed cost in array calls, so
#: larger blocks parse faster: the ingest-trips benchmark's op takes about
#: 0.19 s at 2**16 characters, 0.14 s at 2**18 and 0.13 s at 2**19.  A block's
#: working set grows with it: a parse of the 20 000-row file of the memory
#: test peaks at 66, 100 and 155 bytes a row, against a bound of 150
#: (``BENCH_block.json``).
_BLOCK_CHARS = 1 << 18

# Fields are checked and converted eight characters at a time: each 64-bit
# word holds eight consecutive bytes of a block, the first in its lowest
# byte, and byte-wise arithmetic never carries from one byte into the next
# because every byte of a block is ASCII (below 0x80).
_ONES = 0x0101010101010101  # a one in every byte
_HIGH = 0x8080808080808080  # the high bit of every byte

#: ``_INSIDE[n]``: the last ``n`` bytes of a 16-byte window, as two words
_INSIDE = np.frombuffer(b"".join(bytes(16 - n) + b"\xff" * n for n in range(17)),
                        dtype="<u8").reshape(17, 2)
_POW10 = 10 ** np.arange(16, dtype=np.uint64)
_POW10_F = _POW10.astype(float)  # exact: 10**15 < 2**53

_STAMP = b"0000-00-00T00:00:00"
#: XOR with this turns a canonical stamp's digits into 0-9, its separators
#: into 0; the greatest each byte may then be (month, day, hour, minute and
#: second are bounded by their first digit)
_STAMP_ZERO = np.frombuffer(_STAMP.ljust(24, b"\0"), dtype="<u8")
_STAMP_MAX = np.frombuffer(bytes([9, 9, 9, 9, 0, 1, 9, 0, 3, 9, 0, 2, 9, 0, 5, 9, 0, 5, 9])
                           .ljust(24, b"\x7f"), dtype="<u8")
#: days per month, by month number; 0 where the number is not a month
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31, 0])

#: characters around a block, so every field window lies inside its bytes
_PAD = " " * 24


class _TripReader:
    """Appends the records after a trips file's header to one typed buffer
    per column, and counts the malformed ones.

    Python's text layer ends every line, at a LF, a CRLF or a lone CR, with
    a line feed, and the text is read in blocks of whole lines.  A
    *canonical* line is parsed by array code over the block's bytes: it has
    as many fields as the header and no quote, is no longer than the ``csv``
    field size limit, its start time reads ``YYYY-MM-DDTHH:MM:SS`` on a
    calendar date, and each of its numbers is an optional minus sign and
    then 1 to 15 digits with at most one point among them (``-12.5``,
    ``.5``, ``5.``).  Such a decimal is its integer mantissa, exact in a
    double, over a power of ten, also exact, so one correctly rounded
    division gives the bits ``float`` gives (Clinger's fast path).  Every
    other line of the block goes through the per-row checks of
    :func:`_row_checks`, and the records keep file order.  ``csv`` reads the
    rest of the file row by row from the first block that holds a quote,
    since a quoted field may span lines.
    """

    def __init__(self, header: list[str]):
        where = {name: k for k, name in enumerate(header)}
        missing = [c for c in REQUIRED_COLUMNS if c not in where]
        if missing:
            raise ValueError(f"trips file missing required columns: {missing}")
        self.n_fields = len(header)
        self.k_time, k_olon, k_olat, k_dlon, k_dlat = (where[c] for c in REQUIRED_COLUMNS)
        self.k_dist = where.get("distance_km")
        self.k_numbers = (k_olon, k_olat, k_dlon, k_dlat)  # in TripTable's order
        # one typed buffer per column: a row costs its 48 bytes of values,
        # not a tuple of Python objects
        self.columns = _new_columns()
        self._append = _row_checks(self.k_time, self.k_numbers, self.k_dist, self.columns)
        self.skipped = 0

    def table(self) -> TripTable:
        # the columns are views of the buffers, not copies
        minute, *values = self.columns
        return TripTable(np.frombuffer(minute, dtype=np.int64),
                         *(np.frombuffer(v, dtype=float) for v in values))

    def read(self, fh, line: int) -> None:
        """Append every record of ``fh`` from here on; ``line`` is the number
        of the line it is at.  Each block is whole lines, routed by its own
        lines."""
        while chunk := _read(fh, _BLOCK_CHARS) + fh.readline():
            if '"' in chunk:
                self._rows(csv.reader(chain(_lines(chunk.encode()), fh)), line)
                return
            end = "" if chunk.endswith("\n") else "\n"  # the file's last line may have none
            block = "".join([_PAD, chunk, end, _PAD]).encode()
            del chunk  # only the block's bytes are held while they are parsed
            line += self._block(block, line)

    def _rows(self, rows, line: int) -> None:
        """Append the rows of a ``csv.reader`` whose first line is ``line``."""
        try:
            self.skipped += self._append(rows)
        except csv.Error as exc:
            raise ValueError(f"trips file line {line + rows.line_num - 1}: {exc}") from None

    def _block(self, block: bytes, line: int) -> int:
        """Append the records of whole lines, ``line`` the number of the
        first, with array code; how many lines they are.  ``block`` is their
        text in UTF-8 between two ``_PAD``, each line ended by a line feed."""
        buf = np.frombuffer(block, dtype=np.uint8)
        if not block.isascii():
            # the word arithmetic needs every byte below 0x80; a field with
            # another character is not canonical anyway
            buf = np.minimum(buf, 0x7F)
        first, last = len(_PAD), len(buf) - len(_PAD)
        # line feeds and commas, found in one pass; arrays no later step
        # reads are dropped, since the block's peak is the parse's
        marks = np.flatnonzero(buf[first:last] <= ord(","))
        marks += first
        kind = buf[marks]
        ends, commas = marks[kind == ord("\n")], marks[kind == ord(",")]
        del marks, kind
        starts = np.empty_like(ends)
        starts[0] = first
        starts[1:] = ends[:-1] + 1
        line_commas = np.diff(np.searchsorted(commas, ends), prepend=0)
        canonical = ((line_commas == self.n_fields - 1)
                     & (ends - starts <= csv.field_size_limit()))

        # field bounds of the lines with the header's field count
        lines = np.flatnonzero(canonical)
        comma = commas[np.repeat(canonical, line_commas)].reshape(-1, self.n_fields - 1)
        del commas, line_commas

        def field(k):
            return (starts[lines] if k == 0 else comma[:, k - 1] + 1,
                    ends[lines] if k == self.n_fields - 1 else comma[:, k])

        minute, ok = _minute_of_week(buf, *field(self.k_time))
        # the numbers, one field at a time; the distance last, NaN where
        # the line gives none
        values = np.empty((5, len(lines)))
        for k, out in zip(self.k_numbers, values):
            ok &= _decimals(buf, *field(k), out)
        dist = values[4]
        if self.k_dist is None:
            dist.fill(math.nan)
        else:
            start, stop = field(self.k_dist)
            absent = stop == start
            ok &= _decimals(buf, start, stop, dist) | absent
            dist[absent] = math.nan
        canonical[lines[~ok]] = False
        # a canonical row with a negative distance is malformed; -0.0 is not
        keep = ok & ~(dist < 0.0)
        self.skipped += int(np.count_nonzero(ok)) - int(np.count_nonzero(keep))
        columns = [minute[keep], *(v[keep] for v in values)]

        if not canonical.all():
            at, records = self._other_lines(block, line, starts, ends, ~canonical)
            if len(at):
                at = np.searchsorted(lines[keep], at)
                columns = [np.insert(c, at, np.frombuffer(v, dtype=c.dtype))
                           for c, v in zip(columns, records)]
        for buffer, column in zip(self.columns, columns):
            buffer.frombytes(column.view(np.uint8))
        return len(ends)

    def _other_lines(self, block, line, starts, ends, other):
        """The records of the lines of ``block`` marked ``other``: for each the
        index of its line, and their values, one typed buffer per column.

        ``starts`` and ``ends`` are the offsets of each line and of its line
        feed, and ``line`` the file line of the first.  One ``csv.reader``
        reads the marked lines joined."""
        i = np.flatnonzero(other)
        # runs of consecutive lines, each one slice of the block
        run = np.flatnonzero(np.diff(i, prepend=-2) != 1)
        lo = starts[i[run]].tolist()
        hi = (ends[i[np.append(run[1:], len(i)) - 1]] + 1).tolist()
        text = memoryview(block)
        records, at = _new_columns(), []
        reader = csv.reader(_lines(b"".join([text[a:b] for a, b in zip(lo, hi)])))
        try:
            # with no quote a row is one CSV line, a blank row an empty one
            append = _row_checks(self.k_time, self.k_numbers, self.k_dist, records)
            self.skipped += append(reader, at)
        except csv.Error as exc:
            raise ValueError(f"trips file line {line + i[reader.line_num - 1]}: "
                             f"{exc}") from None
        return i[np.array(at, dtype=np.intp) - 1], records


def _read(fh, n: int) -> str:
    """Up to ``n`` characters of the text file ``fh``, read 8192 at a time: a
    text file holds the characters of one read until the next, so a single
    read of a block would keep a second copy of it while it is parsed."""
    parts = []
    while n > 0 and (part := fh.read(min(n, 8192))):
        parts.append(part)
        n -= len(part)
    return "".join(parts)


def _lines(data: bytes):
    """The lines of UTF-8 text, as a file opened with ``newline=""`` reads
    them; an ``io.StringIO`` would hold four bytes a character."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")


def _new_columns() -> tuple[array, ...]:
    """Empty typed buffers for :class:`TripTable`'s columns, in its order."""
    return (array("q"),) + tuple(array("d") for _ in range(5))


def _row_checks(k_time: int, k_numbers: tuple[int, ...], k_dist: int | None, columns):
    """The per-row checks, as a function that appends the values (minute of
    week, four coordinates, distance) of each well-formed one of parsed CSV
    rows to ``columns`` and returns how many were malformed; a blank row is
    neither.  Given a list ``at``, it appends there the ``line_num`` of
    ``rows``, a ``csv.reader``, after each row whose values it appended.
    ``k_*`` are the columns of the fields."""
    k_olon, k_olat, k_dlon, k_dlat = k_numbers
    width = max(k_time, *k_numbers) + 1
    fromisoformat, isfinite = datetime.fromisoformat, math.isfinite
    inf, nan = math.inf, math.nan
    minute, o_lons, o_lats, d_lons, d_lats, distances = (c.append for c in columns)

    def append_rows(rows, at: list[int] | None = None) -> int:
        skipped = 0
        for row in rows:
            if len(row) < width:
                if row:
                    skipped += 1
                continue
            try:
                ts = fromisoformat(row[k_time])
                text = row[k_dist] if k_dist is not None and k_dist < len(row) else ""
                dist = nan
                if text:
                    dist = float(text)
                    if not 0.0 <= dist < inf:
                        raise ValueError("distance_km must be finite and non-negative")
                o_lon, o_lat = float(row[k_olon]), float(row[k_olat])
                d_lon, d_lat = float(row[k_dlon]), float(row[k_dlat])
                _check_separator(row[k_time], ts)
            except ValueError:
                skipped += 1
                continue
            if not (isfinite(o_lon) and isfinite(o_lat) and isfinite(d_lon) and isfinite(d_lat)):
                skipped += 1
                continue
            minute(ts.weekday() * 1440 + ts.hour * 60 + ts.minute)
            o_lons(o_lon)
            o_lats(o_lat)
            d_lons(d_lon)
            d_lats(d_lat)
            distances(dist)
            if at is not None:
                at.append(rows.line_num)
        return skipped

    return append_rows


def _check_separator(text: str, ts: datetime) -> None:
    """Raise ``ValueError`` unless ``text``, which ``datetime.fromisoformat``
    read as ``ts``, has ``T`` or a space between its date and its time.

    CPython 3.11 takes any one character there (``2024-03-04?08:10``).  No
    ISO date holds a ``T`` or a space, so the text is split at its first
    one, and its two sides, each read on its own, must give ``ts`` again; a
    text with neither must be a date alone."""
    head = text.replace(" ", "T").partition("T")[0]
    clock = time.fromisoformat(text[len(head) + 1:]) if len(head) < len(text) else time()
    if datetime.combine(date.fromisoformat(head), clock) != ts:
        raise ValueError(f"no T or space between the date and time of {text!r}")


def _words(buf: np.ndarray, offset: np.ndarray, n: int) -> np.ndarray:
    """The ``n`` words from each offset of ``buf`` on, shape (len(offset), n)."""
    windows = np.ndarray((len(buf) - 8 * n + 1,), dtype=f"V{8 * n}", buffer=buf, strides=(1,))
    return windows[offset].view("<u8").reshape(-1, n)


def _above(v: np.ndarray, limit) -> np.ndarray:
    """The high bit of every byte of ``v`` greater than that byte of ``limit``."""
    return (v + (0x7F * _ONES - limit)) & _HIGH


def _eight_digits(v: np.ndarray) -> np.ndarray:
    """The number whose decimal digits are the bytes (0-9) of each word,
    lowest byte first."""
    v = (v * 10 + (v >> 8)) & 0x00FF00FF00FF00FF
    v = (v * 100 + (v >> 16)) & 0x0000FFFF0000FFFF
    return (v * 10000 + (v >> 32)) & 0xFFFFFFFF


def _minute_of_week(buf: np.ndarray, start: np.ndarray, stop: np.ndarray):
    """Weekday-anchored minute of week of the fields ``buf[start:stop]`` that
    are canonical start times, ``YYYY-MM-DDTHH:MM:SS`` on a calendar date,
    and which are."""
    v = _words(buf, start, 3) ^ _STAMP_ZERO  # digits 0-9, separators 0
    above = _above(v, _STAMP_MAX)
    ok = (stop - start == len(_STAMP)) & ((above[:, 0] | above[:, 1] | above[:, 2]) == 0)
    ymd = _eight_digits(v[:, 0]).astype(np.int64)  # YYYY0MM0
    dhm = _eight_digits(v[:, 1]).astype(np.int64)  # DD0HH0MM
    year, month, day = ymd // 10000, ymd // 10 % 100, dhm // 1000000
    hour, minute = dhm // 1000 % 100, dhm % 100
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.minimum(month, 13)] + (leap & (month == 2))
    ok &= (year >= 1) & (1 <= day) & (day <= month_days) & (hour <= 23)
    # days since 0000-03-01, a Wednesday, in the proleptic Gregorian
    # calendar (Hinnant's days_from_civil)
    era, year_of_era = np.divmod(year - (month <= 2), 400)
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = (era * 146097 + year_of_era * 365 + year_of_era // 4 - year_of_era // 100
            + day_of_year)
    return (days + 2) % 7 * 1440 + hour * 60 + minute, ok


def _decimals(buf: np.ndarray, start: np.ndarray, stop: np.ndarray, out: np.ndarray):
    """Which of the fields ``buf[start:stop]`` are canonical decimals, an
    optional minus sign and then 1 to 15 digits with at most one point among
    them; their values go to ``out``."""
    negative = buf[start] == ord("-")
    v, points, after, ok = _digit_words(buf, start + negative, stop)
    # reading the point as a 0 digit leaves the integer part ten times too
    # large and the fraction digits as they are
    v = _eight_digits(v)
    spread = v[:, 0] * 100000000 + v[:, 1]
    fraction = spread % _POW10[after]
    mantissa = np.where(points > 0, (spread - fraction) // 10 + fraction, spread)
    np.divide(mantissa, _POW10_F[after], out=out)
    np.negative(out, out=out, where=negative)
    return ok


def _digit_words(buf: np.ndarray, start: np.ndarray, stop: np.ndarray):
    """The fields ``buf[start:stop]`` right-aligned in two words, digits as
    bytes 0-9 and the point and everything before the field as 0; how many
    points each holds, how many characters follow its point, and which are
    1 to 15 digits with at most one point among them."""
    length = stop - start
    inside = _INSIDE.take(np.minimum(length, 16), axis=0)  # no length is negative
    v = _words(buf, stop - 16, 2) ^ (ord("0") * _ONES)  # digits become 0-9
    non_digit = _above(v, 9 * _ONES) & inside
    point = non_digit & ~_above(v ^ ((ord(".") ^ ord("0")) * _ONES), 0)
    v &= inside & ~((non_digit >> 7) * 0xFF)
    non_digit ^= point  # neither a digit nor the point
    # the point marks, 0 or 1 a byte, summed into the top byte
    points = (((point[:, 0] >> 7) + (point[:, 1] >> 7)) * _ONES >> 56).astype(np.int64)
    # a lone point at window position p is the bit 2**(8p + 7) of the
    # 128-bit window, and 15 - p characters follow it (16 % 16 = 0 without one)
    bit = np.frexp(np.ldexp(point[:, 1].astype(float), 64) + point[:, 0])[1]
    after = (16 - bit // 8) % 16
    digits = length - points
    ok = (((non_digit[:, 0] | non_digit[:, 1]) == 0) & (points <= 1) & (1 <= digits)
          & (digits <= 15))
    return v, points, after, ok


@dataclass
class FlowResult:
    flow: np.ndarray  # (n_slots, n_zones)
    zones: list[Zone]
    dropped: int
    dest_zone: np.ndarray  # zone index per trip destination, -1 off the grid


def build_flows(trips: TripTable, spec: BinningSpec) -> FlowResult:
    """Count destination arrivals into (slot, zone) cells; zeros are imputed."""
    T, n = spec.n_slots, spec.n_zones
    zone = spec.zones_of(trips.dest_lon, trips.dest_lat)
    kept = zone >= 0
    cell = spec.slots_of(trips.minute[kept]) * n + zone[kept]
    flow = np.bincount(cell, minlength=T * n).reshape(T, n).astype(float)
    return FlowResult(flow, spec.zone_registry(), int(np.count_nonzero(~kept)), zone)


@dataclass
class DistanceResult:
    distance: np.ndarray  # (n, n) mean km per ordered pair
    counts: np.ndarray  # observations per pair
    imputed: np.ndarray  # True where the centroid fallback was used


def build_distances(
    trips: TripTable, spec: BinningSpec, dest_zone: np.ndarray
) -> DistanceResult:
    """Average observed trip distance per (origin zone, destination zone).

    A record without a distance counts with the haversine distance between
    its own endpoints.  Pairs with no observations fall back to the
    inter-centroid haversine distance and are flagged as imputed.  The
    diagonal is forced to zero.  No symmetry is imposed; empirical averages
    rarely are.  Sums accumulate in record order.  ``dest_zone`` is
    :attr:`FlowResult.dest_zone` of the same trips and spec, so that the
    destinations are not looked up twice.
    """
    n = spec.n_zones
    zi = spec.zones_of(trips.origin_lon, trips.origin_lat)
    kept = (zi >= 0) & (dest_zone >= 0)
    absent = kept & np.isnan(trips.distance_km)
    d = trips.distance_km.copy()
    d[absent] = haversine_km(
        trips.origin_lon[absent], trips.origin_lat[absent],
        trips.dest_lon[absent], trips.dest_lat[absent],
    )
    pair = zi[kept] * n + dest_zone[kept]
    total = np.bincount(pair, weights=d[kept], minlength=n * n).reshape(n, n)
    counts = np.bincount(pair, minlength=n * n).reshape(n, n)
    zones = spec.zone_registry()
    lon = np.array([z.lon for z in zones], dtype=float)
    lat = np.array([z.lat for z in zones], dtype=float)
    centroid = haversine_km(lon[:, None], lat[:, None], lon[None, :], lat[None, :])
    observed = counts > 0
    distance = np.where(observed, total / np.where(observed, counts, 1), centroid)
    imputed = ~observed
    np.fill_diagonal(distance, 0.0)
    np.fill_diagonal(imputed, False)
    return DistanceResult(distance, counts, imputed)


def assemble_instance(
    flow: np.ndarray,
    distance: np.ndarray,
    params: EconParams,
    coordinates: np.ndarray | None = None,
) -> PlanningInstance:
    """Combine binned flows, empirical distances, and economic parameters.

    The center is the busiest zone by total flow, and charging shares are
    drawn from ``params.seed``; :func:`chargeplan.datagen.build_instance`
    applies the same rules as to a synthetic instance.
    """
    T, n = flow.shape
    if distance.shape != (n, n):
        raise ValueError("flow and distance shapes are inconsistent")
    center_km = distance[int(np.argmax(flow.sum(axis=0))), :]
    alpha = sample_alpha(params.alpha_a, params.alpha_b, params.seed, (T, n))
    return build_instance(flow, alpha, distance, center_km, params, coordinates)
