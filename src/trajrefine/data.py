"""Dataset handling: NGSIM CSV ingestion, synthetic corpora, JSONL persistence.

The default protocol mirrors the common highway benchmark setup: raw tracks
at 10 Hz are downsampled by 2 to dt = 0.2 s, and sliding 41-point windows
(8.0 s) are split into a 16-point history (3 s, current position included)
and a 25-point future (5 s).
"""

from __future__ import annotations

import csv
import json
import math
import operator
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii

import numpy as np
from numpy.lib.stride_tricks import as_strided

FEET_TO_METERS = 0.3048

DEFAULT_DT = 0.2
DEFAULT_TAU = 15  # history intervals; history has tau+1 points
DEFAULT_HORIZON = 25  # future points

SCENARIOS = ("cv", "ca", "lane_change", "turn")

LANE_WIDTH = 3.7  # meters, lateral offset of the lane_change scenario
LANE_CHANGE_DURATION = 3.0  # seconds
GEOMETRY_BLOCK = 256  # segments whose positions gen_synthetic computes at once


def whole(name: str, value) -> int:
    """``value`` as a plain int; a boolean, float or other non-integer is rejected by name."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def positive(value) -> bool:
    """Whether ``value`` is a finite number > 0; a boolean is not a number here."""
    return not isinstance(value, (bool, np.bool_)) and 0.0 < value < np.inf


def non_negative(value) -> bool:
    """Whether ``value`` is a finite number >= 0, as :func:`positive` takes numbers."""
    return not isinstance(value, (bool, np.bool_)) and 0.0 <= value < np.inf


def plain(value):
    """A numpy scalar as the plain Python number ``.item()`` gives; anything else as it is."""
    return value.item() if isinstance(value, np.generic) else value


def checked_positive(name: str, value):
    """``value`` as :func:`plain` gives it, which must be :func:`positive`, else rejected
    as ``<name> must be finite and positive``."""
    if not positive(value := plain(value)):
        raise ValueError(f"{name} must be finite and positive")
    return value


def checked_dt(dt):
    """``dt`` as :func:`checked_positive` gives it."""
    return checked_positive("dt", dt)


def read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def check_protocol(dt, tau, horizon) -> dict:
    """The protocol ``{"dt", "tau", "horizon"}`` of a dataset, checked."""
    tau, horizon, dt = whole("tau", tau), whole("horizon", horizon), plain(dt)
    if not (positive(dt) and tau >= 0 and horizon >= 1):
        raise ValueError(f"protocol needs a finite dt > 0, tau >= 0 and horizon >= 1, "
                         f"got dt={dt}, tau={tau}, horizon={horizon}")
    return {"dt": dt, "tau": tau, "horizon": horizon}


def protocol_mismatch(got, want, keys) -> str | None:
    """The first of ``keys`` whose values in got and want differ by more than 1e-9 (or are NaN)."""
    return next((key for key in keys if not abs(got[key] - want[key]) <= 1e-9), None)


def require_protocol(got, want, keys, what: str, whose: str) -> None:
    """The one protocol comparison of datasets and models: the first
    :func:`protocol_mismatch` of got and want over ``keys`` is rejected as
    ``<what>: <key>=<got> differs from the <whose> <key>=<want>``."""
    if key := protocol_mismatch(got, want, keys):
        raise ValueError(f"{what}: {key}={got[key]} differs from the {whose} {key}={want[key]}")


def _stream_rng(seed: int, stream: str) -> np.random.Generator:
    """Independent, reproducible generator for a named random sub-stream of
    an integer seed >= 0; any other seed is rejected by name."""
    seed = whole("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng([seed, zlib.crc32(stream.encode())])


@contextmanager
def reading(path: str, encoding: str = "utf-8", newline: str | None = None):
    """Open a text file to read; a decode error in the block names the file and line."""
    with open(path, encoding=encoding, newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            # latin-1 reads one character a byte, so lines break where they do in fh
            with open(path, encoding="latin-1", newline="") as raw:
                for lineno, line in enumerate(raw, start=1):
                    try:
                        line.encode("latin-1").decode("utf-8")
                    except UnicodeDecodeError as bad:
                        raise ValueError(f"{path}: line {lineno}: {bad}") from None
            raise ValueError(f"{path}: {exc}") from None


def _points(a, name: str) -> np.ndarray:
    pts = np.asarray(a, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"{name} must be an (n, 2) array of positions")
    if not np.isfinite(pts).all():
        raise ValueError(f"{name} contains non-finite coordinates")
    return pts


@dataclass(frozen=True, eq=False)
class Segment:
    """One supervised example: observed history plus ground-truth future."""

    segment_id: str
    agent_id: int
    dt: float
    history: np.ndarray  # (tau+1, 2) meters
    future: np.ndarray  # (T, 2) meters

    def __post_init__(self) -> None:
        if not isinstance(self.segment_id, str):
            raise ValueError(f"segment_id must be a str, got {self.segment_id!r}")
        object.__setattr__(self, "agent_id", whole("agent_id", self.agent_id))
        object.__setattr__(self, "dt", checked_dt(self.dt))
        object.__setattr__(self, "history", _points(self.history, "history"))
        object.__setattr__(self, "future", _points(self.future, "future"))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Homogeneous collection of segments plus the protocol they follow.

    Immutable: ``segments`` is stored as a tuple, and the segment arrays are
    stacked once, as read-only arrays that :meth:`histories` and
    :meth:`futures` return on every call, so callers that each need the
    stack (the fitters, ``rmse``, ``run_ablation``) share one copy.
    """

    segments: tuple[Segment, ...]
    dt: float = DEFAULT_DT
    tau: int = DEFAULT_TAU
    horizon: int = DEFAULT_HORIZON
    source: str = ""

    def __post_init__(self) -> None:
        vars(self).update(check_protocol(self.dt, self.tau, self.horizon))
        segments = tuple(self.segments)
        lengths = ("history", self.tau + 1), ("future", self.horizon)
        for seg in segments:  # what records alone can get wrong; _from_stacks checks the rest
            if abs(seg.dt - self.dt) > 1e-12:
                raise ValueError(f"segment {seg.segment_id}: dt {seg.dt} != {self.dt}")
            for field, length in lengths:
                if (got := len(getattr(seg, field))) != length:
                    raise ValueError(f"segment {seg.segment_id}: {field} length {got} != {length}")
        stacks = [np.array([getattr(seg, field) for seg in segments]).reshape(-1, length, 2)
                  for field, length in lengths]
        vars(self).update(vars(_from_stacks([seg.segment_id for seg in segments], None, self.dt,
                                            *stacks, self.source, segments)))

    def __len__(self) -> int:
        return len(self.segments)

    def histories(self) -> np.ndarray:
        """Observed histories stacked as a read-only (N, tau+1, 2) array, built once."""
        return self._histories

    def futures(self) -> np.ndarray:
        """Ground-truth futures stacked as a read-only (N, T, 2) array, built once."""
        return self._futures


def _from_stacks(ids, agents, dt: float, histories: np.ndarray, futures: np.ndarray,
                 source: str, segments: tuple[Segment, ...] | None = None) -> Dataset:
    """The dataset of segments ``ids[i]``, ``agents[i]`` over row i of (N, tau+1, 2)
    and (N, horizon, 2) stacks of floats; the one check of a dataset's stacks.

    In order: with a segment, dt must be finite and positive; the protocol
    (:func:`check_protocol`); finite coordinates, naming the first segment's
    history before its future; distinct ids. Segments view the read-only
    stacks unless ``segments``, the records the stacks were built from, are given.
    """
    histories, futures = (read_only(np.ascontiguousarray(a)) for a in (histories, futures))
    if len(histories):
        checked_dt(dt)
    dt = check_protocol(dt, histories.shape[1] - 1, futures.shape[1])["dt"]
    finite = [np.isfinite(a).all(axis=(1, 2)) for a in (histories, futures)]
    if (bad := np.flatnonzero(~(finite[0] & finite[1]))).size:  # the first segment at fault
        raise ValueError(f"{'future' if finite[0][bad[0]] else 'history'} "
                         "contains non-finite coordinates")
    _distinct_ids(ids)
    if segments is None:
        segments = [object.__new__(Segment) for _ in ids]
        for seg, sid, agent, history, future in zip(segments, ids, agents, histories, futures):
            vars(seg).update(segment_id=sid, agent_id=agent, dt=dt, history=history, future=future)
    vars(ds := object.__new__(Dataset)).update(
        segments=tuple(segments), dt=dt, tau=histories.shape[1] - 1, horizon=futures.shape[1],
        source=source, _histories=histories, _futures=futures)
    return ds


def _distinct_ids(ids) -> None:
    """Reject segment ids of which one repeats: the first repeat, named with its first index."""
    if len(set(ids)) < len(ids):
        first: dict[str, int] = {}
        i = next(i for i, sid in enumerate(ids) if first.setdefault(sid, i) != i)
        raise ValueError(f"segments {first[ids[i]]} and {i} share the segment id {ids[i]!r}")


@dataclass(frozen=True, eq=False)
class Track:
    """A contiguous single-vehicle trajectory at uniform dt."""

    vehicle_id: int
    dt: float
    points: np.ndarray  # (n, 2) meters

    def __post_init__(self) -> None:
        object.__setattr__(self, "vehicle_id", whole("vehicle_id", self.vehicle_id))
        object.__setattr__(self, "dt", checked_dt(self.dt))
        object.__setattr__(self, "points", _points(self.points, "track points"))


NGSIM_COLUMNS = ("Vehicle_ID", "Frame_ID", "Local_X", "Local_Y")


def parse_ngsim_csv(path: str) -> list[Track]:
    """Read an NGSIM-format CSV into per-vehicle tracks at 10 Hz, in meters.

    Rows are grouped by vehicle and sorted by frame; Local_X/Local_Y are
    converted from feet with the exact factor 0.3048. A track is split
    wherever a vehicle's frame sequence jumps by more than 1. An id that is
    not a finite whole number below 2**53, a negative frame, a non-finite
    coordinate or a repeated (Vehicle_ID, Frame_ID) pair is rejected with
    the number of the first line at fault: the physical line its record
    starts on, also after a quoted field that spans lines. A UTF-8 BOM is skipped.

    numpy's C tokenizer reads the rows. The exact pass, ``csv.reader`` and
    ``float`` row by row, defines what a file means; it reads the file again
    if the tokenizer rejects it (a blank-looking row, ``1_0``) or a check
    fails, since only it knows the physical lines.
    """
    with reading(path, "utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        missing = [c for c in NGSIM_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"{path}: missing required columns {missing}")
        columns = [header.index(c) for c in NGSIM_COLUMNS]
        rows = np.empty((0, 4))
        # numpy warns on a body without rows: it starts at the first line that is not blank
        for skip, line in enumerate(fh, start=reader.line_num):
            if line.strip():
                try:  # given the path, numpy reads the file in chunks of its own
                    rows = np.loadtxt(path, delimiter=",", usecols=columns, skiprows=skip,
                                      quotechar='"', comments=None, ndmin=2,
                                      encoding="utf-8-sig")
                except ValueError:
                    rows = None  # rejected: the exact pass reads the file
                break
        return _tracks(path, fh, columns, rows)


def _exact_rows(fh, columns: list[int]) -> tuple[np.ndarray, list[int], str | None]:
    """The exact pass: the (n, 4) rows after the header, the physical line each
    starts on, and ``line N: <error>`` for the first that does not convert."""
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)
    rows, lines = [], []
    start = reader.line_num + 1  # physical line the next record starts on
    for row in reader:  # a quoted field may span several physical lines
        lineno, start = start, reader.line_num + 1
        if not "".join(row).strip():
            continue
        try:
            rows.append([float(row[c]) for c in columns])
        except (ValueError, IndexError) as exc:  # a short row: name the first field it lacks
            lacks = (name for name, c in zip(NGSIM_COLUMNS, columns) if c >= len(row))
            why = f"no {next(lacks)} field" if isinstance(exc, IndexError) else exc
            return np.array(rows).reshape(-1, 4), lines, f"line {lineno}: {why}"
        lines.append(lineno)
    return np.array(rows).reshape(-1, 4), lines, None


def _tracks(path: str, fh, columns: list[int], rows: np.ndarray | None = None) -> list[Track]:
    """Tracks of the (n, 4) Vehicle_ID, Frame_ID, Local_X, Local_Y rows the tokenizer
    read; without rows, or if one is at fault, the exact pass reads fh instead."""
    lines = unreadable = None
    if rows is None:
        rows, lines, unreadable = _exact_rows(fh, columns)
    vid, frame = rows[:, 0], rows[:, 1]
    order = np.lexsort((frame, vid))  # stable: a repeated pair sorts after its first line
    v, f = vid[order], frame[order]
    repeated = np.zeros(len(order), dtype=bool)
    repeated[order[1:][(v[1:] == v[:-1]) & (f[1:] == f[:-1])]] = True

    def repeat(i: int) -> str:
        first = np.flatnonzero((vid == vid[i]) & (frame == frame[i]))[0]
        return (f"Frame_ID {int(frame[i])} of Vehicle_ID {int(vid[i])} "
                f"repeats line {lines[first]}")

    not_whole = "is not a whole number below 2**53"
    checks = (  # in the order one line is checked; the first line at fault wins
        (~_whole(vid), lambda i: f"Vehicle_ID {float(vid[i])!r} {not_whole}"),
        (~_whole(frame), lambda i: f"Frame_ID {float(frame[i])!r} {not_whole}"),
        (frame < 0, lambda i: f"negative frame id {int(frame[i])}"),
        (~np.isfinite(rows[:, 2:]).all(axis=1), lambda i: "non-finite coordinate"),
        (repeated, repeat),
    )
    bad = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in checks]))
    if bad.size and lines is None:
        return _tracks(path, fh, columns)
    if bad.size:
        i = bad[0]
        describe = next(describe for mask, describe in checks if mask[i])
        raise ValueError(f"{path}: line {lines[i]}: {describe(i)}")
    if unreadable is not None:
        raise ValueError(f"{path}: {unreadable}")
    if not len(rows):
        return []
    cuts = np.flatnonzero((v[1:] != v[:-1]) | (f[1:] - f[:-1] > 1)) + 1
    runs = np.split(rows[order, 2:] * FEET_TO_METERS, cuts)
    return [Track(int(v[s]), 0.1, run) for s, run in zip([0, *cuts.tolist()], runs)]


def _whole(ids: np.ndarray) -> np.ndarray:
    """Which ids are finite whole numbers below 2**53 in magnitude."""
    return (np.floor(ids) == ids) & (np.abs(ids) < 2.0**53)


def downsample(track: Track, factor: int = 2) -> Track:
    """Keep every ``factor``-th sample starting at index 0; dt scales up."""
    if whole("factor", factor) < 1:
        raise ValueError("factor must be >= 1")
    return Track(track.vehicle_id, track.dt * factor, track.points[::factor])


def extract_segments(
    tracks: list[Track],
    tau: int = DEFAULT_TAU,
    horizon: int = DEFAULT_HORIZON,
    stride: int = 10,
) -> Dataset:
    """Slide (tau+1+horizon)-point windows over each track, advancing by stride."""
    tau, horizon, stride = whole("tau", tau), whole("horizon", horizon), whole("stride", stride)
    if stride < 1:
        raise ValueError("stride must be >= 1")
    dt = tracks[0].dt if tracks else DEFAULT_DT
    for t in tracks:
        if abs(t.dt - dt) > 1e-12:
            raise ValueError("tracks must share a uniform dt")
    if tau < 0 or horizon < 1:  # the stacks' lengths would misstate tau and horizon
        check_protocol(dt, tau, horizon)
    window = tau + 1 + horizon
    starts = [range(0, len(t.points) - window + 1, stride) for t in tracks]
    windows = np.concatenate([np.empty((0, window, 2))] + [as_strided(  # one view a track
        t.points, (len(run), window, 2), (stride * t.points.strides[0], *t.points.strides),
        writeable=False) for t, run in zip(tracks, starts)])
    ids = [f"v{t.vehicle_id}-t{ti}-s{s}" for ti, (t, run) in enumerate(zip(tracks, starts))
           for s in run]
    agents = [t.vehicle_id for t, run in zip(tracks, starts) for _ in run]
    return _from_stacks(ids, agents, dt, windows[:, : tau + 1], windows[:, tau + 1 :], "ngsim")


def split_dataset(
    ds: Dataset, ratios: tuple[float, float, float] = (0.7, 0.1, 0.2), seed: int = 0
) -> tuple[Dataset, Dataset, Dataset]:
    """Partition by vehicle id so no vehicle leaks across splits.

    Deterministic for a fixed seed; the three ratios must be finite, >= 0 and sum to 1.
    """
    if len(ratios) != 3:
        raise ValueError(f"split ratios must be three (train, val, test), got {ratios}")
    if not all(map(non_negative, ratios)):
        raise ValueError(f"split ratios must be finite and >= 0, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {ratios}")
    vehicles = sorted({seg.agent_id for seg in ds.segments})
    rng = _stream_rng(seed, "split")
    order = [vehicles[i] for i in rng.permutation(len(vehicles))]
    n = len(order)
    c1 = int(round(n * ratios[0]))
    c2 = int(round(n * (ratios[0] + ratios[1])))
    buckets = (set(order[:c1]), set(order[c1:c2]), set(order[c2:]))
    return tuple(Dataset([seg for seg in ds.segments if seg.agent_id in bucket], ds.dt, ds.tau,
                         ds.horizon, f"{ds.source}/{tag}")
                 for bucket, tag in zip(buckets, ("train", "val", "test")))


def _smoothstep(u: np.ndarray) -> np.ndarray:
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def gen_synthetic(
    scenario: str,
    n: int,
    noise_sigma: float,
    seed: int,
    tau: int = DEFAULT_TAU,
    horizon: int = DEFAULT_HORIZON,
    dt: float = DEFAULT_DT,
) -> Dataset:
    """Generate a seeded synthetic corpus of n segments.

    Scenarios: straight constant velocity (cv), constant acceleration (ca),
    a smoothstep lateral lane offset completing inside the window
    (lane_change), and a constant-curvature arc (turn). Each segment gets a
    random speed, heading and origin; i.i.d. Gaussian position noise of std
    noise_sigma is added on top.

    Draw order, segment by segment from the seed's ``"datagen"`` stream:
    uniform speed in [8, 15), heading in [-pi, pi), origin x and y in
    [-100, 100), then the acceleration in [-1, 1) (ca), the lane-change
    start in [0, window - 3 s) (lane_change) or the turn side (one
    ``integers(0, 2)``) and curvature magnitude in [0.003, 0.02) (turn),
    then, when noise_sigma > 0, one (tau+1+horizon, 2) normal draw. A
    uniform value is numpy's ``low + (high - low) * u`` of one unit double,
    so the same arguments give a byte-identical corpus on a given numpy.
    The segments' arrays are views of the two read-only stacks.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; valid: {', '.join(SCENARIOS)}")
    if (n := whole("n", n)) < 1:
        raise ValueError("n must be >= 1")
    if not non_negative(noise_sigma):
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    check_protocol(dt, tau, horizon)
    length = tau + 1 + horizon
    total = (length - 1) * dt
    if scenario == "lane_change" and total < LANE_CHANGE_DURATION:
        raise ValueError(f"lane_change needs a window of at least {LANE_CHANGE_DURATION} s "
                         f"for its manoeuvre, got (tau + horizon) * dt = {total:g} s")

    # Draw every random number first, in the documented order: the normal
    # sampler takes a variable number of raw draws, so segments cannot be
    # drawn in one batch. pts holds the noise, if any, and then the positions.
    rng = _stream_rng(seed, "datagen")
    noisy = noise_sigma > 0.0
    u = np.empty((n, 4 if scenario == "cv" else 5))  # unit uniform draws
    side = np.empty(n, dtype=np.int64)  # turn: the index rng.choice((-1.0, 1.0)) draws
    pts = np.empty((n, length, 2))
    for i in range(n):
        if scenario == "turn":
            rng.random(out=u[i, :4])
            side[i] = rng.integers(0, 2)
            u[i, 4] = rng.random()
        else:
            rng.random(out=u[i])
        if noisy:
            pts[i] = rng.normal(0.0, noise_sigma, size=(length, 2))

    # The geometry, a block of segments at a time: blocks bound the
    # temporaries, and no value depends on its block. A dt so large that a
    # position overflows is named by _from_stacks, not by numpy's warning.
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.arange(length) * dt
        for lo in range(0, n, GEOMETRY_BLOCK):
            rows = slice(lo, lo + GEOMETRY_BLOCK)
            for c, plane in enumerate(_positions(scenario, u[rows], side[rows], t, total)):
                if noisy:  # noise + x is x + noise bit for bit: IEEE addition commutes
                    pts[rows, :, c] += plane
                else:
                    pts[rows, :, c] = plane
    return _from_stacks([f"{scenario}-{i:05d}" for i in range(n)], range(n), dt,
                        pts[:, : tau + 1], pts[:, tau + 1 :], f"synthetic/{scenario}")


def _positions(scenario: str, u: np.ndarray, side: np.ndarray, t: np.ndarray,
               total: float) -> tuple[np.ndarray, np.ndarray]:
    """The noise-free (B, L) x and y planes of B segments, from their unit
    draws u (one row each), their turn sides and the (L,) times t. (B, 1)
    columns of the draws meet the times, and each value is made by the
    operations, in the order, of the per-segment formula in the comment
    above it."""
    speed = _uniform(u[:, 0:1], 8.0, 15.0)
    theta = _uniform(u[:, 1:2], -np.pi, np.pi)
    origin = _uniform(u[:, 2:4], -100.0, 100.0)
    cos, sin = np.cos(theta), np.sin(theta)
    if scenario == "turn":
        # origin + [sin(phi) - sin(theta), cos(theta) - cos(phi)] / curvature,
        # phi = theta + speed * curvature * t
        curvature = np.where(side == 1, 1.0, -1.0)[:, None] * _uniform(u[:, 4:], 0.003, 0.02)
        phi = theta + (speed * curvature) * t
        x, y = np.sin(phi) - sin, cos - np.cos(phi)
        x /= curvature
        y /= curvature
    else:
        # origin + arc * [cos, sin] (+ offset * [-sin, cos] on a lane change),
        # arc = speed * t (+ 0.5 * accel * t * t on ca)
        arc = speed * t
        if scenario == "ca":
            arc += ((0.5 * _uniform(u[:, 4:], -1.0, 1.0)) * t) * t
        x, y = arc * cos, arc * sin
    x += origin[:, 0:1]
    y += origin[:, 1:2]
    if scenario == "lane_change":
        t0 = _uniform(u[:, 4:], 0.0, total - LANE_CHANGE_DURATION)
        offset = LANE_WIDTH * _smoothstep((t - t0) / LANE_CHANGE_DURATION)
        x += offset * -sin
        y += offset * cos
    return x, y


def _uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """numpy's ``Generator.uniform(low, high)`` of the unit draws u, bit for bit."""
    return low + (high - low) * u


def round6(values, outward: bool = False) -> np.ndarray:
    """Each value at 6 decimals: the double nearest n / 10**6 for an integer n.

    By default n is v * 10**6 rounded half to even, so the result is bitwise
    ``round(float(v), 6)``. With ``outward`` the values are (..., 3) Gaussian
    parameters ``[sigma_x, sigma_y, rho]``: each sigma is rounded up, so one
    > 0 never shrinks and never becomes 0, and rho toward zero, so |rho|
    never grows and stays < 1; the determinant sigma_x^2 sigma_y^2 (1 - rho^2)
    never shrinks. Non-finite values are kept.

    ``s = v * 1e6`` is the exact product rounded to a double. Half-integers
    and integers below 2**52 in magnitude are doubles and rounding is
    monotone, so s lies on the same side of each of them as the exact
    product unless s is one. So where |s| < 2**52 and s is not a
    half-integer (with ``outward``, not an integer), ``rint`` of s (``ceil``,
    and ``trunc`` for rho) is n; there ``s - rint(s)`` is exact by Sterbenz's
    lemma, and IEEE division of the exact n by 1e6 gives the double nearest
    n / 10**6. The other elements are rounded exactly in integers, from the
    ratio ``as_integer_ratio`` gives.
    """
    v = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # such elements take the exact path
        s = v * 1e6
        # with outward, each sigma up and rho (the third column) toward zero
        n = np.where(np.arange(3) < 2, np.ceil(s), np.trunc(s)) if outward else np.rint(s)
        fast = (s != n if outward else np.abs(s - n) != 0.5) & (np.abs(s) < 2.0**52)
    out = np.divide(n, 1e6, out=np.empty_like(v))  # out=: a 0-d result stays writable
    for i in np.flatnonzero(~fast).tolist():  # i indexes v and out in C order
        if math.isfinite(x := v.item(i)):  # else x is kept
            num, den = abs(x).as_integer_ratio()
            down, rest = divmod(num * 10**6, den)  # |x| * 10**6 is down + rest / den
            up = (rest > 0 and x > 0 and i % 3 < 2 if outward  # a positive sigma off the grid
                  else 2 * rest > den or (2 * rest == den and down % 2 == 1))
            x = math.copysign((down + up) / 10**6, x)
        out.flat[i] = x
    return out


# The text of each 3-digit group g in [0, 1000) in five forms, as NUL-padded
# little-endian words: 1000 words a form, at the offsets named below.
_GROUP_FORMS = (
    lambda s: s.lstrip("0"),  # _BARE: no leading zeros, nothing for 0
    lambda s: s.lstrip("0") or "0",  # _UNITS: no leading zeros, "0" for 0
    lambda s: s,  # _PADDED: three digits
    lambda s: s.rstrip("0") or "0",  # _HEAD: no trailing zeros, "0" for 0
    lambda s: s.rstrip("0"),  # _TAIL: no trailing zeros, nothing for 0
)
_GROUPS = np.frombuffer("".join(form(f"{g:03d}").ljust(4, "\0") for form in _GROUP_FORMS
                                for g in range(1000)).encode(), "<u4")
_BARE, _UNITS, _PADDED, _HEAD, _TAIL = range(0, 5000, 1000)
_MINUS, _POINT = ord("-") << 24, ord(".") << 24  # characters in a word's fourth byte
# repr's exponent text of n / 10**6 for n in [1, 100), "1e-06" to "9.9e-05", as the
# five words after the sign, three characters a word; row 0 is not used
_SMALL = np.frombuffer("".join(repr(n / 1e6).ljust(15, "\0")[i : i + 3].ljust(4, "\0")
                               for n in range(100) for i in range(0, 15, 3)).encode(),
                       "<u4").reshape(100, 5)
TEXT_BLOCK = 128  # records whose JSONL text write_jsonl and write_predictions build at once


def number_words(values) -> tuple[np.ndarray, np.ndarray]:
    """The ``repr`` text of each :func:`round6` value, and which values it is exact for.

    Text is six little-endian words a value, (..., 6) uint32: the sign, the
    integer part as three 3-digit groups (the decimal point in the fourth
    byte of the last) and the fraction as two, NUL wherever ``repr`` has no
    character; deleting the NULs leaves the text. A value of 1e-6 <= |v| <
    1e-4 takes its five words after the sign from a 99-entry table of
    ``repr``'s exponent text (``1.2e-05``) instead.

    Exact for every round6 value below 1e9 in magnitude, in either mode: +-0
    and 1e-6 <= |v| < 1e9. Such a v is the double nearest n / 10**6 for an
    integer n below 2**53 (:func:`round6` gives the argument), so v * 1e6 is
    within 0.25 of n and n = rint(|v| * 10**6). The ulp of v is below 1e-6,
    so no other decimal with at most 6 fractional digits rounds to v, and the
    shortest round-trip text ``repr`` writes is n / 10**6 with trailing zeros
    dropped, keeping one fractional digit, with v's sign, in exponent
    notation below 1e-4 (n < 100). The flag is |v| < 1e9; a value that is not
    a round6 value gets arbitrary text.
    """
    v = np.asarray(values, dtype=float)
    a = np.abs(v)
    exact = a < 1e9
    n = np.rint(np.where(exact, a, 0.0) * 1e6).astype(np.int64)
    whole = (n // 10**6).astype(np.int32)
    frac = (n - whole.astype(np.int64) * 10**6).astype(np.int32)
    g1, low = np.divmod(whole, 10**6)
    g2, g3 = np.divmod(low, 1000)
    g4, g5 = np.divmod(frac, 1000)
    words = np.empty(v.shape + (6,), "<u4")
    words[..., 0] = np.signbit(v) * np.uint32(_MINUS)
    words[..., 1] = _GROUPS[g1 + _BARE]
    words[..., 2] = _GROUPS[g2 + np.where(g1 > 0, _PADDED, _BARE)]
    words[..., 3] = _GROUPS[g3 + np.where(whole >= 1000, _PADDED, _UNITS)] | _POINT
    words[..., 4] = _GROUPS[g4 + np.where(g5 > 0, _PADDED, _HEAD)]
    words[..., 5] = _GROUPS[g5 + _TAIL]
    if (a < 1e-4).any():  # repr's exponent text, for 0 < n < 100
        small = (n > 0) & (n < 100)
        words[small, 1:] = _SMALL[n[small]]
    return words, exact


def _word(text: str) -> int:
    return int.from_bytes(text.encode().ljust(4, b"\0"), "little")


def points_json(points, outward: bool = False) -> list[str]:
    """``json.dumps(round6(row, outward).tolist(), separators=(",", ":"))`` of each (P, k)
    row of a (B, P, k) block, such as pairs of coordinates, or with ``outward`` triples of
    Gaussian parameters, by :func:`number_words`; the exact pass, ``json.dumps``, writes a
    row holding a value of 1e9 or more in magnitude, or not finite."""
    points = round6(points, outward)
    b, p, k = points.shape
    words, exact = number_words(points)
    rows = np.empty((b, p * k * 6 + 2), "<u4")  # "[", P points of k values, "]\n"
    rows[:, 0], rows[:, -1] = _word("["), _word("]\n")
    opening = np.full(p, _word(",["), "<u4")
    opening[:1] = _word("[")
    values = rows[:, 1:-1].reshape(b, p, k, 6)
    values[...] = words
    values[:, :, 0, 0] |= opening  # the sign stays in the fourth byte
    values[:, :, 1:, 0] |= _word(",")
    values[:, :, -1, 5] |= ord("]") << 24
    text = rows.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:b]
    for i in np.flatnonzero(~exact.all(axis=(1, 2))).tolist():
        text[i] = json.dumps(points[i].tolist(), separators=(",", ":"))
    return text


@lru_cache(typed=True)  # typed: 1.0 and an int subclass's 1 ("1") share a key otherwise
def _dt_json(dt) -> str:
    return json.dumps(round(dt, 6))


def _write_blocks(path: str, n: int, block_lines) -> None:
    """Write the lines ``block_lines(rows)`` gives for each slice of ``TEXT_BLOCK`` of n records."""
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, n, TEXT_BLOCK):
            fh.write("".join(block_lines(slice(lo, lo + TEXT_BLOCK))))


def _segment_line(sid: str, agent: int, dt: str, history: str, future: str) -> str:
    """The line :func:`write_jsonl` writes for a segment, given dt's and the points' text."""
    return (f'{{"segment_id":{encode_basestring_ascii(sid)},"agent_id":{agent},"dt":{dt},'
            f'"history":{history},"future":{future}}}\n')


def write_jsonl(ds: Dataset, path: str) -> None:
    """One JSON object per segment; coordinates rounded by :func:`round6` and
    written by :func:`points_json`, dt as ``json.dumps(round(dt, 6))``. A dt
    whose text would read 0, or a protocol dt other than its own by
    :func:`protocol_mismatch`, is rejected before the file is opened."""
    for dt in {ds.dt, *(seg.dt for seg in ds.segments)}:
        if (written := round(dt, 6)) == 0 or protocol_mismatch({"dt": written}, {"dt": dt}, ["dt"]):
            change = "rounds to 0" if written == 0 else f"reads back as {written!r}"
            raise ValueError(f"dt={dt!r} {change} at the 6 decimals a dataset file carries")
    _write_blocks(path, len(ds), lambda rows: (
        _segment_line(seg.segment_id, seg.agent_id, _dt_json(seg.dt), h, f)
        for seg, h, f in zip(ds.segments[rows], points_json(ds.histories()[rows]),
                             points_json(ds.futures()[rows]))))


def write_predictions(path: str, ids, means, sigmas, mode: str) -> None:
    """One JSON object per segment id: its (T, 2) means rounded by :func:`round6`, its (T, 3)
    sigmas ``[sigma_x, sigma_y, rho]`` rounded by ``round6(..., outward=True)`` (each sigma
    up, so a positive one never becomes 0; rho toward zero, so |rho| stays < 1), both
    written by :func:`points_json`, and mode.

    Before the file is opened, every id must be a distinct ``str``
    (:func:`_distinct_ids`), mode one :func:`_prediction_mode` takes, the (N, T, 2)
    means and (N, T, 3) sigmas must hold one row per id, every mean must be
    finite and every step a valid Gaussian (finite sigmas > 0, |rho| < 1); the
    first segment and step at fault is named.
    """
    if bad := [sid for sid in ids if not isinstance(sid, str)]:
        raise ValueError(f"segment_id must be a str, got {bad[0]!r}")
    _distinct_ids(ids)
    mode = json.dumps(_prediction_mode(mode))
    means, sigmas = np.asarray(means, dtype=float), np.asarray(sigmas, dtype=float)
    if not (means.ndim == 3 and means.shape[::2] == (len(ids), 2)
            and sigmas.shape == means.shape[:2] + (3,)):
        raise ValueError(f"{len(ids)} segment ids need (N, T, 2) means and (N, T, 3) sigmas "
                         f"with N = {len(ids)}, got {means.shape} and {sigmas.shape}")
    valid = np.isfinite(means).all(axis=2) & (  # a NaN fails every rule
        (sigmas > [0.0, 0.0, -1.0]) & (sigmas < [np.inf, np.inf, 1.0])).all(axis=2)
    if not valid.all():
        i, t = np.argwhere(~valid)[0].tolist()
        raise ValueError(f"segment {ids[i]}: step {t + 1}: means {means[i, t].tolist()} must be "
                         f"finite, sigmas {sigmas[i, t].tolist()} finite, > 0 and |rho| < 1")
    _write_blocks(path, len(ids), lambda rows: (
        f'{{"segment_id":{encode_basestring_ascii(sid)},"means":{m},"sigmas":{s},'
        f'"mode":{mode}}}\n'
        for sid, m, s in zip(ids[rows], points_json(means[rows]),
                             points_json(sigmas[rows], outward=True))))


_JSON_KINDS = {"string": (str,), "integer": (int,), "number": (int, float), "boolean": (bool,),
               "object": (dict,)}


def json_value(obj: dict, key: str, kind: str):
    """obj[key], which must be a JSON ``kind`` (string, integer, number, boolean or object);
    true is not the number 1, and 1.0 is not an integer."""
    if type(value := obj[key]) not in _JSON_KINDS[kind]:
        raise ValueError(f"{key} must be a JSON {kind}, got {json.dumps(value)}")
    return value


def read_records(path: str, fields: tuple[str, ...], parse) -> list:
    """``parse(obj)`` of the JSON object on each non-blank line of a JSONL file.

    The one line loop of every JSONL reader. A line that is not valid JSON,
    not a JSON object or lacks one of ``fields``, whose ``segment_id`` is not
    a JSON string or repeats an earlier line's, or that ``parse`` rejects
    (ValueError, TypeError or OverflowError) is rejected with the path and
    line number.
    """
    records, first_line = [], {}
    with reading(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                if not isinstance(obj := json.loads(line), dict):
                    raise ValueError("expected a JSON object")
                if missing := [key for key in fields if key not in obj]:
                    raise ValueError(f"missing field '{missing[0]}'")
                sid = json_value(obj, "segment_id", "string")
                records.append(parse(obj))
                if (first := first_line.setdefault(sid, lineno)) != lineno:
                    raise ValueError(f"repeated segment id {sid!r} (first on line {first})")
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from None
            except RecursionError:
                raise ValueError(f"{path}: line {lineno}: JSON nested too deeply") from None
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return records


def _prediction_mode(mode) -> str:
    """``mode``, which must be one of the two a predictions file holds."""
    if mode not in ("refined", "vanilla"):
        raise ValueError(f"mode must be 'refined' or 'vanilla', got {mode!r}")
    return mode


def read_predictions(path: str, horizon: int) -> list[tuple[str, np.ndarray, str]]:
    """The (segment id, (horizon, 2) means, mode) of each line of a file
    :func:`write_predictions` writes, checked by :func:`read_records`; ``mode``
    must be "refined" or "vanilla" (:func:`_prediction_mode`), the means finite. ``sigmas``
    is not read."""
    def prediction(obj: dict) -> tuple[str, np.ndarray, str]:
        mode = _prediction_mode(obj["mode"])
        means = json_points(obj["means"], "means")
        if means.shape != (horizon, 2) or not np.isfinite(means).all():
            raise ValueError(f"means must be a finite ({horizon}, 2) array")
        return obj["segment_id"], means, mode

    return read_records(path, ("segment_id", "means", "mode"), prediction)


def json_points(value, name: str, rows: str = "[x, y] pairs") -> np.ndarray:
    """A decoded JSON array of number rows, [x, y] pairs by default, as a float
    array; a string, boolean or null in it is rejected, not cast. Callers
    check the shape."""
    try:
        kinds = set(map(type, chain.from_iterable(value)))
    except TypeError:
        raise ValueError(f"{name} must be an array of {rows}") from None
    if not kinds <= {int, float}:
        raise ValueError(f"{name} must hold only JSON numbers")
    return np.asarray(value, dtype=float)


def _coordinates(texts: list[str]) -> np.ndarray:
    """The (B, P, 2) values of B ``[[x,y],...]`` texts, each number converted as
    ``float`` does by numpy's C tokenizer; a ValueError unless each holds P pairs."""
    rows = "\n".join(texts).encode().translate(None, b"[]").decode().split("\n")
    if not all(rows):  # loadtxt skips an empty row and warns if all are; no segment has one
        raise ValueError("a text holds no numbers")
    return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2).reshape(len(texts), -1, 2)


def _read_bulk(path: str) -> Dataset | None:
    """read_jsonl's bulk pass: the dataset of a file as write_jsonl writes it, else None."""
    ids, agents, histories, futures, dt_text = [], [], [], [], None
    try:
        with open(path, encoding="utf-8") as fh:
            while lines := list(islice(fh, TEXT_BLOCK)):
                parts = [line.split('"') for line in lines]
                if dt_text is None:  # every line must repeat the first line's dt text
                    dt = float(dt_text := parts[0][8][1:-1])
                block = [p[3] for p in parts], [int(p[6][1:-1]) for p in parts]
                h, f = (_coordinates(texts) for texts in ([p[10][1:-1] for p in parts],
                                                         [p[12][1:-3] for p in parts]))
                if "".join(lines) != "".join(map(_segment_line, *block, repeat(dt_text),
                                                 points_json(h), points_json(f))):
                    return None
                ids += block[0]
                agents += block[1]
                histories.append(h)
                futures.append(f)
            if not ids or dt_text not in (_dt_json(dt), _dt_json(int(dt))):
                return None
            return _from_stacks(ids, agents, dt, np.concatenate(histories),
                                np.concatenate(futures), path)
    except (ValueError, IndexError, OverflowError):  # a decode error is a ValueError;
        return None  # int() of an infinite dt overflows


def read_jsonl(path: str) -> Dataset:
    """Inverse of :func:`write_jsonl`; schema errors carry the line number.

    Every segment must share the first one's protocol and have its own
    segment id. ``segment_id`` must be a JSON string, ``agent_id`` a JSON
    integer and ``dt``, ``history`` and ``future`` JSON numbers. Keys other
    than the segment fields, such as the ``neighbors`` list older files
    carry, are ignored.

    A bulk pass reads ``TEXT_BLOCK`` lines at a time, split on ``"``; numpy's
    C tokenizer (``np.loadtxt``) parses a block's histories and its futures,
    each number as ``float`` does. It keeps a file only if write_jsonl's line
    builder rebuilds every line byte for byte from what it parsed and
    :func:`_from_stacks` accepts the stacks; any other file takes the exact
    pass, ``json.loads`` line by line, which names the first line at fault.
    """
    if (ds := _read_bulk(path)) is not None:
        return ds
    protocol: dict[str, tuple[float, int, int]] = {}  # the first segment's

    def segment(obj: dict) -> tuple:
        agent, dt = json_value(obj, "agent_id", "integer"), json_value(obj, "dt", "number")
        seg = Segment(obj["segment_id"], agent, float(dt), json_points(obj["history"], "history"),
                      json_points(obj["future"], "future"))
        shape = (seg.dt, len(seg.history), len(seg.future))
        if (first := protocol.setdefault("first", shape)) != shape:
            raise ValueError(f"segment protocol {shape} does not match first segment {first}")
        return seg.segment_id, seg.agent_id, seg.history, seg.future

    fields = ("segment_id", "agent_id", "dt", "history", "future")
    if not (records := read_records(path, fields, segment)):
        return Dataset([], DEFAULT_DT, DEFAULT_TAU, DEFAULT_HORIZON, source=path)
    ids, agents, histories, futures = zip(*records)
    return _from_stacks(ids, agents, protocol["first"][0], np.array(histories),
                        np.array(futures), path)
