"""Shared domain types: frames, the window grid, and tracker configuration.

A frame is a float64 raster with intensities in [0, 255], built from uint8
pixels (as read from disk) or from any array whose values pass the range check.
The grid chops a frame into equal non-overlapping windows; pixels in the
right/bottom margin left over by the flooring are not part of any window.

Every JSON config, spec and record is read by :func:`read_json` and
:func:`read_fields` (a key -> (field, converter) table), so malformed input
becomes one :class:`ValidationError` naming the file or the key. Configs and
scenes are written back from their fields by :func:`to_json`; every JSONL
record file is written by :func:`write_jsonl`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np


class ValidationError(ValueError):
    """A domain object or config file violates its invariants."""


@dataclass(frozen=True)
class Frame:
    """One image frame; gray arrays are (h, w), RGB arrays are (h, w, 3)."""

    pixels: np.ndarray
    index: int = 0
    fps: float = 10.0

    def __post_init__(self):
        raw = np.asarray(self.pixels)
        arr = np.ascontiguousarray(raw, dtype=np.float64)
        if arr.ndim == 3 and arr.shape[2] == 1:
            arr = arr[:, :, 0]
        if arr.ndim not in (2, 3) or (arr.ndim == 3 and arr.shape[2] != 3):
            raise ValidationError(f"frame must be (h, w) or (h, w, 3), got {arr.shape}")
        if arr.size == 0:
            raise ValidationError("empty frame")
        # uint8 cannot leave [0, 255]; the scan is written so NaN fails too,
        # as every comparison with NaN is False
        if raw.dtype != np.uint8 and not (arr.min() >= 0 and arr.max() <= 255):
            raise ValidationError("pixel intensities must be finite and lie in [0, 255]")
        if not 0 < self.fps < math.inf:  # NaN fails too
            raise ValidationError("fps must be positive and finite")
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return 1 if self.pixels.ndim == 2 else 3

    @property
    def timestamp_s(self) -> float:
        return self.index / self.fps


@dataclass(frozen=True)
class GridConfig:
    """Non-overlapping window grid over a frame, row-major window indices."""

    frame_w: int
    frame_h: int
    window_w: int = 30
    window_h: int = 30

    def __post_init__(self):
        if self.window_w < 1 or self.window_h < 1:
            raise ValidationError("window dimensions must be >= 1")
        if self.window_w > self.frame_w or self.window_h > self.frame_h:
            raise ValidationError("window dimensions must not exceed frame dimensions")

    @property
    def cols(self) -> int:
        return self.frame_w // self.window_w

    @property
    def rows(self) -> int:
        return self.frame_h // self.window_h

    @property
    def num_windows(self) -> int:
        return self.rows * self.cols

    def window_index_at(self, x: float, y: float) -> int:
        """Window containing pixel (x, y); clamped to the covered area."""
        col = min(max(int(x) // self.window_w, 0), self.cols - 1)
        row = min(max(int(y) // self.window_h, 0), self.rows - 1)
        return row * self.cols + col

    def grid_coords(self, i: int) -> tuple[int, int]:
        """(row, col) of window ``i``."""
        self._check_index(i)
        return divmod(i, self.cols)

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.num_windows:
            raise ValidationError(
                f"window index {i} out of range [0, {self.num_windows})"
            )


def window_rect(grid: GridConfig, i: int) -> tuple[int, int, int, int]:
    """Pixel rectangle (x, y, w, h) of window ``i``."""
    row, col = grid.grid_coords(i)
    return (col * grid.window_w, row * grid.window_h, grid.window_w, grid.window_h)


def window_center(grid: GridConfig, i: int) -> tuple[float, float]:
    """Geometric center of window ``i`` in pixel coordinates."""
    x, y, w, h = window_rect(grid, i)
    return (x + w / 2.0, y + h / 2.0)


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box given by center, size and a detection score."""

    cx: float
    cy: float
    w: float
    h: float
    score: float = 0.0

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise ValidationError("bounding box must have positive size")

    @property
    def area(self) -> float:
        return self.w * self.h

    def clamped(self, frame_w: int, frame_h: int) -> "BoundingBox":
        """Shift the center so the box lies within the frame."""
        hw, hh = self.w / 2.0, self.h / 2.0
        cx = min(max(self.cx, hw), frame_w - hw)
        cy = min(max(self.cy, hh), frame_h - hh)
        return BoundingBox(cx, cy, self.w, self.h, self.score)


def band_bin_range(slide: int, fps: float, band: tuple[float, float]) -> range:
    """Bins k in [1, slide) whose frequency k * fps / slide lies in the band, 1e-9 slack.

    The frequency rises with k, so the bins form a range: its ends are solved for
    in closed form, then moved by a step or two until they agree with the test
    on each bin's own frequency.
    """
    lo, hi = band[0] - 1e-9, band[1] + 1e-9

    def freq(k: int) -> float:
        return k * fps / slide

    first = math.ceil(min(slide, max(1.0, lo * slide / fps)))
    while first > 1 and freq(first - 1) >= lo:
        first -= 1
    while first < slide and freq(first) < lo:
        first += 1
    last = math.floor(min(slide - 1.0, max(0.0, hi * slide / fps)))
    while last < slide - 1 and freq(last + 1) <= hi:
        last += 1
    while last >= first and freq(last) > hi:
        last -= 1
    return range(first, last + 1)


@dataclass(frozen=True)
class TrackerConfig:
    """Detection parameters for the periodic-motion tracker.

    ``slide`` is the number of frames per detection cycle, ``pool`` the number
    of candidate trajectories kept for frequency inspection, ``delta`` the
    amplitude threshold a candidate must reach inside ``band`` (Hz) to count
    as a detection, and ``intensity_range`` the closed intensity interval that
    the evidence model treats as flipper-like. ``band_range``, derived from
    ``slide``, ``fps`` and ``band`` and not a field, is the range of in-band bins.
    """

    slide: int = 15
    pool: int = 5
    delta: float = 75.0
    epsilon: float = 0.1
    intensity_range: tuple[float, float] = (180.0, 255.0)
    fps: float = 10.0
    band: tuple[float, float] = (1.0, 2.0)
    stride: int = 0  # 0 means "use slide"
    window_w: int = 30
    window_h: int = 30
    gauss_sigma: float = 1.0

    def __post_init__(self):
        if self.stride == 0:
            object.__setattr__(self, "stride", self.slide)
        object.__setattr__(
            self, "intensity_range", tuple(float(v) for v in self.intensity_range)
        )
        object.__setattr__(self, "band", tuple(float(v) for v in self.band))
        for name in ("delta", "fps", "gauss_sigma", "band"):
            if not all(math.isfinite(v) for v in np.atleast_1d(getattr(self, name))):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.slide < 1:
            raise ValidationError("slide size must be >= 1")
        if self.pool < 1:
            raise ValidationError("pool size must be >= 1")
        if not 0.0 < self.epsilon < 0.5:
            raise ValidationError("epsilon must lie in (0, 0.5)")
        lo, hi = self.intensity_range
        if not 0.0 <= lo <= hi <= 255.0:
            raise ValidationError("intensity range must satisfy 0 <= lo <= hi <= 255")
        if self.band[0] >= self.band[1]:
            raise ValidationError("band must satisfy low < high")
        if not 1 <= self.stride <= self.slide:
            raise ValidationError("stride must lie in [1, slide]")
        if self.fps <= 0:
            raise ValidationError("fps must be positive")
        if self.gauss_sigma < 0:
            raise ValidationError("gauss_sigma must be >= 0")
        band_range = band_bin_range(self.slide, self.fps, self.band)
        if not band_range:
            raise ValidationError(
                f"no integer DFT bin of a length-{self.slide} series at "
                f"{self.fps} fps falls inside the band {self.band}"
            )
        object.__setattr__(self, "band_range", band_range)  # derived, not a field

    def band_bins(self) -> list[int]:
        """Non-DC DFT bins whose center frequency lies inside the band."""
        return list(self.band_range)

    @property
    def window(self) -> tuple[int, int]:
        return (self.window_w, self.window_h)

    def to_dict(self) -> dict:
        return {key: to_json(getattr(self, name)) for key, (name, _) in _TRACKER_KEYS.items()}

    @classmethod
    def from_dict(cls, raw: dict) -> "TrackerConfig":
        kwargs = read_fields(raw, _TRACKER_KEYS, "tracker config")
        if "window" in kwargs:
            kwargs["window_w"], kwargs["window_h"] = kwargs.pop("window")
        return cls(**kwargs)


def read_json(source, what: str) -> dict:
    """Parse a JSON file (a path or a packaged resource) whose top level must be an object.

    Anything but an unreadable file (``OSError``) raises a :class:`ValidationError`.
    """
    if isinstance(source, str) and source:  # Path("") would be the working directory
        source = Path(source)
    if not hasattr(source, "read_bytes"):
        raise ValidationError(f"{what} must name a file, got {source!r}")
    try:
        data = json.loads(source.read_bytes())
    except (ValueError, RecursionError) as exc:  # bad JSON, undecodable bytes, deep nesting
        raise ValidationError(f"{source}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{source}: {what} must be a JSON object")
    return data


def write_jsonl(path, items) -> None:
    """Write each item's ``to_record()`` as one sorted-key JSON line; ``"-"`` is stdout."""
    lines = "".join(json.dumps(item.to_record(), sort_keys=True) + "\n" for item in items)
    if path == "-":
        sys.stdout.write(lines)
    else:
        Path(path).write_text(lines)


def read_fields(raw: dict, table: dict, what: str, required: tuple = ()) -> dict:
    """Keyword arguments from a JSON object via a key -> (field, converter) table.

    A non-object, an unknown key, a missing ``required`` key, or a value its
    converter cannot read raises a :class:`ValidationError` naming ``what`` and
    the key. A ValidationError from a converter (a nested object's own check)
    passes through unchanged.
    """
    if not isinstance(raw, dict):
        raise ValidationError(f"{what} must be a JSON object")
    unknown = set(raw) - set(table)
    if unknown:
        raise ValidationError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [key for key in required if key not in raw]
    if missing:
        raise ValidationError(f"{what} is missing keys: {missing}")
    kwargs = {}
    for key, value in raw.items():
        name, convert = table[key]
        try:
            kwargs[name] = convert(value)
        except ValidationError:
            raise
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"{what} key {key!r}: cannot read {value!r}") from None
    return kwargs


def to_json(value):
    """The JSON form of a value, the inverse of the read side.

    A dataclass becomes an object keyed by field name, an Enum its name, and a
    tuple or list a list (``listof`` reads only lists), recursively.
    """
    if dataclasses.is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return value.name
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    return value


def fields(names, convert) -> dict:
    """Table entries for keys that are read into fields of the same name."""
    return {name: (name, convert) for name in names}


def nested(cls, table: dict, what: str, required: tuple = ()):
    """Converter of a nested JSON object into ``cls``."""
    return lambda raw: cls(**read_fields(raw, table, what, required))


def integer(value) -> int:
    """Converter of an integral JSON number; bools and fractions are refused, not truncated."""
    if isinstance(value, bool) or not float(value).is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def finite(value) -> float:
    """Converter of a finite JSON number; bools, NaN and infinities are refused."""
    if isinstance(value, bool) or not math.isfinite(number := float(value)):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def optional(convert):
    """Converter of a value that may be null."""
    return lambda value: None if value is None else convert(value)


def listof(convert, length: int | None = None):
    """Converter of a JSON list (of exactly ``length`` items, if given) into a tuple."""

    def convert_list(value) -> tuple:
        if not isinstance(value, list) or length not in (None, len(value)):
            raise TypeError(f"{value!r} is not a list of {length or 'any number of'} items")
        return tuple(convert(v) for v in value)

    return convert_list


# tracker config JSON key -> (TrackerConfig field, converter)
_TRACKER_KEYS = {
    "T": ("slide", integer),
    "p": ("pool", integer),
    "R": ("intensity_range", listof(finite, 2)),
    "band": ("band", listof(finite, 2)),
    "stride": ("stride", integer),
    "window": ("window", listof(integer, 2)),
    **fields(("delta", "epsilon", "fps", "gauss_sigma"), finite),
}


def load_tracker_config(path: str | Path) -> TrackerConfig:
    return TrackerConfig.from_dict(read_json(path, "tracker config"))


def grid_for(cfg: TrackerConfig, frame_w: int, frame_h: int) -> GridConfig:
    grid = GridConfig(frame_w, frame_h, cfg.window_w, cfg.window_h)
    if cfg.pool > grid.num_windows:
        raise ValidationError(
            f"pool size {cfg.pool} exceeds the {grid.num_windows}-window grid"
        )
    return grid


def luminance(frame: Frame) -> Frame:
    """RGB to gray via 0.299R + 0.587G + 0.114B, rounded half-up.

    Gray input passes through unchanged.
    """
    if frame.channels == 1:
        return frame
    rgb = frame.pixels
    gray = 0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2]
    gray = np.clip(np.floor(gray + 0.5), 0.0, 255.0)
    return Frame(gray, index=frame.index, fps=frame.fps)


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of one detection cycle."""

    trajectory: np.ndarray  # slide-size window indices, one per frame
    score: float
    detected: bool
    bbox: BoundingBox
    cycle_index: int
    pool_scores: tuple = field(default=(), compare=False)

    def __post_init__(self):
        traj = np.ascontiguousarray(self.trajectory, dtype=np.int64)
        traj.setflags(write=False)
        object.__setattr__(self, "trajectory", traj)

    @property
    def terminal_window(self) -> int:
        return int(self.trajectory[-1])

    def to_record(self) -> dict:
        return {
            "cycle": self.cycle_index,
            "detected": self.detected,
            "score": self.score,
            "window": self.terminal_window,
            "bbox": [self.bbox.cx, self.bbox.cy, self.bbox.w, self.bbox.h],
        }
