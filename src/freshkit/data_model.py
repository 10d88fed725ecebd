"""Core value types and the on-disk formats the toolkit understands.

Three formats exist: a record CSV with header ``id,split,label,logit_0,...``,
binary PGM (P5) for masks, and binary PPM (P6) for images, both with
maxval 255. Everything else the toolkit emits is JSON produced by the CLI.

A record CSV reads into one RecordTable: the id and split columns as
tuples, the labels as an int64 array (-1 for unlabeled rows), and the
numeric columns as an (n, C) float64 matrix.

Value types are immutable: dataclasses are frozen and array-backed types
expose read-only numpy arrays, so instances can be shared across workers
without copying.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    BadLabelIndex,
    BadMagic,
    BadSplitTag,
    DimensionMismatch,
    InconsistentWidth,
    InputFormatError,
    MalformedHeader,
    NonFiniteLogit,
    TruncatedPayload,
    UnsupportedMaxval,
)

__all__ = [
    "Split",
    "RecordTable",
    "BinaryMask",
    "RgbImage",
    "read_utf8",
    "read_logit_csv",
    "write_logit_csv",
    "read_pgm",
    "read_pgm_values",
    "write_pgm",
    "read_ppm",
    "write_ppm",
    "grayscale_as_rgb",
]


class Split(str, Enum):
    """Which partition a record belongs to."""

    TRAIN = "train"
    VAL = "val"
    TEST = "test"
    OOD = "ood"


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class RecordTable:
    """Samples as columns; labels is -1 for unlabeled or OOD rows."""

    ids: tuple[str, ...]
    splits: tuple[Split, ...]
    labels: np.ndarray  # (n,) int64
    values: np.ndarray  # (n, C) float64

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        n = len(self.ids)
        if (len(self.splits) != n or labels.shape != (n,) or values.ndim != 2
                or values.shape[0] != n or values.shape[1] < 1):
            raise DimensionMismatch(f"columns do not line up: {n} ids, {len(self.splits)} "
                                    f"splits, labels {labels.shape}, values {values.shape}")
        object.__setattr__(self, "labels", _freeze(labels))
        object.__setattr__(self, "values", _freeze(values))


@dataclass(frozen=True, eq=False)
class _Raster:
    """Shared by the image types: a read-only pixel array compared by value."""

    pixels: np.ndarray

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return bool(np.array_equal(self.pixels, other.pixels))


@dataclass(frozen=True, eq=False)
class BinaryMask(_Raster):
    """A height x width boolean array; True marks foreground."""

    def __post_init__(self) -> None:
        px = np.asarray(self.pixels)
        if px.ndim != 2 or px.shape[0] < 1 or px.shape[1] < 1:
            raise DimensionMismatch(f"mask must be 2-D and nonempty, got shape {px.shape}")
        object.__setattr__(self, "pixels", _freeze(px.astype(bool)))

    def foreground_count(self) -> int:
        return int(self.pixels.sum())


@dataclass(frozen=True, eq=False)
class RgbImage(_Raster):
    """A height x width x 3 uint8 array, sRGB channel order."""

    def __post_init__(self) -> None:
        px = np.asarray(self.pixels)
        if px.ndim != 3 or px.shape[2] != 3 or px.shape[0] < 1 or px.shape[1] < 1:
            raise DimensionMismatch(f"image must be (h, w, 3), got shape {px.shape}")
        object.__setattr__(self, "pixels", _freeze(px.astype(np.uint8)))


# --- text files -----------------------------------------------------------

def read_utf8(path: str | Path, error: type[InputFormatError] = InputFormatError) -> str:
    """A file's text, newlines untranslated; bytes that are not UTF-8 raise
    error, naming the path and the byte offset."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8: byte {exc.start} ({exc.reason})") from None


# --- logit CSV ------------------------------------------------------------

_SPLIT_TAGS = {s.value: s for s in Split}


def read_logit_csv(path: str | Path, column_prefix: str = "logit") -> RecordTable:
    """Parse a logit table.

    The header must be exactly ``id,split,label,<prefix>_0,...,<prefix>_{C-1}``
    with C >= 1 inferred from the header and constant across rows. Labels must
    be integers in [-1, C); an empty label field means "no label" and is read
    as -1. Logits must be finite floats. Errors carry the 1-based row number
    of the offending line. A file with no data rows gives a (0, C) table.
    """
    return _read_table(path, column_prefix, bounded=True)


def read_feature_csv(path: str | Path, column_prefix: str = "x") -> RecordTable:
    """Parse the same layout with numeric columns read as input features.

    Identical to read_logit_csv except that the column count does not bound
    the label: features and classes are independent axes, so any label >= -1
    is accepted, up to the int64 limit.
    """
    return _read_table(path, column_prefix, bounded=False)


def _read_table(path: str | Path, column_prefix: str, bounded: bool) -> RecordTable:
    path = Path(path)
    rows = list(csv.reader(io.StringIO(read_utf8(path), newline="")))
    if not rows:
        raise MalformedHeader(f"{path}: empty file")
    header = rows[0]
    if len(header) < 4 or header[:3] != ["id", "split", "label"]:
        raise MalformedHeader(f"{path}: header must start with id,split,label")
    expected = [f"{column_prefix}_{i}" for i in range(len(header) - 3)]
    if header[3:] != expected:
        raise MalformedHeader(
            f"{path}: logit columns must be {column_prefix}_0..{column_prefix}_{len(header) - 4}"
        )
    width = len(header)
    n_classes = width - 3

    ids, splits, labels, values = [], [], [], []
    for row_no, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise InconsistentWidth(f"{path}:{row_no}: expected {width} fields, got {len(row)}")
        rec_id, split_tag, label_text = row[0], row[1], row[2]
        if split_tag not in _SPLIT_TAGS:
            raise BadSplitTag(f"{path}:{row_no}: unknown split {split_tag!r}")
        if label_text == "":
            label = -1
        else:
            try:
                label = int(label_text)
            except ValueError:
                raise BadLabelIndex(f"{path}:{row_no}: label {label_text!r} is not an integer") from None
        if label < -1 or (bounded and label >= n_classes):
            bound = n_classes if bounded else "inf"
            raise BadLabelIndex(f"{path}:{row_no}: label {label} outside [-1, {bound})")
        if label >= 2 ** 63:
            raise BadLabelIndex(f"{path}:{row_no}: label {label} does not fit in int64")
        for cell in row[3:]:
            try:
                value = float(cell)
            except ValueError:
                raise NonFiniteLogit(f"{path}:{row_no}: logit {cell!r} is not a float") from None
            if not math.isfinite(value):
                raise NonFiniteLogit(f"{path}:{row_no}: non-finite logit {cell!r}")
            values.append(value)
        ids.append(rec_id)
        splits.append(_SPLIT_TAGS[split_tag])
        labels.append(label)
    return RecordTable(tuple(ids), tuple(splits), np.array(labels, dtype=np.int64),
                       np.array(values, dtype=np.float64).reshape(len(ids), n_classes))


def write_logit_csv(path: str | Path, table: RecordTable,
                    column_prefix: str = "logit") -> None:
    """Write a table in the layout read_logit_csv accepts.

    Floats are written with repr so a read/write/read round trip reproduces
    the table bit for bit.
    """
    if not table.ids:
        raise DimensionMismatch("cannot write a logit CSV with zero records")
    n_classes = table.values.shape[1]
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "split", "label"] + [f"{column_prefix}_{i}" for i in range(n_classes)])
        # tolist() first: numpy scalars repr as np.float64(...), which would
        # not parse back
        for rec_id, split, label, row in zip(table.ids, table.splits, table.labels.tolist(),
                                             table.values.tolist()):
            label_text = "" if label == -1 else str(label)
            writer.writerow([rec_id, split.value, label_text] + [repr(v) for v in row])


# --- PGM / PPM ------------------------------------------------------------

def _parse_pnm_header(data: bytes, path: Path, magic: bytes) -> tuple[int, int, int]:
    """Return (width, height, payload_offset); validates magic and maxval."""
    if not data.startswith(magic):
        raise BadMagic(f"{path}: expected {magic.decode()} file")
    pos = len(magic)
    fields: list[int] = []
    while len(fields) < 3:
        if pos >= len(data):
            raise TruncatedPayload(f"{path}: header ends before width/height/maxval")
        byte = data[pos:pos + 1]
        if byte.isspace():
            pos += 1
        elif byte == b"#":
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
        elif byte.isdigit():
            end = pos
            while end < len(data) and data[end:end + 1].isdigit():
                end += 1
            fields.append(int(data[pos:end]))
            pos = end
        else:
            raise BadMagic(f"{path}: unexpected byte {byte!r} in header")
    if pos >= len(data) or not data[pos:pos + 1].isspace():
        raise TruncatedPayload(f"{path}: missing whitespace after maxval")
    pos += 1
    width, height, maxval = fields
    if maxval != 255:
        raise UnsupportedMaxval(f"{path}: maxval {maxval} unsupported, only 255")
    if width < 1 or height < 1:
        raise TruncatedPayload(f"{path}: degenerate dimensions {width}x{height}")
    return width, height, pos


def _read_pnm(path: str | Path, magic: bytes, channels: int) -> np.ndarray:
    """The uint8 payload of a binary PNM as (height, width, channels)."""
    path = Path(path)
    data = path.read_bytes()
    width, height, offset = _parse_pnm_header(data, path, magic)
    need = width * height * channels
    payload = data[offset:offset + need]
    if len(payload) < need:
        raise TruncatedPayload(f"{path}: payload has {len(payload)} bytes, needs {need}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)


def read_pgm_values(path: str | Path) -> np.ndarray:
    """Read a binary PGM (P5, maxval 255) as raw uint8 gray values."""
    return _read_pnm(path, b"P5", 1)[:, :, 0]


def read_pgm(path: str | Path) -> BinaryMask:
    """Read a binary PGM (P5, maxval 255); values >= 128 become foreground."""
    return BinaryMask(read_pgm_values(path) >= 128)


def write_pgm(path: str | Path, mask: BinaryMask) -> None:
    """Write a mask as P5 with foreground 255 and background 0."""
    payload = np.where(mask.pixels, 255, 0).astype(np.uint8)
    header = f"P5\n{mask.width} {mask.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + payload.tobytes())


def read_ppm(path: str | Path) -> RgbImage:
    """Read a binary PPM (P6, maxval 255)."""
    return RgbImage(_read_pnm(path, b"P6", 3))


def write_ppm(path: str | Path, image: RgbImage) -> None:
    """Write an image as P6, maxval 255."""
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + image.pixels.tobytes())


def grayscale_as_rgb(values: np.ndarray) -> RgbImage:
    """Lift a 2-D uint8 array to RgbImage by channel replication."""
    arr = np.asarray(values, dtype=np.uint8)
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected 2-D gray values, got shape {arr.shape}")
    return RgbImage(np.stack([arr, arr, arr], axis=2))
