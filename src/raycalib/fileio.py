"""File formats: AFF1 binary fields, CSV fields, and intrinsics JSON.

AFF1 layout: the magic bytes ``AFF1``, little-endian u32 width and height,
then width * height * 2 little-endian f32 values (theta_x, theta_y) in
row-major order with the top-left cell first.

The CSV variant is one ``u,v,theta_x,theta_y`` record per grid cell, with an
optional header line; u and v are the cell's centre on the cell grid,
u = i + 0.5 and v = j + 0.5, whatever the stride the field was sampled at
(like AFF1, CSV stores no stride).  Every cell needs exactly one record; its
theta values may be non-finite (``nan``, ``inf``), as in AFF1.

Intrinsics are stored as JSON objects
``{"model": ..., "width": ..., "height": ..., "fx": ..., "fy": ...,
"cx": ..., "cy": ..., "dist": [...]}``.  All JSON emitted here is sorted and
newline-terminated so identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .errors import DimensionMismatch
from .fov import FovField
from .models import CameraSpec, pixel_centers

_AFF1_MAGIC = b"AFF1"


def write_field(path: str | Path, field: FovField) -> None:
    """Write a field in the AFF1 binary format (values stored as f32)."""
    gh, gw = field.theta.shape[:2]
    payload = field.theta.astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(_AFF1_MAGIC)
        fh.write(struct.pack("<II", gw, gh))
        fh.write(payload)


def read_field(path: str | Path) -> FovField:
    """Read a field from an AFF1 file, or from CSV if the magic is absent.

    Raises:
        DimensionMismatch: if the AFF1 header is cut short or the payload
            does not hold exactly width * height * 2 f32 values.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head != _AFF1_MAGIC:
            return _read_field_csv(path)
        size = fh.read(8)
        payload = fh.read()
    if len(size) != 8:
        raise DimensionMismatch(f"{path}: AFF1 header ends after {4 + len(size)} of 12 bytes")
    gw, gh = struct.unpack("<II", size)
    if len(payload) != gw * gh * 8:
        raise DimensionMismatch(
            f"{path}: expected {gw * gh * 2} values ({gw * gh * 8} bytes), "
            f"found {len(payload)} bytes"
        )
    data = np.frombuffer(payload, dtype="<f4")
    return FovField(theta=data.reshape(gh, gw, 2).astype(np.float64))


def write_field_csv(path: str | Path, field: FovField) -> None:
    """Write a field as CSV, one record per cell at its cell-grid centre
    (i + 0.5, j + 0.5); like AFF1, the file stores no stride."""
    gh, gw = field.theta.shape[:2]
    grid = pixel_centers(gw, gh)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("u,v,theta_x,theta_y\n")
        for j in range(gh):
            for i in range(gw):
                u, v = (float(x) for x in grid[j, i])
                tx, ty = (float(x) for x in field.theta[j, i])
                fh.write(f"{u!r},{v!r},{tx!r},{ty!r}\n")


def _read_field_csv(path: Path) -> FovField:
    """Read a CSV field.

    Raises:
        DimensionMismatch: naming the file, if a record is malformed, is not
            at a cell centre (u - 0.5 and v - 0.5 whole and >= 0) or repeats
            a cell, or if the records do not cover a full grid.
    """
    records, rows = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.lower().startswith("u,"):
                continue
            parts = line.split(",")
            try:
                values = [float(p) for p in parts]
            except ValueError:  # a value that is not a number
                values = []
            if len(values) != 4:
                raise DimensionMismatch(f"{path}: malformed CSV record {line!r}")
            records.append(line)
            rows.append(values)
    if not rows:
        raise DimensionMismatch(f"{path}: empty field file")
    data = np.asarray(rows)
    cells = data[:, :2] - 0.5
    off = ~(np.isfinite(cells) & (cells >= 0.0) & (cells == np.floor(cells))).all(axis=1)
    if off.any():
        raise DimensionMismatch(
            f"{path}: CSV record {records[int(np.argmax(off))]!r} is not at a cell "
            "centre (i + 0.5, j + 0.5)"
        )
    gw, gh = (int(m) + 1 for m in cells.max(axis=0))
    if gw * gh > len(rows):  # a cell of the gw x gh grid has no record
        raise DimensionMismatch(f"{path}: CSV field does not cover a full grid")
    cols, lines = cells.astype(np.int64).T
    first = np.zeros(len(rows), dtype=bool)
    first[np.unique(lines * gw + cols, return_index=True)[1]] = True
    if not first.all():  # else the distinct records fill all gw * gh cells
        raise DimensionMismatch(
            f"{path}: CSV record {records[int(np.argmin(first))]!r} repeats a cell"
        )
    theta = np.empty((gh, gw, 2))
    theta[lines, cols] = data[:, 2:]
    return FovField(theta=theta)


def dump_json(obj: dict) -> str:
    """Serialize a JSON object deterministically (sorted keys, newline)."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path: str | Path, obj: dict) -> None:
    Path(path).write_text(dump_json(obj), encoding="utf-8")


def parse_json_object(path: str | Path, text: str, build: Callable[[dict], Any]) -> Any:
    """``build`` applied to the JSON object ``text`` read from ``path``.

    Raises:
        ValueError: naming ``path``, if the document is not a JSON object or
            ``build`` meets a field of the wrong JSON type (a number where a
            list belongs, a null, a boolean or a string where a number
            belongs) or a value it rejects (an integer too large for a float,
            an unknown model string).
    """
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(data).__name__}")
    try:
        return build(data)
    except (TypeError, AttributeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: a field has the wrong type or value: {exc}") from None


def write_spec(path: str | Path, spec: CameraSpec) -> None:
    write_json(path, spec.to_dict())


def read_spec(path: str | Path) -> CameraSpec:
    return parse_json_object(path, Path(path).read_text(encoding="utf-8"), CameraSpec.from_dict)
