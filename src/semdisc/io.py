"""File formats and the bundled UW-71 color library.

Association CSV contract: UTF-8 (a byte-order mark is allowed), comma
separated, header row "feature_id,<concept>,..." followed by one row per
feature with decimal values in [0, 1]. Row order defines library order.
A feature library CSV has an id column (index or feature_id), CIELAB
columns L,a,b and an optional sorted_position column; the bundled UW-71
library is one, with columns index,sorted_position,L,a,b.
"""

from __future__ import annotations

import csv
import io as _io
from importlib import resources
from pathlib import Path

from .colorspace import lab_to_srgb_hex
from .errors import FormatError, IntegrityError, ValidationError
from .model import (
    AssociationTable,
    FeatureLibrary,
    FeatureRecord,
)

__all__ = [
    "load_association_csv",
    "load_library_csv",
    "write_association_csv",
    "association_csv_text",
    "load_uw71",
    "with_library_coordinates",
    "palette_entry",
]


def load_association_csv(path) -> AssociationTable:
    """Parse an association CSV into a table, validating as it goes.

    Errors name the offending cell by row and column so hand-edited
    files are easy to fix.
    """
    return _parse_association_csv(_read_text(path), source=str(path))


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _parse_association_csv(text: str, source: str = "<string>") -> AssociationTable:
    try:
        header, *records = csv.reader(_io.StringIO(text))
    except ValueError:  # not even a header row
        raise FormatError(f"{source}: empty file") from None
    except csv.Error as exc:  # e.g. a field above the csv module's size limit
        raise FormatError(f"{source}: {exc}") from None
    if not header or header[0].strip() != "feature_id":
        raise FormatError(
            f"{source}: first header column must be 'feature_id', got "
            f"{header[0]!r}" if header else f"{source}: missing header"
        )
    concepts = [c.strip() for c in header[1:]]
    if len(concepts) < 2:
        raise FormatError(f"{source}: need at least 2 concept columns")

    ids: list[str] = []
    seen: set[str] = set()
    rows: list[list[float]] = []
    for lineno, row in enumerate(records, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise FormatError(
                f"{source}:{lineno}: expected {len(header)} fields, got {len(row)}"
            )
        fid = row[0].strip()
        if fid in seen:
            raise ValidationError(f"{source}:{lineno}: duplicate feature id {fid!r}")
        values = []
        for j, cell in enumerate(row[1:]):
            try:
                v = float(cell)
            except ValueError:
                raise FormatError(
                    f"{source}:{lineno}: column {concepts[j]!r}: "
                    f"cannot parse {cell!r} as a number"
                ) from None
            if not 0.0 <= v <= 1.0:
                raise ValidationError(
                    f"{source}:{lineno}: column {concepts[j]!r}: "
                    f"value {v} outside [0, 1]"
                )
            values.append(v)
        ids.append(fid)
        seen.add(fid)
        rows.append(values)

    if len(ids) < 2:
        raise FormatError(f"{source}: need at least 2 feature rows")
    return AssociationTable.from_arrays(ids, concepts, rows)


def association_csv_text(table: AssociationTable) -> str:
    """Serialize a table back to the association CSV format."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["feature_id", *table.concepts.concepts])
    for fid, row in zip(table.library.ids, table.values):
        writer.writerow([fid, *(repr(float(v)) for v in row)])
    return buf.getvalue()


def write_association_csv(table: AssociationTable, path) -> None:
    Path(path).write_text(association_csv_text(table), encoding="utf-8")


def load_library_csv(path) -> FeatureLibrary:
    """Parse a feature library CSV: features with CIELAB coordinates and,
    optionally, hue-sorted positions, in file order."""
    reader = csv.DictReader(_io.StringIO(_read_text(path)))
    records = []
    try:
        if not {"index", "feature_id"} & set(reader.fieldnames or ()):
            raise FormatError(f"{path}: missing column 'index' or 'feature_id'")
        for row in reader:
            position = row.get("sorted_position")
            records.append(
                FeatureRecord(
                    id=row.get("index") or row.get("feature_id"),
                    lab=(float(row["L"]), float(row["a"]), float(row["b"])),
                    sorted_position=int(position) if position else None,
                )
            )
    except KeyError as exc:
        raise FormatError(f"{path}: missing column {exc.args[0]!r}") from None
    except (TypeError, ValueError, csv.Error) as exc:
        raise FormatError(f"{path}:{reader.line_num}: {exc}") from None
    return FeatureLibrary(tuple(records))


def load_uw71() -> FeatureLibrary:
    """The bundled UW-71 color library with CIELAB coordinates and
    hue-sorted positions. Feature ids are the color indices "1".."71"."""
    with resources.as_file(resources.files("semdisc.data") / "uw71.csv") as path:
        library = load_library_csv(path)
    if len(library) != 71:
        raise IntegrityError(f"UW-71 bundle has {len(library)} rows, expected 71")
    if library.features[24].lab != (0.0, 0.0, 0.0):
        raise IntegrityError("UW-71 bundle: color 25 should be black")
    if library.features[28].lab != (100.0, 0.0, 0.0):
        raise IntegrityError("UW-71 bundle: color 29 should be white")
    return library


def with_library_coordinates(
    table: AssociationTable, library: FeatureLibrary
) -> AssociationTable:
    """Attach CIELAB coordinates from a reference library to the table's
    features, matching by feature id."""
    by_id = {f.id: f for f in library.features}
    records = []
    for f in table.library.features:
        ref = by_id.get(f.id)
        if ref is None:
            raise ValidationError(
                f"feature {f.id!r} not present in the reference library"
            )
        records.append(ref)
    return AssociationTable._trusted(
        FeatureLibrary(tuple(records)), table.concepts, table.values
    )


def palette_entry(record: FeatureRecord) -> dict:
    """Rendering block for one palette color."""
    if record.lab is None:
        raise ValidationError(f"feature {record.id!r} has no CIELAB coordinates")
    hex_str, in_gamut = lab_to_srgb_hex(record.lab)
    return {
        "feature_id": record.id,
        "lab": [float(v) for v in record.lab],
        "hex": hex_str,
        "in_gamut": in_gamut,
    }
