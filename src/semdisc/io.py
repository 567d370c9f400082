"""File formats and the bundled UW-71 color library.

Both formats are UTF-8 CSV (a byte-order mark is allowed): a header row,
then one row per feature in library order. They share one row reader:
blank lines are skipped, ids and header names are stripped of spaces,
and a row whose field count is not the header's, an empty or repeated
id or a cell that is not a number fails naming its file and line (and
the column of a bad cell). An association CSV has the header
"feature_id,<concept>,..." and values in [0, 1]. A feature library CSV
has an id column (index, else feature_id), CIELAB columns L,a,b and an
optional integer sorted_position column; the bundled UW-71
library is one, with columns index,sorted_position,L,a,b.
"""

from __future__ import annotations

import csv
import io as _io
from importlib import resources
from pathlib import Path

from .colorspace import lab_to_srgb_hex
from .errors import FormatError, IntegrityError, ValidationError
from .model import AssociationTable, FeatureLibrary, FeatureRecord

__all__ = [
    "load_association_csv",
    "load_library_csv",
    "write_association_csv",
    "association_csv_text",
    "load_uw71",
    "with_library_coordinates",
    "palette_entry",
]


def _rows(path, id_columns: tuple[str, ...]):
    """The row rules of both formats. Yields the header row, then
    ("<path>:<line>", id, row) for each non-blank row of the header's
    length whose id, the stripped cell under the first of id_columns in
    the header, is non-empty and no earlier row had."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
        header, *records = csv.reader(_io.StringIO(text))
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except ValueError:  # not even a header row
        raise FormatError(f"{path}: empty file") from None
    except csv.Error as exc:  # e.g. a field above the csv module's size limit
        raise FormatError(f"{path}: {exc}") from None
    yield header
    names = [c.strip() for c in header]
    found = [names.index(c) for c in id_columns if c in names]
    if not found:
        raise FormatError(f"{path}: missing column " + " or ".join(map(repr, id_columns)))
    seen: set[str] = set()
    for lineno, row in enumerate(records, start=2):
        if not row:
            continue
        where = f"{path}:{lineno}"
        if len(row) != len(header):
            raise FormatError(f"{where}: expected {len(header)} fields, got {len(row)}")
        fid = row[found[0]].strip()
        if not fid:
            raise ValidationError(f"{where}: empty feature id")
        if fid in seen:
            raise ValidationError(f"{where}: duplicate feature id {fid!r}")
        seen.add(fid)
        yield where, fid, row


def _number(cell: str, where: str, column: str, kind=float):
    """cell read as a float (or int), or a FormatError naming the cell."""
    try:
        return kind(cell)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise FormatError(
            f"{where}: column {column!r}: cannot parse {cell!r} as {noun}"
        ) from None


def load_association_csv(path) -> AssociationTable:
    """Parse an association CSV into a table, validating as it goes.

    Errors name the offending cell by row and column so hand-edited
    files are easy to fix; a header column is named by its number.
    """
    rows = _rows(path, ("feature_id",))
    header = next(rows)
    if not header or header[0].strip() != "feature_id":
        raise FormatError(
            f"{path}: first header column must be 'feature_id', got "
            f"{header[0]!r}" if header else f"{path}: missing header"
        )
    concepts = [c.strip() for c in header[1:]]
    if len(concepts) < 2:
        raise FormatError(f"{path}: need at least 2 concept columns")
    for j, concept in enumerate(concepts, start=2):
        if not concept or concepts.index(concept) < j - 2:
            fault = f"duplicate concept id {concept!r}" if concept else "empty concept id"
            raise ValidationError(f"{path}:1: column {j}: {fault}")
    ids, values = [], []
    for where, fid, row in rows:
        values.append([])
        for concept, cell in zip(concepts, row[1:]):
            v = _number(cell, where, concept)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(
                    f"{where}: column {concept!r}: value {v} outside [0, 1]"
                )
            values[-1].append(v)
        ids.append(fid)
    if len(ids) < 2:
        raise FormatError(f"{path}: need at least 2 feature rows")
    return AssociationTable.from_arrays(ids, concepts, values)


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
    rows = _rows(path, ("index", "feature_id"))
    names = [c.strip() for c in next(rows)]
    for name in "Lab":
        if name not in names:
            raise FormatError(f"{path}: missing column {name!r}")
    records = []
    for where, fid, row in rows:
        lab = tuple(_number(row[names.index(c)], where, c) for c in "Lab")
        cell = row[names.index("sorted_position")] if "sorted_position" in names else ""
        position = _number(cell, where, "sorted_position", int) if cell.strip() else None
        records.append(FeatureRecord(fid, lab, position))
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
