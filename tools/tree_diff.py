"""Compare the numbers in two trees of report files.

    python3 tools/tree_diff.py A B

A and B are trees that tests/reference_outputs.py writes.  For each file
in either tree, it prints the file's path, the count of numbers that
differ between the two, and the largest relative change
|b - a| / max(|a|, |b|) among them with its place in the file.  After
that line it prints every other value that differs, with its place: a
verdict, a flag, a name, an integer such as a node index, or a key or row
found on one side only.  JSON
files are compared value by value and CSV files cell by cell.  A file
found in one tree only is named as such.  The output is a report only:
the exit status is 0 whatever differs.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys

_MISSING = "<missing>"


def _leaves(value, place=""):
    """(place, value) of every non-container value in a parsed JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{place}.{key}" if place else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{place}[{i}]")
    else:
        yield place, value


def _csv_leaves(text):
    """(place, value) of every cell below a CSV header."""
    rows = list(csv.reader(text.splitlines()))
    header = rows[0] if rows else []
    for i, row in enumerate(rows[1:], start=1):
        for j, cell in enumerate(row):
            name = header[j] if j < len(header) else str(j)
            yield f"row {i}, {name}", _cell_value(cell)


def _cell_value(cell):
    """A CSV cell as an int, else a float, else the string itself."""
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def _read(path):
    """The leaves of one report file, by place."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        return dict(_leaves(json.loads(text)))
    return dict(_csv_leaves(text))




def _relative_change(a, b):
    """|b - a| / max(|a|, |b|); 0 for equal values, NaNs included."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return math.inf
    return abs(b - a) / max(abs(a), abs(b))


def compare_files(path_a, path_b):
    """(numbers changed, (largest relative change, its place), [(place, a,
    b)] of the other values that differ) between two report files."""
    a, b = _read(path_a), _read(path_b)
    changed, largest, others = 0, (0.0, None), []
    for place in [*a, *(p for p in b if p not in a)]:
        va, vb = a.get(place, _MISSING), b.get(place, _MISSING)
        if isinstance(va, float) and isinstance(vb, float):
            rel = _relative_change(va, vb)
            if rel > 0.0:
                changed, largest = changed + 1, max(largest, (rel, place))
        elif va != vb:
            others.append((place, va, vb))
    return changed, largest, others


def _files(root):
    return {os.path.relpath(os.path.join(d, name), root)
            for d, _, names in os.walk(root) for name in names}


def diff_trees(root_a, root_b):
    """The report lines of tree_diff.py for the trees root_a and root_b."""
    files_a, files_b = _files(root_a), _files(root_b)
    lines = []
    for rel in sorted(files_a | files_b):
        if rel not in files_b:
            lines.append(f"{rel}: only in {root_a}")
            continue
        if rel not in files_a:
            lines.append(f"{rel}: only in {root_b}")
            continue
        changed, (largest, where), others = compare_files(
            os.path.join(root_a, rel), os.path.join(root_b, rel))
        lines.append(f"{rel}: {changed} numbers changed" + (
            f", largest relative change {largest:.1e} at {where}"
            if changed else ""))
        lines.extend(f"  {place}: {va!r} -> {vb!r}"
                     for place, va, vb in others)
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit("usage: tree_diff.py A B")
    print("\n".join(diff_trees(*sys.argv[1:])))
