"""Convert the committed BENCH_*.json baselines to CSV.

Every harness document (``BENCH_core.json``, ``BENCH_serve.json``,
``BENCH_recovery.json``) is a dict whose list-of-dict values are row
tables (``rows``, plus extra tables such as ``highload_rows``).  Each
table becomes one CSV file named ``<stem>.csv`` / ``<stem>_<table>.csv``
with the union of row keys as the header, so downstream plotting and
spreadsheet diffing need no knowledge of any specific harness's schema.

    python benchmarks/to_csv.py                      # all results/*.json
    python benchmarks/to_csv.py results/BENCH_serve.json -o /tmp/csv
"""

import argparse
import csv
import json
import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def row_tables(document):
    """Yield ``(table_name, rows)`` for every list-of-dicts value."""
    for key, value in document.items():
        if (isinstance(value, list) and value
                and all(isinstance(item, dict) for item in value)):
            yield key, value


def union_header(rows):
    header = []
    for row in rows:
        for key in row:
            if key not in header:
                header.append(key)
    return header


def convert(json_path: pathlib.Path, out_dir: pathlib.Path) -> list:
    with open(json_path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ValueError(f"{json_path}: expected a JSON object document")
    written = []
    tables = list(row_tables(document))
    for name, rows in tables:
        # the primary table keeps the bare stem; extras are suffixed
        suffix = "" if name == "rows" else f"_{name}"
        csv_path = out_dir / f"{json_path.stem}{suffix}.csv"
        header = union_header(rows)
        with open(csv_path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=header,
                                    restval="", extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
        written.append((csv_path, len(rows)))
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs", nargs="*", type=pathlib.Path,
                        help="BENCH_*.json files (default: all committed "
                             "baselines under benchmarks/results/)")
    parser.add_argument("-o", "--out-dir", type=pathlib.Path, default=None,
                        help="output directory (default: next to each input)")
    args = parser.parse_args(argv)

    inputs = args.inputs or sorted(RESULTS_DIR.glob("BENCH_*.json"))
    if not inputs:
        print("to_csv: no BENCH_*.json inputs found", file=sys.stderr)
        return 2
    status = 0
    for json_path in inputs:
        out_dir = args.out_dir if args.out_dir is not None else json_path.parent
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            written = convert(json_path, out_dir)
        except (OSError, ValueError, json.JSONDecodeError) as error:
            print(f"to_csv: {json_path}: {error}", file=sys.stderr)
            status = 1
            continue
        for csv_path, n_rows in written:
            print(f"{json_path.name} -> {csv_path} ({n_rows} rows)")
        if not written:
            print(f"to_csv: {json_path.name}: no row tables found",
                  file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
