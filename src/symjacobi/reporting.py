"""Report serialization and plot emission for the experiment runner.

One JSON document per suite plus CSV sidecars and a hand-rolled SVG line
chart per series. Re-running a suite with the same config must reproduce
every numeric field bit for bit, so serialization goes through json.dumps
with sorted keys and no timestamp other than the wall-clock field.
"""

import csv
import dataclasses
import json
import os

from .errors import GridError


@dataclasses.dataclass
class ExperimentReport:
    suite: str
    config: dict
    cases: list
    series: dict
    passed: bool
    version: str
    seed: int
    wall_clock_s: float

    def failing_cases(self) -> list:
        return [c for c in self.cases if not c.get("passed", False)]


def report_to_json(report: ExperimentReport) -> str:
    # vars, not dataclasses.asdict: the fields hold plain values, so no deep copy
    return json.dumps(vars(report), sort_keys=True, indent=2) + "\n"


def write_report(report: ExperimentReport, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{report.suite}-report.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_to_json(report))
    return path


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    return str(value)


def _series_table(series: dict):
    columns = list(series["columns"])
    rows = [list(r) for r in series["rows"]]
    if any(len(r) != len(columns) for r in rows):
        raise GridError("series rows must match the column count")
    return columns, rows


def _write_csv(path: str, columns, rows) -> None:
    # minimal quoting keeps labels such as "(-0.5,-0.5)" in one cell
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_format_cell(v) for v in row] for row in rows)


_STROKES = ("#1f6f8b", "#c05621", "#5a7d2a", "#7b4b8a", "#9b2335")


def _svg_chart(title: str, columns, rows) -> str:
    width, height = 640, 400
    left, right, top, bottom = 60, 20, 36, 40
    numeric_x = all(isinstance(r[0], (int, float)) and not isinstance(r[0], bool) for r in rows)
    xs = [float(r[0]) if numeric_x else float(i) for i, r in enumerate(rows)]
    y_cols = [
        j
        for j in range(1, len(columns))
        if all(isinstance(r[j], (int, float)) and not isinstance(r[j], bool) for r in rows)
    ]
    ys = [float(r[j]) for r in rows for j in y_cols]
    if not xs or not ys:
        body = '<text x="320" y="200" text-anchor="middle">no plottable data</text>'
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">'
            f"{body}</svg>\n"
        )
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0

    def px(x):
        return left + (x - x_lo) / (x_hi - x_lo) * (width - left - right)

    def py(y):
        return height - bottom - (y - y_lo) / (y_hi - y_lo) * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        'font-family="monospace" font-size="12">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle">{title}</text>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="black"/>',
        f'<text x="{left}" y="{height - 12}">{x_lo:.6g}</text>',
        f'<text x="{width - right}" y="{height - 12}" text-anchor="end">{x_hi:.6g}</text>',
        f'<text x="{left - 4}" y="{height - bottom}" text-anchor="end">{y_lo:.6g}</text>',
        f'<text x="{left - 4}" y="{top + 8}" text-anchor="end">{y_hi:.6g}</text>',
    ]
    for idx, j in enumerate(y_cols):
        stroke = _STROKES[idx % len(_STROKES)]
        points = " ".join(
            f"{px(x):.2f},{py(float(r[j])):.2f}" for x, r in zip(xs, rows)
        )
        parts.append(
            f'<polyline fill="none" stroke="{stroke}" stroke-width="1.5" points="{points}"/>'
        )
        parts.append(
            f'<text x="{width - right}" y="{top + 14 * idx + 8}" text-anchor="end" '
            f'fill="{stroke}">{columns[j]}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plots(report: ExperimentReport, out_dir: str) -> list:
    """Write one CSV and one SVG per series; empty reports write nothing."""
    written = []
    if not report.series:
        return written
    os.makedirs(out_dir, exist_ok=True)
    for name, series in report.series.items():
        columns, rows = _series_table(series)
        stem = os.path.join(out_dir, f"{report.suite}-{name}")
        _write_csv(stem + ".csv", columns, rows)
        with open(stem + ".svg", "w", encoding="utf-8") as fh:
            fh.write(_svg_chart(f"{report.suite}: {name}", columns, rows))
        written.extend([stem + ".csv", stem + ".svg"])
    return written
