"""ASCII figure renderers.

The benchmark harness reports series as rows (see
:mod:`repro.analysis.reports`); this module additionally draws the
paper's figures as terminal bar/line charts so the *shapes* — the bar
ordering of Figure 11 and the saturating accuracy curves of Figures
12/15 — are visible at a glance without a plotting stack.
"""

from __future__ import annotations

from .evaluation import MODEL_NAMES, EvaluationResult

_BAR = "█"
_HALF = "▌"


def hbar_chart(rows: list[tuple[str, float]], width: int = 44,
               fmt: str = "{:,.0f}") -> str:
    """Horizontal bars scaled to the maximum value."""
    if not rows:
        return "(no data)"
    peak = max(value for _, value in rows) or 1.0
    label_w = max(len(label) for label, _ in rows)
    lines = []
    for label, value in rows:
        n = value / peak * width
        bar = _BAR * int(n) + (_HALF if n - int(n) >= 0.5 else "")
        lines.append(f"  {label:<{label_w}} {bar:<{width}} {fmt.format(value)}")
    return "\n".join(lines)


def line_chart(xs: list[float], ys: list[float], height: int = 10,
               x_label: str = "K", y_label: str = "value") -> str:
    """A coarse scatter/line chart on a character grid."""
    if not xs or len(xs) != len(ys):
        raise ValueError("xs and ys must be equal-length and non-empty")
    lo, hi = min(ys), max(ys)
    span = (hi - lo) or 1.0
    grid = [[" "] * len(xs) for _ in range(height)]
    for col, y in enumerate(ys):
        row = int((y - lo) / span * (height - 1))
        grid[height - 1 - row][col] = "*"
    lines = [f"  {y_label} (top={hi:g}, bottom={lo:g})"]
    lines += ["  |" + "".join(row) for row in grid]
    lines.append("  +" + "-" * len(xs))
    lines.append("   " + "".join(str(int(x) % 10) for x in xs) + f"   ({x_label})")
    return "\n".join(lines)


def figure11_chart(ev: EvaluationResult, fine: bool = False) -> str:
    """Figure 11/14 as a bar chart of mean LERT per model."""
    rows = [(name, ev.strategies[name].mean_lert) for name in MODEL_NAMES]
    title = "Fig 14" if fine else "Fig 11"
    return (f"{title} — average LERT per error (cycles)\n"
            + hbar_chart(rows))


def topk_chart(sweep: dict[int, EvaluationResult], fine: bool = False) -> str:
    """Figures 12/15 (accuracy) and 13/16 (LERT) as line charts."""
    ks = sorted(sweep)
    acc = [sweep[k].location_accuracy * 100 for k in ks]
    lert = [sweep[k].strategies["pred-comb"].mean_lert for k in ks]
    figs = "Figs 15/16" if fine else "Figs 12/13"
    return "\n".join([
        f"{figs} — top-K sweep",
        line_chart([float(k) for k in ks], acc, y_label="location accuracy %"),
        "",
        line_chart([float(k) for k in ks], lert, y_label="avg LERT (cycles)"),
    ])

