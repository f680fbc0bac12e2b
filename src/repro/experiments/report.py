"""Plain-text (ASCII) rendering of the paper's figures and tables.

The environment has no plotting stack, so experiment drivers render
bar charts and curves as text: good enough to eyeball every shape the
paper's figures show, and diff-able in EXPERIMENTS.md.
"""

from __future__ import annotations


def format_table(rows: list[dict], columns: list[str]) -> str:
    """Plain-text table used by every experiment's CLI output."""
    widths = {
        c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) if rows else len(c)
        for c in columns
    }
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append("  ".join(str(r.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def bar_chart(
    values: dict[str, float],
    title: str = "",
    width: int = 50,
    fmt: str = "{:.3f}",
) -> str:
    """Horizontal bar chart of labelled values.

    >>> print(bar_chart({"a": 1.0, "b": 2.0}, width=10))  # doctest: +SKIP
    """
    if not values:
        raise ValueError("bar_chart needs at least one value")
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    vmax = max(values.values())
    if vmax <= 0:
        vmax = 1.0
    label_w = max(len(str(k)) for k in values)
    lines = [title] if title else []
    for key, value in values.items():
        n = int(round(width * value / vmax))
        lines.append(
            f"{str(key):<{label_w}} |{'#' * n:<{width}}| " + fmt.format(value)
        )
    return "\n".join(lines)


def stacked_bar_chart(
    rows: dict[str, dict[str, float]],
    components: list[str],
    symbols: str = "#@*+o=xn%&",
    width: int = 60,
    title: str = "",
) -> str:
    """Stacked horizontal bars (Figure 7 / 16 style energy wedges).

    ``rows`` maps bar label -> {component: value}; components are drawn
    in the given order with one symbol each.
    """
    if not rows:
        raise ValueError("stacked_bar_chart needs at least one row")
    if len(components) > len(symbols):
        raise ValueError(
            f"need at least {len(components)} symbols, have {len(symbols)}"
        )
    vmax = max(sum(comp.get(c, 0.0) for c in components) for comp in rows.values())
    if vmax <= 0:
        vmax = 1.0
    label_w = max(len(str(k)) for k in rows)
    lines = [title] if title else []
    for label, comp in rows.items():
        bar = ""
        for sym, c in zip(symbols, components):
            n = int(round(width * comp.get(c, 0.0) / vmax))
            bar += sym * n
        total = sum(comp.get(c, 0.0) for c in components)
        lines.append(f"{str(label):<{label_w}} |{bar:<{width}}| {total:.3f}")
    legend = "  ".join(
        f"{sym}={c}" for sym, c in zip(symbols, components)
    )
    lines.append(f"legend: {legend}")
    return "\n".join(lines)


def curve_chart(
    curves: dict[str, list[tuple[float, float]]],
    height: int = 16,
    width: int = 64,
    title: str = "",
    y_cap: float | None = None,
) -> str:
    """Multi-series scatter/curve plot (Figure 3 style).

    ``curves`` maps series name -> [(x, y), ...].  Each series is drawn
    with its own marker; ``y_cap`` clips diverging (saturated) values so
    the pre-saturation region stays readable.
    """
    if not curves:
        raise ValueError("curve_chart needs at least one curve")
    if height < 2 or width < 8:
        raise ValueError("chart too small")
    markers = "ox+*#@%&"
    points = [(x, y) for pts in curves.values() for x, y in pts]
    xs = [x for x, _ in points]
    ys = [min(y, y_cap) if y_cap else y for _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    grid = [[" "] * width for _ in range(height)]
    for marker, (name, pts) in zip(markers, curves.items()):
        for x, y in pts:
            y = min(y, y_cap) if y_cap else y
            col = int((x - x_lo) / (x_hi - x_lo) * (width - 1))
            row = int((y - y_lo) / (y_hi - y_lo) * (height - 1))
            grid[height - 1 - row][col] = marker
    lines = [title] if title else []
    lines.append(f"y: {y_lo:.1f}..{y_hi:.1f}" + (" (capped)" if y_cap else ""))
    for row in grid:
        lines.append("|" + "".join(row) + "|")
    lines.append("+" + "-" * width + "+")
    lines.append(f"x: {x_lo:.3g}..{x_hi:.3g}")
    legend = "  ".join(
        f"{m}={name}" for m, name in zip(markers, curves)
    )
    lines.append(f"legend: {legend}")
    return "\n".join(lines)
