"""Minimal dependency-free SVG line charts.

Just enough plotting for ratio curves and backtest summaries: evenly
spaced x positions, autoscaled y axis, one polyline per series (solid
or dashed), a few ticks, and a legend.  Every series has a value at
every x position.  Output is a plain deterministic string.
"""

WIDTH = 800
HEIGHT = 480
MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 50


def _fmt(value: float) -> str:
    return format(value, ".2f")


def line_chart(x_labels, series, title: str, y_label: str) -> str:
    """Render ``series`` = [(name, values, dashed), ...] over ``x_labels``.

    Each ``values`` holds one number per label.  ``title`` heads the
    chart, and ``y_label`` runs up its y axis.
    """
    x_labels = [str(label) for label in x_labels]
    points = [v for _, values, _ in series for v in values]
    if not x_labels or not points:
        raise ValueError("nothing to plot")
    y_min, y_max = min(points), max(points)
    if y_max - y_min < 1e-12:
        pad = max(abs(y_max), 1.0) * 0.05
    else:
        pad = (y_max - y_min) * 0.05
    y_min -= pad
    y_max += pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def x_pos(i: int) -> float:
        if len(x_labels) == 1:
            return MARGIN_LEFT + plot_w / 2.0
        return MARGIN_LEFT + plot_w * i / (len(x_labels) - 1)

    def y_pos(v: float) -> float:
        return MARGIN_TOP + plot_h * (1.0 - (v - y_min) / (y_max - y_min))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        f'<text x="16" y="{MARGIN_TOP + plot_h / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {MARGIN_TOP + plot_h / 2:.0f})">{y_label}</text>',
    ]

    # Axes and y ticks.
    x0, y0 = MARGIN_LEFT, MARGIN_TOP + plot_h
    out.append(
        f'<line x1="{x0}" y1="{MARGIN_TOP}" x2="{x0}" y2="{y0}" stroke="black"/>'
    )
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="black"/>')
    for k in range(5):
        v = y_min + (y_max - y_min) * k / 4.0
        y = y_pos(v)
        out.append(
            f'<line x1="{x0 - 4}" y1="{_fmt(y)}" x2="{x0}" y2="{_fmt(y)}" stroke="black"/>'
        )
        out.append(
            f'<text x="{x0 - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{format(v, ".4g")}</text>'
        )

    # At most ~8 x tick labels.
    step = max(1, (len(x_labels) + 7) // 8)
    for i in range(0, len(x_labels), step):
        x = x_pos(i)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{y0}" x2="{_fmt(x)}" y2="{y0 + 4}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{x_labels[i]}</text>'
        )

    # Every series shares the x positions, so each is formatted once.
    xs = [_fmt(x_pos(i)) for i in range(len(x_labels))]
    for idx, (name, values, dashed) in enumerate(series):
        pts = [f"{x},{y_pos(v):.2f}" for x, v in zip(xs, values)]
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        out.append(
            f'<polyline fill="none" stroke="black" stroke-width="1.5"{dash} '
            f'points="{" ".join(pts)}"/>'
        )
        ly = MARGIN_TOP + 8 + 16 * idx
        lx = MARGIN_LEFT + plot_w - 150
        out.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 28}" y2="{ly}" stroke="black" '
            f'stroke-width="1.5"{dash}/>'
        )
        out.append(
            f'<text x="{lx + 34}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{name}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
