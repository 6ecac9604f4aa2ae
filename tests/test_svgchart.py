import pytest

from buyhold.svgchart import line_chart


@pytest.mark.parametrize(
    "labels, series",
    [([], [("a", [], False)]), (["x"], []), (["x"], [("a", [], False)])],
    ids=["no-labels", "no-series", "no-values"],
)
def test_nothing_to_plot_raises(labels, series):
    with pytest.raises(ValueError, match="^nothing to plot$"):
        line_chart(labels, series, "title", "y")
