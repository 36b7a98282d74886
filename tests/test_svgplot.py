import re

import pytest

from fuzzycr.svgplot import HEIGHT, MARGIN, WIDTH, write_line_chart

PLOT_LEFT, PLOT_RIGHT = MARGIN["left"], WIDTH - MARGIN["right"]
PLOT_TOP, PLOT_BOTTOM = MARGIN["top"], HEIGHT - MARGIN["bottom"]


def polyline_points(svg):
    [points] = re.findall(r'<polyline [^>]*points="([^"]*)"', svg)
    return [tuple(map(float, point.split(","))) for point in points.split()]


@pytest.mark.parametrize("level", [0.0, 50.0, -3.0, 5e-324, -5e-324])
def test_a_constant_series_is_drawn_level_across_the_middle(tmp_path, level):
    # a zero span is padded, not divided by: by a tenth of the level, or by 1
    # where that is 0 (a tenth of 5e-324 rounds to 0)
    path = tmp_path / "flat.svg"
    write_line_chart(path, [0.0, 50.0, 100.0], {"flat": [level] * 3}, "x", "y")
    points = polyline_points(path.read_text(encoding="utf-8"))
    middle = (PLOT_TOP + PLOT_BOTTOM) / 2
    assert [y for _, y in points] == [pytest.approx(middle, abs=0.01)] * 3
    assert all(PLOT_LEFT < x < PLOT_RIGHT for x, _ in points)


@pytest.mark.parametrize("x", [5.0, 5e-324])
def test_one_point_is_drawn_in_the_middle(tmp_path, x):
    path = tmp_path / "point.svg"
    write_line_chart(path, [x], {"a": [1.0]}, "x", "y")
    [(x, y)] = polyline_points(path.read_text(encoding="utf-8"))
    assert x == pytest.approx((PLOT_LEFT + PLOT_RIGHT) / 2, abs=0.01)
    assert y == pytest.approx((PLOT_TOP + PLOT_BOTTOM) / 2, abs=0.01)


@pytest.mark.parametrize("xs,series,message", [
    ([], {"a": []}, "chart needs at least one point and one series"),
    ([1.0], {}, "chart needs at least one point and one series"),
    ([1.0, 2.0], {"a": [1.0, 2.0], "b": [1.0]}, "series 'b' length does not match x values"),
])
def test_a_chart_without_matching_data_is_rejected_without_writing(tmp_path, xs, series, message):
    path = tmp_path / "chart.svg"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write_line_chart(path, xs, series, "x", "y")
    assert not path.exists()
