import io
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsentry import svg

VALUES = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 0.005, 0.015, 1.0 / 3.0])


def scatter_oracle(frame, xs, ys, fill="steelblue", radius=1.2, css="sample"):
    """One Frame.x/Frame.y call and one format per point, as the plots were first drawn."""
    return [
        f'<circle class="{css}" cx="{svg._fmt(frame.x(x))}" cy="{svg._fmt(frame.y(y))}" r="{radius}" fill="{fill}"/>'
        for x, y in zip(xs, ys)
    ]


def polyline_points_oracle(frame, xs, ys):
    return " ".join(f"{svg._fmt(frame.x(x))},{svg._fmt(frame.y(y))}" for x, y in zip(xs, ys))


def lines(elements):
    return "".join(f"{element}\n" for element in elements)


@settings(max_examples=100, deadline=None)
@given(
    points=st.lists(st.tuples(VALUES, VALUES), max_size=40),
    bounds=st.tuples(VALUES, VALUES, VALUES, VALUES),
)
def test_array_pixels_format_as_per_point_calls(points, bounds):
    frame = svg.Frame(*bounds)
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    for block in (svg._POINT_BLOCK, 7):
        with mock.patch.object(svg, "_POINT_BLOCK", block):
            assert "".join(svg.scatter(frame, xs, ys)) == lines(scatter_oracle(frame, xs, ys))
            assert "".join(svg.scatter(frame, xs, ys, fill="crimson", radius=2.5, css="flag")) == lines(
                scatter_oracle(frame, xs, ys, "crimson", 2.5, "flag")
            )
            assert f'points="{polyline_points_oracle(frame, xs, ys)}"' in "".join(svg.polyline(frame, xs, ys))


def whole_document_oracle(body, title):
    """The document as one string, rendered from every element at once."""
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{svg.WIDTH}" height="{svg.HEIGHT}" '
        f'viewBox="0 0 {svg.WIDTH} {svg.HEIGHT}">',
        f"<title>{title}</title>",
        f'<rect width="{svg.WIDTH}" height="{svg.HEIGHT}" fill="white"/>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def test_streamed_document_equals_the_whole_document():
    rng = np.random.default_rng(3)
    n = 2 * svg._POINT_BLOCK + 3  # a polyline and a scatter longer than one block
    xs, ys = np.cumsum(rng.uniform(0, 1, n)), rng.uniform(-5, 5, n)
    frame = svg.Frame(float(xs.min()), float(xs.max()), -5.0, 5.0)
    polygon = np.array([[1.0, 0.0], [2.0, 1.0], [1.5, 2.0], [1.0, 0.0]])
    edges, counts = np.array([0.0, 1.0, 2.0, 3.0]), np.array([4, 0, 2])
    streamed = io.StringIO()
    svg.document(
        streamed,
        "a title",
        svg.axes(frame, "x", "y"),
        svg.polyline(frame, xs, ys),
        svg.scatter(frame, xs[::3], ys[::3], fill="crimson", radius=2.5, css="flag"),
        [svg.closed_path(frame, polygon)],
        svg.bars(frame, edges, counts),
        svg.polyline(frame, [], []),
    )
    body = [
        *(line.rstrip("\n") for line in svg.axes(frame, "x", "y")),
        '<polyline class="series" points="' + polyline_points_oracle(frame, xs, ys)
        + '" fill="none" stroke="steelblue" stroke-width="1"/>',
        *scatter_oracle(frame, xs[::3], ys[::3], "crimson", 2.5, "flag"),
        svg.closed_path(frame, polygon).rstrip("\n"),
        *(line.rstrip("\n") for line in svg.bars(frame, edges, counts)),
        '<polyline class="series" points="" fill="none" stroke="steelblue" stroke-width="1"/>',
    ]
    assert streamed.getvalue() == whole_document_oracle(body, "a title")


def closed_path_oracle(frame, polygon):
    """One Frame.x/Frame.y call and one format per vertex, as the region was first drawn."""
    parts = [f"M {svg._fmt(frame.x(polygon[0][0]))} {svg._fmt(frame.y(polygon[0][1]))}"]
    parts += [f"L {svg._fmt(frame.x(x))} {svg._fmt(frame.y(y))}" for x, y in polygon[1:-1]]
    return f'<path class="region" d="{" ".join(parts + ["Z"])}" fill="none" stroke="crimson" stroke-width="1.5"/>\n'


@settings(max_examples=100, deadline=None)
@given(
    vertices=st.lists(st.tuples(VALUES, VALUES), min_size=1, max_size=40),
    bounds=st.tuples(VALUES, VALUES, VALUES, VALUES),
)
def test_closed_path_formats_as_per_vertex_calls(vertices, bounds):
    frame = svg.Frame(*bounds)
    polygon = np.array(vertices + vertices[:1], dtype=float)  # closed: the last vertex repeats the first
    for block in (svg._POINT_BLOCK, 7):
        with mock.patch.object(svg, "_POINT_BLOCK", block):
            assert svg.closed_path(frame, polygon) == closed_path_oracle(frame, polygon)
