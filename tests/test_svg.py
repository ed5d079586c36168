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


@settings(max_examples=100, deadline=None)
@given(
    points=st.lists(st.tuples(VALUES, VALUES), max_size=40),
    bounds=st.tuples(VALUES, VALUES, VALUES, VALUES),
)
def test_array_pixels_format_as_per_point_calls(points, bounds):
    frame = svg.Frame(*bounds)
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    assert svg.scatter(frame, xs, ys) == scatter_oracle(frame, xs, ys)
    assert svg.scatter(frame, xs, ys, fill="crimson", radius=2.5, css="flag") == scatter_oracle(
        frame, xs, ys, "crimson", 2.5, "flag"
    )
    assert f'points="{polyline_points_oracle(frame, xs, ys)}"' in svg.polyline(frame, xs, ys)
