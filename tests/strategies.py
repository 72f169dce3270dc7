"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from gobgraph import Cap, Linear, PiecewiseLinearConvex, Power


def pwl_from_segments(segments):
    # (width, slope) pairs; sorting the slopes makes the graph convex
    slopes = sorted(slope for _, slope in segments)
    slopes[-1] += 0.1  # a positive final slope keeps the extent finite
    pts, t, v = [(0.0, 0.0)], 0.0, 0.0
    for (width, _), slope in zip(segments, slopes):
        t, v = t + width, v + width * slope
        pts.append((t, v))
    return PiecewiseLinearConvex(pts)


_scale = st.floats(0.2, 2.0)
# one component of a mixed ball: Linear, Power with q in [1, 4] (and q = 2,
# the quadratic case, often), Cap or PWL
components = st.one_of(
    st.builds(Linear, _scale),
    st.builds(Power, _scale, st.floats(1.0, 4.0) | st.just(2.0)),
    st.builds(Cap, _scale),
    st.builds(pwl_from_segments,
              st.lists(st.tuples(st.floats(0.05, 1.0), st.floats(0.0, 3.0)),
                       min_size=1, max_size=4)),
)
