import numpy as np
import pytest

from fuzzycr.engine import AggregateCurve, EmptyAggregateError, defuzz_centroid, defuzzify
from fuzzycr.membership import Triangular, Universe

U = Universe(0, 100)


def curve_from(mf, clip=1.0, resolution=1001):
    xs = U.samples(resolution)
    return AggregateCurve(xs, np.minimum(clip, mf.profile(xs)))


class TestCentroid:
    def test_right_triangle_full(self):
        # analytic centroid of a descending right triangle over [0, 100]
        value = defuzz_centroid(curve_from(Triangular(0, 0, 100)))
        assert value == pytest.approx(100 / 3, abs=0.05)

    def test_narrow_right_triangle(self):
        value = defuzz_centroid(curve_from(Triangular(0, 0, 25)))
        assert value == pytest.approx(25 / 3, abs=0.05)

    def test_symmetric_curve_is_exact_at_odd_resolution(self):
        for clip in (1.0, 0.5, 0.2):
            value = defuzz_centroid(curve_from(Triangular(25, 50, 75), clip=clip))
            assert value == pytest.approx(50.0, abs=1e-9)

    def test_mirrored_triangle_pair_is_symmetric(self):
        xs = U.samples(1001)
        degrees = np.maximum(
            Triangular(0, 25, 50).profile(xs), Triangular(50, 75, 100).profile(xs)
        )
        assert defuzz_centroid(AggregateCurve(xs, degrees)) == pytest.approx(50.0, abs=1e-9)

    def test_all_zero_curve_raises(self):
        xs = U.samples(101)
        with pytest.raises(EmptyAggregateError, match="empty aggregate"):
            defuzz_centroid(AggregateCurve(xs, np.zeros_like(xs)))

    def test_resolution_convergence(self):
        coarse = defuzz_centroid(curve_from(Triangular(0, 0, 25), resolution=1001))
        fine = defuzz_centroid(curve_from(Triangular(0, 0, 25), resolution=100001))
        assert abs(coarse - fine) < 0.05
        assert fine == pytest.approx(25 / 3, abs=5e-3)

    def test_defuzzify_is_the_centroid(self):
        assert defuzzify is defuzz_centroid
