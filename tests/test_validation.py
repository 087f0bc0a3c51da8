import math
import random
import sys

import pytest
import scipy.special
import scipy.stats

from cdrflow.errors import ClassMismatch, DegenerateInput
from cdrflow.records import GeoPoint
from cdrflow.stays import Staypoint
from cdrflow.trips import Trip, Tripleg
from cdrflow.validation import (
    _betainc,
    build_od_matrix,
    compare_shares,
    linear_regression,
    load_class_map_csv,
    load_survey_csv,
    write_od_csv,
)

BASE = GeoPoint(38.70, -9.30)


def sp(sp_id, muni):
    return Staypoint(
        staypoint_id=sp_id, user_id="u", location_id=sp_id, median=BASE,
        t_start=0.0, t_end=100.0, region_municipality=muni,
    )


def trip(trip_id, origin_sp, dest_sp):
    leg = Tripleg(
        tripleg_id=f"{trip_id}-l0", user_id="u", origin_staypoint=origin_sp,
        dest_staypoint=dest_sp, t_start=200.0, t_end=800.0,
        path_length_m=3000.0, avg_speed_kmh=18.0, mode="bus",
    )
    return Trip(
        trip_id=trip_id, user_id="u", triplegs=(leg,), origin_staypoint=origin_sp,
        dest_staypoint=dest_sp, t_start=200.0, t_end=800.0,
    )


def ols_oracle(x, y):
    # independent closed-form least squares
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxx = sum((v - mx) ** 2 for v in x)
    syy = sum((v - my) ** 2 for v in y)
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    slope = sxy / sxx
    return slope, my - slope * mx, sxy / math.sqrt(sxx * syy)


class TestOdMatrix:
    def staypoints(self):
        return [sp("o1", "Oeiras"), sp("o2", "Oeiras"), sp("l1", "Lisboa")]

    def test_counts_and_total(self):
        trips = [trip("t0", "o1", "l1"), trip("t1", "o2", "l1"), trip("t2", "o1", "o2")]
        od = build_od_matrix(trips, self.staypoints(), "municipality")
        assert od.count_dict() == {("Oeiras", "Lisboa"): 2, ("Oeiras", "Oeiras"): 1}
        assert od.total == 3

    def test_empty(self):
        od = build_od_matrix([], self.staypoints(), "municipality")
        assert od.counts == () and od.total == 0

    def test_directionality(self):
        trips = [trip("t0", "o1", "l1"), trip("t1", "l1", "o1")]
        od = build_od_matrix(trips, self.staypoints(), "municipality")
        assert od.count_dict() == {("Oeiras", "Lisboa"): 1, ("Lisboa", "Oeiras"): 1}

    def test_unresolved_dropped_and_tallied(self):
        sps = self.staypoints() + [sp("x", None)]
        trips = [trip("t0", "o1", "x"), trip("t1", "o1", "l1")]
        od = build_od_matrix(trips, sps, "municipality")
        assert od.total == 1
        assert od.dropped_trip_ids == ("t0",)

    def test_od_csv(self, tmp_path):
        od = build_od_matrix([trip("t0", "o1", "l1")], self.staypoints(), "municipality")
        write_od_csv(od, tmp_path / "od.csv")
        rows = (tmp_path / "od.csv").read_text().splitlines()
        assert rows == ["origin,destination,trips", "Oeiras,Lisboa,1"]


class TestLinearRegression:
    def test_exact_line(self):
        r = linear_regression([1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0])
        assert r.slope == pytest.approx(2.0, abs=1e-12)
        assert r.intercept == pytest.approx(0.0, abs=1e-12)
        assert r.r == 1.0 and r.r_squared == 1.0
        assert r.p_value == 0.0

    def test_constant_y_flagged(self):
        r = linear_regression([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
        assert r.slope == 0.0 and r.r == 0.0 and r.degenerate_y

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInput):
            linear_regression([1.0], [2.0])
        with pytest.raises(DegenerateInput):
            linear_regression([3.0, 3.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateInput):
            linear_regression([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_p_value_undefined_below_three(self):
        r = linear_regression([1.0, 2.0], [3.0, 7.0])
        assert r.p_value is None

    def test_matches_closed_form_oracle(self):
        rng = random.Random(91)
        for _ in range(100):
            n = rng.randint(3, 60)
            x = [rng.uniform(-50, 50) for _ in range(n)]
            y = [3.0 * v - 7.0 + rng.gauss(0, 5) for v in x]
            got = linear_regression(x, y)
            slope, intercept, r = ols_oracle(x, y)
            assert got.slope == pytest.approx(slope, abs=1e-9)
            assert got.intercept == pytest.approx(intercept, abs=1e-9)
            assert got.r == pytest.approx(r, abs=1e-9)
            assert got.r_squared == pytest.approx(r * r, abs=1e-9)
            ref = scipy.stats.linregress(x, y)
            assert got.p_value == pytest.approx(ref.pvalue, abs=1e-9)

    def test_shift_and_scale_invariances(self):
        rng = random.Random(92)
        x = [rng.uniform(0, 10) for _ in range(20)]
        y = [2.5 * v + rng.gauss(0, 1) for v in x]
        base = linear_regression(x, y)
        shifted = linear_regression(x, [v + 100.0 for v in y])
        assert shifted.slope == pytest.approx(base.slope, abs=1e-9)
        assert shifted.intercept == pytest.approx(base.intercept + 100.0, abs=1e-9)
        assert shifted.r == pytest.approx(base.r, abs=1e-9)
        scaled = linear_regression(x, [3.0 * v for v in y])
        assert scaled.slope == pytest.approx(3.0 * base.slope, abs=1e-9)
        assert scaled.r == pytest.approx(base.r, abs=1e-9)


def data_with_r(n, r):
    """n points, x evenly spaced, whose Pearson r is r up to rounding."""
    u = [k - (n - 1) / 2 for k in range(n)]
    c = sum(v * v for v in u) / n
    z = [v * v - c for v in u]  # orthogonal to u and to a constant, as u is symmetric
    nu, nz = math.sqrt(sum(v * v for v in u)), math.sqrt(sum(v * v for v in z))
    s = math.sqrt(1.0 - r * r)
    return [float(k) for k in range(n)], [r * a / nu + s * b / nz for a, b in zip(u, z)]


P_VALUE_NS = [*range(3, 61), 100, 1000, 10_000]


def p_close(got, want):
    """Equal to a relative 1e-10, or both below the normal range, where digits run out."""
    return math.isclose(got, want, rel_tol=1e-10) or max(got, want) < sys.float_info.min

P_VALUE_RS = [1 - 1e-12, 0.999, 0.9, 0.5, 0.1, 1e-3, 1e-8]


class TestSlopePValue:
    """The slope p-value against scipy, which the package itself does not import."""

    @pytest.mark.parametrize("n", P_VALUE_NS)
    def test_matches_scipy_betainc(self, n):
        df = n - 2
        for r in P_VALUE_RS + [-r for r in P_VALUE_RS]:
            got = linear_regression(*data_with_r(n, r))
            assert got.r == pytest.approx(r, rel=1e-6)
            t_squared = got.r_squared * df / (1.0 - got.r_squared)
            x, y = df / (df + t_squared), t_squared / (df + t_squared)
            # I_x(a, b) = 1 - I_y(b, a): near x = 1 the complement keeps the digits of y
            want = float(scipy.special.betainc(df / 2.0, 0.5, x) if x < 0.5
                         else scipy.special.betaincc(0.5, df / 2.0, y))
            assert p_close(got.p_value, want), (n, r)

    @pytest.mark.parametrize("n", P_VALUE_NS)
    def test_matches_scipy_linregress(self, n):
        # Away from |r| = 1, where the two ways of rounding r move p by more, and
        # from r = 0, where linregress's t.sf has only about 9 digits at n = 3.
        for r in [0.9, 0.5, 0.1, 1e-3, -0.5, -1e-3]:
            x, y = data_with_r(n, r)
            want = scipy.stats.linregress(x, y).pvalue
            assert p_close(linear_regression(x, y).p_value, want), (n, r)

    @pytest.mark.parametrize("r", [1 - 1e-12, -(1 - 1e-12), 0.99, 0.5, -0.3, 1e-8, -1e-8])
    def test_three_points_closed_form(self, r):
        got = linear_regression(*data_with_r(3, r))
        t = abs(got.r) * math.sqrt(1.0 / (1.0 - got.r_squared))
        # 1 - (2/pi) atan|t|, written without its cancellation at large |t|
        assert math.isclose(got.p_value, 2.0 / math.pi * math.atan(1.0 / t), rel_tol=1e-10)

    @pytest.mark.parametrize("n", [1003, 10_000, 123_457, 10**6, 7_654_321, 10**8])
    def test_large_n_matches_scipy_to_1e_12(self, n):
        # lgamma(a + 1/2) - lgamma(a) and the continued fraction both lose
        # digits as a = df / 2 grows (1e-6 at n = 1e10 before)
        df = n - 2
        t_squares = [r * r * df / (1.0 - r * r) for r in (1e-8, 1e-4, 1e-3, 3e-3)]
        t_squares += [1e-12, 0.25, 2.0, 3.5, 10.0, 50.0, 300.0, 1400.0]
        for t_squared in t_squares:
            x, y = df / (df + t_squared), t_squared / (df + t_squared)
            got = _betainc(df / 2.0, 0.5, x, y)
            want = float(scipy.special.betaincc(0.5, df / 2.0, y))
            assert math.isclose(got, want, rel_tol=1e-12) or max(got, want) < sys.float_info.min, (
                n, t_squared,
            )

    @pytest.mark.parametrize("r", [0.02, 0.005, -1e-3, 1e-8])
    def test_slope_p_value_at_100k_points(self, r):
        n = 100_000
        got = linear_regression(*data_with_r(n, r))
        t_squared = got.r_squared * (n - 2) / (1.0 - got.r_squared)
        want = float(scipy.special.betaincc(0.5, (n - 2) / 2.0, t_squared / (n - 2 + t_squared)))
        assert math.isclose(got.p_value, want, rel_tol=1e-12), r

    def test_betainc_at_the_ends_and_symmetry(self):
        assert _betainc(2.5, 0.5, 0.0, 1.0) == 0.0 and _betainc(2.5, 0.5, 1.0, 0.0) == 1.0
        for a, b, x in [(0.5, 0.5, 0.3), (2.5, 0.5, 0.9), (40.0, 0.5, 0.99), (3.0, 7.0, 0.2)]:
            one = _betainc(a, b, x, 1.0 - x) + _betainc(b, a, 1.0 - x, x)
            assert math.isclose(one, 1.0, rel_tol=1e-14)


class TestCompareShares:
    def od_with_split(self, intra, lisbon, other):
        sps = [sp("o", "Oeiras"), sp("l", "Lisboa"), sp("s", "Sintra")]
        trips = []
        for k in range(intra):
            trips.append(trip(f"i{k}", "o", "o"))
        for k in range(lisbon):
            trips.append(trip(f"l{k}", "o", "l"))
        for k in range(other):
            trips.append(trip(f"s{k}", "o", "s"))
        return build_od_matrix(trips, sps, "municipality")

    def class_map(self):
        return {"Oeiras": "intra", "Lisboa": "lisbon", "Sintra": "other"}

    def survey(self):
        return {"intra": 0.573, "lisbon": 0.269, "other": 0.154}

    def test_deviation_arithmetic(self):
        od = self.od_with_split(60, 25, 15)
        cmp = compare_shares(od, self.survey(), self.class_map())
        devs = dict(cmp.deviations_pp)
        assert devs["intra"] == pytest.approx(2.7, abs=1e-9)
        assert devs["lisbon"] == pytest.approx(-1.9, abs=1e-9)
        assert devs["other"] == pytest.approx(-0.4, abs=1e-9)

    def test_exact_match_zero_deviation(self):
        od = self.od_with_split(60, 25, 15)
        survey = {"intra": 0.6, "lisbon": 0.25, "other": 0.15}
        cmp = compare_shares(od, survey, self.class_map())
        assert all(abs(d) < 1e-9 for _, d in cmp.deviations_pp)

    def test_shares_must_sum_to_one(self):
        od = self.od_with_split(6, 3, 1)
        with pytest.raises(ClassMismatch):
            compare_shares(od, {"intra": 0.6, "lisbon": 0.2}, self.class_map())

    def test_unmapped_destination_rejected(self):
        od = self.od_with_split(6, 3, 1)
        with pytest.raises(ClassMismatch):
            compare_shares(od, self.survey(), {"Oeiras": "intra"})

    def test_pairwise_regression_with_outlier_fits(self):
        od = self.od_with_split(60, 25, 15)
        pairs = {
            ("Oeiras", "Oeiras"): 57.0,
            ("Oeiras", "Lisboa"): 70.0,
            ("Oeiras", "Sintra"): 16.0,
            ("Oeiras", "Faro"): 0.5,
        }
        cmp = compare_shares(od, self.survey(), self.class_map(), survey_pairs=pairs)
        assert cmp.regression is not None
        assert cmp.regression_without_outlier is not None
        assert cmp.regression_without_outlier.n == cmp.regression.n - 1
        # expected outlier from the independent fit: largest absolute residual
        keys = sorted(pairs)
        counts = od.count_dict()
        x = [pairs[k] for k in keys]
        y = [float(counts.get(k, 0)) for k in keys]
        slope, intercept, _ = ols_oracle(x, y)
        residuals = [abs(b - (intercept + slope * a)) for a, b in zip(x, y)]
        expected = keys[max(range(len(keys)), key=lambda i: (residuals[i], keys[i]))]
        assert cmp.outlier_pair == expected


class TestRegionAliases:
    def test_aliases_merge_cells(self):
        from cdrflow.validation import apply_region_aliases

        sps = [sp("o", "Oeiras"), sp("l", "Lisboa"), sp("x", "Lisbon")]
        trips = [trip("t0", "o", "l"), trip("t1", "o", "x"), trip("t2", "o", "o")]
        od = build_od_matrix(trips, sps, "municipality")
        merged = apply_region_aliases(od, {"Lisbon": "Lisboa"})
        assert merged.count_dict() == {("Oeiras", "Lisboa"): 2, ("Oeiras", "Oeiras"): 1}
        assert merged.total == od.total

    def test_alias_file(self, tmp_path):
        from cdrflow.validation import load_region_aliases_csv

        path = tmp_path / "aliases.csv"
        path.write_text("from,to\nLisbon,Lisboa\n")
        assert load_region_aliases_csv(path) == {"Lisbon": "Lisboa"}


class TestSurveyIO:
    def test_shares_format(self, tmp_path):
        path = tmp_path / "survey.csv"
        path.write_text("class,share\nintra,0.573\nlisbon,0.269\nother,0.154\n")
        doc = load_survey_csv(path)
        assert doc == {"shares": {"intra": 0.573, "lisbon": 0.269, "other": 0.154}}

    def test_pairs_format(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("origin,destination,trips\nOeiras,Lisboa,120\n")
        doc = load_survey_csv(path)
        assert doc == {"pairs": {("Oeiras", "Lisboa"): 120.0}}

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            load_survey_csv(path)

    def test_class_map(self, tmp_path):
        path = tmp_path / "classes.csv"
        path.write_text("destination,class\nOeiras,intra\nLisboa,lisbon\n")
        assert load_class_map_csv(path) == {"Oeiras": "intra", "Lisboa": "lisbon"}
