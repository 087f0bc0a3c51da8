"""Origin-destination aggregation and comparison against survey figures."""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

from .errors import ClassMismatch, DegenerateInput, UnresolvedRegion
from .files import HeaderMismatch, read_keyed_csv, strict_float, write_csv, write_json
from .stays import Staypoint, staypoint_region
from .trips import Trip, TripEnds

# half a percentage point of rounding slack across all survey classes
SHARE_SUM_TOLERANCE = 5e-3


@dataclass(frozen=True)
class OdMatrix:
    level: str
    counts: tuple  # tuple of ((origin_region, dest_region), trip count), sorted
    total: int
    dropped_trip_ids: tuple = ()

    def count_dict(self) -> dict[tuple[str, str], int]:
        return {pair: n for pair, n in self.counts}


@dataclass(frozen=True)
class RegressionResult:
    slope: float
    intercept: float
    r: float
    r_squared: float
    p_value: Optional[float]
    n: int
    degenerate_y: bool = False


@dataclass(frozen=True)
class ShareComparison:
    classes: tuple          # tuple of (class, measured share, survey share)
    deviations_pp: tuple    # tuple of (class, measured - survey, percentage points)
    deviations_rel: tuple   # tuple of (class, relative deviation or None)
    regression: Optional[RegressionResult] = None
    regression_without_outlier: Optional[RegressionResult] = None
    outlier_pair: Optional[tuple] = None


def build_od_matrix(
    trips: Sequence[Trip | TripEnds], staypoints: Sequence[Staypoint], level: str
) -> OdMatrix:
    """Trip counts per (origin region, destination region) at the given level.

    Intra-region trips land on the diagonal; trips whose endpoints lack a
    region are excluded and tallied in the drop list.
    """
    sp_index = {sp.staypoint_id: sp for sp in staypoints}
    counts: dict[tuple[str, str], int] = {}
    dropped = []
    for trip in trips:
        try:
            _, origin = staypoint_region(sp_index, trip.origin_staypoint, level, trip.trip_id)
            _, dest = staypoint_region(sp_index, trip.dest_staypoint, level, trip.trip_id)
        except UnresolvedRegion:
            dropped.append(trip.trip_id)
            continue
        counts[(origin, dest)] = counts.get((origin, dest), 0) + 1
    return OdMatrix(
        level=level,
        counts=tuple(sorted(counts.items())),
        total=sum(counts.values()),
        dropped_trip_ids=tuple(dropped),
    )


def apply_region_aliases(od: OdMatrix, aliases: dict[str, str]) -> OdMatrix:
    """Rename matrix regions (e.g. reconciling older administrative names).

    Cells that collide after renaming are summed; unlisted regions pass
    through unchanged.
    """
    merged: dict[tuple[str, str], int] = {}
    for (origin, dest), n in od.counts:
        pair = (aliases.get(origin, origin), aliases.get(dest, dest))
        merged[pair] = merged.get(pair, 0) + n
    return OdMatrix(
        level=od.level,
        counts=tuple(sorted(merged.items())),
        total=od.total,
        dropped_trip_ids=od.dropped_trip_ids,
    )


def load_region_aliases_csv(path: str | Path) -> dict[str, str]:
    """Alias file, header `from,to`: region renames applied before comparison."""
    return read_keyed_csv(
        path, ["from", "to"], "alias file", "alias source", lambda source, to: (source, to)
    )


def linear_regression(x: Sequence[float], y: Sequence[float]) -> RegressionResult:
    """Ordinary least squares with Pearson r and a two-sided slope p-value.

    The p-value uses the t statistic with n-2 degrees of freedom evaluated
    through the regularized incomplete beta function; it is None for n < 3.
    When y has zero variance the fit is flat and r is reported as 0 with the
    degenerate flag set.
    """
    if len(x) != len(y):
        raise DegenerateInput("x and y must have equal length")
    n = len(x)
    if n < 2:
        raise DegenerateInput("need at least two points")
    mean_x = sum(x) / n
    mean_y = sum(y) / n
    sxx = sum((xi - mean_x) ** 2 for xi in x)
    syy = sum((yi - mean_y) ** 2 for yi in y)
    sxy = sum((xi - mean_x) * (yi - mean_y) for xi, yi in zip(x, y))
    if sxx == 0.0:
        raise DegenerateInput("x is constant")

    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    degenerate_y = syy == 0.0
    r = 0.0 if degenerate_y else sxy / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    r_squared = r * r

    p_value: Optional[float] = None
    if n >= 3 and not degenerate_y:
        df = n - 2
        denom = 1.0 - r_squared
        if denom <= 0.0:
            p_value = 0.0
        else:
            t_squared = r_squared * df / denom
            p_value = _betainc(df / 2.0, 0.5, df / (df + t_squared), t_squared / (df + t_squared))
    elif n >= 3:
        p_value = 1.0  # flat y: slope 0 carries no evidence
    return RegressionResult(
        slope=slope, intercept=intercept, r=r, r_squared=r_squared,
        p_value=p_value, n=n, degenerate_y=degenerate_y,
    )


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0 and x + y = 1.

    y = 1 - x comes apart from x, so that x near 1 keeps its digits.  The
    continued fraction of Numerical Recipes (3rd ed., section 6.4) is
    evaluated by Lentz's method; it converges fast for x < (a+1)/(a+b+2),
    and above that the symmetry I_x(a, b) = 1 - I_y(b, a) is used.  The
    slope p-value's I_x(a, 1/2) for large a goes to _betainc_large_a.
    """
    if x <= 0.0 or y <= 0.0:
        return 0.0 if x <= 0.0 else 1.0
    if b == 0.5 and a >= _LARGE_A:
        return _betainc_large_a(a, x, y)
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log(y)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b


# From this a on (n = 202 points), _betainc_large_a is the more accurate;
# both are within 1e-13 of scipy's betainc there.
_LARGE_A = 100.0


def _betainc_large_a(a: float, x: float, y: float) -> float:
    """I_x(a, 1/2) for a >= _LARGE_A, to about 1e-13 relative.

    _betainc's way loses digits as a grows (1e-9 at a = 5e6): its
    lgamma(a + 1/2) - lgamma(a) and a log x cancel, and so do the continued
    fraction's terms below x = (a+1)/(a+5/2).  Here log x is log1p(-y),
    log B(a, 1/2) comes from _log_beta, and below that bound Temme's
    asymptotic expansion replaces the fraction: BGRAT of DiDonato & Morris
    (1992, ACM TOMS 708) for b = 1/2, where the incomplete gamma function
    Q(1/2, z) it needs is erfc(sqrt z).
    """
    b = 0.5
    log_x = math.log1p(-y)
    if x >= (a + 1.0) / (a + b + 2.0):
        front = math.exp(a * log_x + b * math.log(y) - _log_beta(b, a))
        return 1.0 - front * _beta_fraction(b, a, y) / b
    nu = a + 0.5 * (b - 1.0)
    z = -nu * log_x
    r = math.exp(-z) * math.sqrt(z / math.pi)  # exp(-z) z^b / gamma(b)
    if r < sys.float_info.min:
        return 0.0  # I_x(a, 1/2) is about erfc(sqrt z), which is below r / z
    u = math.exp(nu * log_x + b * math.log(-log_x) - _log_beta(b, a))
    j = math.erfc(math.sqrt(z)) / r
    v, t2 = 0.25 / (nu * nu), 0.25 * log_x * log_x
    total, t, cn, n2 = j, 1.0, 1.0, 0.0
    c: list[float] = []
    d: list[float] = []
    for n in range(1, 31):
        bp2n = b + n2
        j = (bp2n * (bp2n + 1.0) * j + (z + bp2n + 1.0) * t) * v
        n2 += 2.0
        t *= t2
        cn /= n2 * (n2 + 1.0)
        c.append(cn)
        s = sum((i * b - n) * c[i - 1] * d[n - i - 1] for i in range(1, n))
        d.append((b - 1.0) * cn + s / n)
        term = d[-1] * j
        total += term
        if abs(term) <= math.ulp(1.0) * total:
            return u * total
    raise ArithmeticError(f"incomplete beta expansion did not converge for a={a}, x={x}")


def _log_beta(p: float, q: float) -> float:
    """log B(p, q) for q >= 10, where lgamma(p) + lgamma(q) - lgamma(p + q) cancels.

    lgamma(q) - lgamma(p + q) is taken as a difference of Stirling series,
    whose large leading terms cancel on paper instead of in rounding: it is
    p - p log(p + q) + (q - 1/2) log1p(-p / (p + q)) plus the difference of
    the series' tails.
    """
    return (
        math.lgamma(p) + _stirling_tail(q) - _stirling_tail(p + q)
        + p - p * math.log(p + q) + (q - 0.5) * math.log1p(-p / (p + q))
    )


def _stirling_tail(z: float) -> float:
    """lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2), to within 1e-15 for z >= 10."""
    w = 1.0 / (z * z)
    return (
        1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w * (1 / 1188 - w * (
            691 / 360360 - w / 156)))))
    ) / z


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), two terms per round, by Lentz's method."""
    tiny = 1e-300  # keeps Lentz's denominators off zero
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100_000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) <= math.ulp(1.0):
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge for a={a}, b={b}, x={x}")


def compare_shares(
    od: OdMatrix,
    survey_shares: dict[str, float],
    class_map: dict[str, str],
    survey_pairs: Optional[dict[tuple[str, str], float]] = None,
) -> ShareComparison:
    """Measured destination-class shares against survey shares.

    class_map sends every destination region to a survey class; the survey
    classes must partition the observed destinations and their shares must
    sum to one.  When pairwise survey counts are supplied, the per-pair
    regression is reported twice: with all pairs and with the single
    largest-residual pair excluded.
    """
    # published survey shares are rounded to 0.1 pp, so allow that much slack
    share_sum = sum(survey_shares.values())
    if abs(share_sum - 1.0) > SHARE_SUM_TOLERANCE:
        raise ClassMismatch(f"survey shares sum to {share_sum}, expected 1")
    if od.total == 0:
        raise DegenerateInput("od matrix is empty")

    measured: dict[str, int] = {cls: 0 for cls in survey_shares}
    for (origin, dest), n in od.counts:
        cls = class_map.get(dest)
        if cls is None:
            raise ClassMismatch(f"destination {dest!r} has no survey class")
        if cls not in survey_shares:
            raise ClassMismatch(f"class {cls!r} missing from the survey shares")
        measured[cls] += n

    classes = tuple(
        (cls, measured[cls] / od.total, survey_shares[cls]) for cls in sorted(survey_shares)
    )
    deviations_pp = tuple(
        (cls, (m - s) * 100.0) for cls, m, s in classes
    )
    deviations_rel = tuple(
        (cls, (m - s) / s if s > 0 else None) for cls, m, s in classes
    )

    regression = regression_wo = None
    outlier_pair = None
    if survey_pairs:
        pairs = sorted(survey_pairs)
        count_by_pair = od.count_dict()
        x = [float(survey_pairs[p]) for p in pairs]
        y = [float(count_by_pair.get(p, 0)) for p in pairs]
        regression = linear_regression(x, y)
        if len(pairs) >= 4:
            residuals = [
                abs(yi - (regression.intercept + regression.slope * xi))
                for xi, yi in zip(x, y)
            ]
            worst = max(range(len(pairs)), key=lambda i: (residuals[i], pairs[i]))
            outlier_pair = pairs[worst]
            x_wo = [v for i, v in enumerate(x) if i != worst]
            y_wo = [v for i, v in enumerate(y) if i != worst]
            try:
                regression_wo = linear_regression(x_wo, y_wo)
            except DegenerateInput:
                regression_wo = None
    return ShareComparison(
        classes=classes,
        deviations_pp=deviations_pp,
        deviations_rel=deviations_rel,
        regression=regression,
        regression_without_outlier=regression_wo,
        outlier_pair=outlier_pair,
    )


# --- file formats -----------------------------------------------------------

def load_survey_csv(path: str | Path) -> dict:
    """Survey input: either class shares or pairwise trip counts.

    Header `class,share` yields {"shares": {...}}; header
    `origin,destination,trips` yields {"pairs": {...}}.
    """
    for kind, header, key, make in (
        ("shares", ["class", "share"], "class", lambda c, share: (c, strict_float(share))),
        ("pairs", ["origin", "destination", "trips"], "(origin, destination)",
         lambda origin, dest, trips: ((origin, dest), strict_float(trips))),
    ):
        try:
            return {kind: read_keyed_csv(path, header, "survey file", key, make)}
        except HeaderMismatch:
            pass
    raise ValueError(f"survey file {path}: expected 'class,share' or 'origin,destination,trips'")


def load_class_map_csv(path: str | Path) -> dict[str, str]:
    """Destination-region to survey-class mapping, header `destination,class`."""
    return read_keyed_csv(
        path, ["destination", "class"], "class map", "destination", lambda dest, c: (dest, c)
    )


def write_od_csv(od: OdMatrix, path: str | Path) -> None:
    write_csv(path, ["origin", "destination", "trips"], (
        [origin, dest, n] for (origin, dest), n in od.counts
    ))


def comparison_to_dict(cmp: ShareComparison) -> dict:
    return {
        "classes": [
            {"class": cls, "measured_share": m, "survey_share": s}
            for cls, m, s in cmp.classes
        ],
        "deviations_pp": [{"class": cls, "pp": d} for cls, d in cmp.deviations_pp],
        "deviations_rel": [{"class": cls, "rel": d} for cls, d in cmp.deviations_rel],
        "regression": asdict(cmp.regression) if cmp.regression else None,
        "regression_without_outlier": (
            asdict(cmp.regression_without_outlier) if cmp.regression_without_outlier else None
        ),
        "outlier_pair": list(cmp.outlier_pair) if cmp.outlier_pair else None,
    }


def write_validation_report(
    od: OdMatrix,
    comparison: Optional[ShareComparison],
    path: str | Path,
) -> None:
    doc = {
        "level": od.level,
        "total_trips": od.total,
        "n_od_pairs": len(od.counts),
        "n_dropped_trips": len(od.dropped_trip_ids),
        "comparison": comparison_to_dict(comparison) if comparison else None,
    }
    write_json(doc, path)
