"""Statistical pipeline over all k-subsets of a concept set.

For each subset we tabulate capacity, distribution difference (TV or
GTV), and mean-entropy specificity, apply the log transforms used for the
scatter analyses, and provide Pearson correlation, Fisher r-to-z
comparisons, and OLS multiple regression with z-scored predictors;
analyze runs them over a frame as the paper's capacity analysis.
Two-sided p-values come from scipy.special.stdtr and ndtr, the functions
behind scipy.stats' t and normal survival functions, so they are
identical to those; scipy.stats itself is not imported, which keeps it
out of every command's start-up. The sums of products behind the
correlations and the regression's standard errors are exactly rounded
(math.fsum), not BLAS dot products, which OpenBLAS splits across its
threads, so no value depends on the BLAS thread count.

Normalization before the log: distribution differences are divided by the
collection maximum (min-max would map the minimum to 0 where the log is
undefined); specificity is 1 - mean_entropy / log(N), which is positive
unless every concept's distribution is exactly uniform. Zero-valued raw
differences are flagged and excluded from log-scale outputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtr, stdtr

from .capacity import iter_capacity_reports
from .errors import DegenerateInputError, SingularDesignError, ValidationError
from .model import AssociationTable
from .montecarlo import MonteCarloConfig

__all__ = [
    "AnalysisFrame",
    "analyze",
    "build_frame",
    "pearson_r",
    "fisher_r_to_z_compare",
    "dependent_correlation_compare",
    "ols_regression",
    "z_score",
]


@dataclass(frozen=True)
class AnalysisFrame:
    """One row per concept subset. Log columns hold NaN for rows whose raw
    value was flagged as zero (log undefined); analyze drops flagged rows,
    and the correlation/regression helpers refuse them."""

    subsets: tuple[tuple[str, ...], ...]
    capacity: np.ndarray = field(repr=False)
    distribution_difference: np.ndarray = field(repr=False)
    mean_entropy: np.ndarray = field(repr=False)
    specificity: np.ndarray = field(repr=False)
    log_distribution_difference: np.ndarray = field(repr=False)
    log_specificity: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.subsets)

    @property
    def valid_mask(self) -> np.ndarray:
        return np.isfinite(self.log_distribution_difference) & np.isfinite(
            self.log_specificity
        )

    def rows(self) -> list[dict]:
        """One dict per subset: its concepts, then each array field's value
        in field order."""
        columns = [(f.name, getattr(self, f.name)) for f in fields(self)[1:]]
        return [
            {"concepts": list(subset), **{k: float(v[i]) for k, v in columns}}
            for i, subset in enumerate(self.subsets)
        ]


def build_frame(
    table: AssociationTable,
    k: int,
    config: MonteCarloConfig = MonteCarloConfig(),
    workers: int = 1,
) -> AnalysisFrame:
    """Tabulate capacity, distribution difference, and specificity for all
    k-subsets of the table's concepts."""
    subsets, cap, dd, ment = [], [], [], []
    for report in iter_capacity_reports(table, k, config, workers=workers):
        subsets.append(report.concepts)
        cap.append(report.max_capacity)
        dd.append(report.distribution_difference)
        ment.append(report.mean_entropy)
    cap = np.asarray(cap)
    dd = np.asarray(dd)
    ment = np.asarray(ment)

    dd_max = dd.max()
    if dd_max <= 0.0:
        raise DegenerateInputError(
            "all distribution differences are zero; normalization undefined"
        )
    norm_dd = dd / dd_max
    log_dd = np.where(norm_dd > 0.0, np.log(np.maximum(norm_dd, 1e-300)), np.nan)
    n_zero = int((norm_dd == 0.0).sum())
    if n_zero:
        warnings.warn(
            f"{n_zero} subset(s) have zero distribution difference; "
            "excluded from log-scale columns",
            stacklevel=2,
        )

    specificity = 1.0 - ment / math.log(table.n_features)
    log_spec = np.where(
        specificity > 0.0, np.log(np.maximum(specificity, 1e-300)), np.nan
    )
    if np.any(specificity <= 0.0):
        warnings.warn(
            "subset(s) with zero specificity excluded from log-scale columns",
            stacklevel=2,
        )

    return AnalysisFrame(
        subsets=tuple(subsets),
        capacity=cap,
        distribution_difference=dd,
        mean_entropy=ment,
        specificity=specificity,
        log_distribution_difference=log_dd,
        log_specificity=log_spec,
    )


def _check_finite(func: str, **values) -> None:
    """Refuse NaN and inf in arrays or numbers, on which the statistics
    would return a wrong number or fail inside numpy."""
    for name, a in values.items():
        if not np.isfinite(a).all():
            rows = "rows only (for a frame, those of AnalysisFrame.valid_mask)"
            raise ValidationError(
                f"{func}: {name} holds NaN or inf; pass the finite "
                + (rows if np.ndim(a) else "values")
            )


def pearson_r(x: Sequence[float], y: Sequence[float]) -> dict:
    """Sample Pearson correlation with two-sided p from the t
    distribution on len - 2 degrees of freedom."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("pearson_r needs two equal-length vectors")
    _check_finite("pearson_r", x=x, y=y)
    if x.size < 3:
        raise ValidationError("pearson_r needs at least 3 points")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = math.sqrt(math.fsum(xc * xc))
    sy = math.sqrt(math.fsum(yc * yc))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInputError("zero variance input to pearson_r")
    r = math.fsum(xc * yc) / (sx * sy)
    r = max(-1.0, min(1.0, r))
    df = x.size - 2
    if abs(r) == 1.0:
        p = 0.0
    else:
        t = r * math.sqrt(df / (1.0 - r * r))
        p = 2.0 * float(stdtr(df, -abs(t)))
    return {"r": r, "df": df, "p": p}


def _atanh_checked(r: float) -> float:
    if abs(r) >= 1.0:
        raise DegenerateInputError(f"|r|={abs(r)} >= 1; r-to-z transform undefined")
    return math.atanh(r)


def fisher_r_to_z_compare(r1: float, r2: float, df: int) -> dict:
    """Independent-samples comparison of two correlations observed on the
    same number of points (n = df + 2):
    z = (atanh r1 - atanh r2) / sqrt(2 / (n - 3)), two-sided p."""
    _check_finite("fisher_r_to_z_compare", r1=r1, r2=r2, df=df)
    n = df + 2
    if n <= 3:
        raise ValidationError("need n > 3 for the r-to-z comparison")
    z = (_atanh_checked(r1) - _atanh_checked(r2)) / math.sqrt(2.0 / (n - 3))
    return {"z": z, "p": 2.0 * float(ndtr(-abs(z)))}


def dependent_correlation_compare(
    r1: float, r2: float, r12: float, n: int
) -> dict:
    """Steiger's test for two correlations that share a variable (e.g.
    corr(y, x1) vs corr(y, x2), with r12 = corr(x1, x2))."""
    _check_finite("dependent_correlation_compare", r1=r1, r2=r2, r12=r12, n=n)
    if n <= 3:
        raise ValidationError("need n > 3 for the dependent comparison")
    z1 = _atanh_checked(r1)
    z2 = _atanh_checked(r2)
    if abs(r12) >= 1.0:
        raise DegenerateInputError("|r12| >= 1")
    rm2 = (r1 * r1 + r2 * r2) / 2.0
    f = min(1.0, (1.0 - r12) / (2.0 * (1.0 - rm2)))
    h = (1.0 - f * rm2) / (1.0 - rm2)
    z = (z1 - z2) * math.sqrt((n - 3) / (2.0 * (1.0 - r12) * h))
    return {"z": z, "p": 2.0 * float(ndtr(-abs(z)))}


def z_score(x: np.ndarray) -> np.ndarray:
    """Center and scale to unit sample standard deviation (ddof=1)."""
    x = np.asarray(x, dtype=float)
    sd = x.std(ddof=1)
    if sd == 0.0:
        raise DegenerateInputError("zero variance; z-scoring undefined")
    return (x - x.mean()) / sd


def ols_regression(
    y: Sequence[float],
    X: np.ndarray,
    names: Optional[Sequence[str]] = None,
) -> dict:
    """Ordinary least squares with intercept on z-scored predictors.

    Returns per-coefficient estimates, standard errors from the unbiased
    residual variance, t statistics, and two-sided p values. Predictors
    are z-scored to put them on a common scale, so the intercept is the
    mean of y and each slope is per standard deviation of its predictor.
    """
    y = np.asarray(y, dtype=float)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] != y.size:
        X = X.T
    _check_finite("ols_regression", y=y, X=X)
    n, k = X.shape
    if names is None:
        names = [f"x{j + 1}" for j in range(k)]
    elif len(names) != k:
        raise ValidationError(f"ols_regression: {len(names)} names for {k} predictors")
    if n < k + 2:
        raise ValidationError(f"need at least {k + 2} rows for {k} predictors")
    X = np.column_stack([z_score(X[:, j]) for j in range(k)])
    design = np.column_stack([np.ones(n), X])
    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise SingularDesignError("design matrix is rank deficient")
    resid = y - design @ beta
    dof = n - design.shape[1]
    s2 = math.fsum(resid * resid) / dof
    gram = [[math.fsum(a * b) for b in design.T] for a in design.T]
    cov = s2 * np.linalg.inv(gram)
    se = np.sqrt(np.diag(cov))
    with np.errstate(divide="ignore"):
        t = np.where(se > 0.0, beta / se, np.inf * np.sign(beta))
    p = 2.0 * stdtr(dof, -np.abs(t))
    return {
        "names": ["intercept"] + list(names),
        "beta": [float(b) for b in beta],
        "se": [float(v) for v in se],
        "t": [float(v) for v in t],
        "p": [float(v) for v in p],
        "df_residual": dof,
    }


def analyze(frame: AnalysisFrame) -> dict:
    """The paper's capacity analysis on a frame's rows with log-scale
    values: the correlations, their Fisher comparisons and the regression
    of capacity on both log predictors. Refuses rows too few for the
    regression, or holding a constant column, naming the excluded subsets.

    The rows are k-subsets of one concept set, so many of them share
    concepts and are not independent; every p-value here is computed as
    if they were."""
    mask = frame.valid_mask
    valid = int(mask.sum())
    excluded = [",".join(s) for s, ok in zip(frame.subsets, mask) if not ok]
    named = "; ".join(excluded[:5]) or "none"
    if len(excluded) > 5:
        named += f"; and {len(excluded) - 5} more"
    if valid < 4:
        raise DegenerateInputError(
            f"analyze needs at least 4 subsets with log-scale values, got "
            f"{valid}; excluded: {named}"
        )
    cap = frame.capacity[mask]
    log_dd = frame.log_distribution_difference[mask]
    log_spec = frame.log_specificity[mask]
    for name, values in (
        ("capacity", cap),
        ("distribution difference", log_dd),
        ("specificity", log_spec),
    ):
        if (values == values[0]).all():
            raise DegenerateInputError(
                f"analyze needs {name} to vary over the {valid} subsets with "
                f"log-scale values; excluded: {named}"
            )
    r_dd = pearson_r(cap, log_dd)
    r_spec = pearson_r(cap, log_spec)
    r12 = pearson_r(log_dd, log_spec)
    return {
        "correlations": {
            "capacity_vs_distribution_difference": r_dd,
            "capacity_vs_specificity": r_spec,
            "predictors": r12,
        },
        "fisher": {
            "independent": fisher_r_to_z_compare(r_dd["r"], r_spec["r"], r_dd["df"]),
            "dependent": dependent_correlation_compare(
                r_dd["r"], r_spec["r"], r12["r"], valid
            ),
        },
        "regression": ols_regression(
            cap, [log_dd, log_spec], names=["distribution_difference", "specificity"]
        ),
    }
