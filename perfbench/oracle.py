"""Reference values for the benchmark's output checks.

The reference is computed here from the definitions in arXiv 2108.03685,
without importing semdisc, so a change to the program cannot move the
reference along with its output. What it fixes is the behaviour of the
program at the commit that added the benchmark:

- balanced merit is a cell minus the best competing cell of its feature;
- the chosen feature set maximizes total balanced merit (scipy's exact
  solver) over the whole library;
- 2-concept capacity is the closed form |2 Phi(z) - 1|;
- larger sets use the Monte Carlo estimate (n! p - 1) / (n! - 1), where p
  is the modal assignment's frequency over perturbations drawn from a
  Philox stream keyed by the per-subset seed, each iteration owning
  ceil(n^2 / 4) counter blocks;
- each subset of a scan gets SeedSequence((master seed, subset index)).

Every check returns a list of messages; an empty list means the output
matches.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections import Counter

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from scipy.optimize import linear_sum_assignment
from scipy.special import ndtr, ndtri

# floats derived from sums and logs may differ in the last bits when a
# later change reorders the arithmetic; counts-based values may not
REL_TOL = 1e-9
_U_SHIFT = 2.0 ** -54
THRESHOLD = 0.7

# sRGB RGB -> XYZ (IEC 61966-2-1, D65); white is RGB (1, 1, 1)
_M_RGB_TO_XYZ = np.array(
    [
        [0.4124564, 0.3575761, 0.1804375],
        [0.2126729, 0.7151522, 0.0721750],
        [0.0193339, 0.1191920, 0.9503041],
    ]
)


def balanced_merit(a: np.ndarray) -> np.ndarray:
    """Each cell minus the largest other cell of its row (feature); any
    leading batch dimensions are kept."""
    cols = [a[..., j] for j in range(a.shape[-1])]
    out = np.empty(a.shape)
    for j, col in enumerate(cols):
        out[..., j] = col - functools.reduce(np.maximum, cols[:j] + cols[j + 1 :])
    return out


def _solve(merit: np.ndarray) -> tuple[int, ...]:
    """Row assigned to each column by the maximum-merit assignment."""
    r, c = linear_sum_assignment(merit, maximize=True)
    rows = np.empty(merit.shape[1], dtype=int)
    rows[c] = r
    return tuple(int(i) for i in rows)


def chosen_rows(a: np.ndarray) -> list[int]:
    """Library row assigned to each concept column by the
    balanced-merit-optimal assignment."""
    return list(_solve(balanced_merit(a)))


def sigma(a: np.ndarray) -> np.ndarray:
    return 1.4 * a * (1.0 - a)


def analytic_distance(square: np.ndarray) -> float:
    num = (square[0, 0] + square[1, 1]) - (square[0, 1] + square[1, 0])
    var = float((sigma(square) ** 2).sum())
    if var == 0.0:
        return 1.0 if num != 0.0 else 0.0
    return abs(2.0 * float(ndtr(num / math.sqrt(var))) - 1.0)


def monte_carlo_distance(square: np.ndarray, samples: int, seed: int) -> float:
    """Generalized semantic distance of a square (features x concepts)
    table from `samples` perturb-and-solve iterations."""
    n = square.shape[0]
    cells = n * n
    blocks = -(-cells // 4)
    u = Generator(Philox(key=seed)).random(samples * blocks * 4)
    z = ndtri(u.reshape(samples, blocks * 4)[:, :cells] + _U_SHIFT)
    merits = balanced_merit(square + sigma(square) * z.reshape(samples, n, n))
    if n <= 5:
        # total merit of every assignment as one product with a 0/1
        # selection matrix; exact ties have probability zero here
        perms = list(itertools.permutations(range(n)))
        select = np.zeros((len(perms), n, n))
        for k, perm in enumerate(perms):
            select[k, perm, range(n)] = 1.0
        totals = merits.reshape(samples, cells) @ select.reshape(len(perms), cells).T
        modal = int(np.bincount(np.argmax(totals, axis=1)).max())
    else:
        modal = max(Counter(_solve(m) for m in merits).values())
    n_fact = math.factorial(n)
    return (n_fact * (modal / samples) - 1.0) / (n_fact - 1.0)


def subset_seed(master_seed: int, subset_index: int) -> int:
    return int(
        SeedSequence((master_seed, subset_index)).generate_state(1, np.uint64)[0]
    )


def _distributions(a: np.ndarray) -> np.ndarray:
    return a / a.sum(axis=0)


def _mean_entropy(p: np.ndarray) -> float:
    return float(np.mean([-(col * np.log(col)).sum() for col in p.T]))


def _distribution_difference(p: np.ndarray) -> float:
    if p.shape[1] == 2:
        return float(0.5 * np.abs(p[:, 0] - p[:, 1]).sum())
    return float(p.max(axis=1).sum() - 1.0)


def _exhaustive_statistics(sub: np.ndarray) -> dict:
    s2 = (sigma(sub) ** 2).sum(axis=1)
    d = sub[:, 0] - sub[:, 1]
    i1, i2 = np.triu_indices(sub.shape[0], k=1)
    ds = np.abs(2.0 * ndtr((d[i1] - d[i2]) / np.sqrt(s2[i1] + s2[i2])) - 1.0)
    return {
        "max": float(ds.max()),
        "mean": float(ds.mean()),
        "median": float(np.median(ds)),
        "threshold_proportion": float((ds > THRESHOLD).mean()),
        "pairs": len(ds),
    }


def _close(got, want: float, tol: float = REL_TOL) -> bool:
    return (
        isinstance(got, (int, float))
        and not isinstance(got, bool)
        and math.isclose(got, want, rel_tol=tol, abs_tol=tol)
    )


def check_scan(
    stdout: bytes,
    values: np.ndarray,
    k: int,
    samples: int,
    master_seed: int,
    exhaustive: bool,
) -> list[str]:
    """Check `capacity --all --k k` NDJSON output against the reference.

    Only the fields the paper defines are compared (plus the exhaustive
    statistics when requested); keys a later version adds are ignored.
    """
    concepts = [f"c{j}" for j in range(values.shape[1])]
    subsets = list(itertools.combinations(range(len(concepts)), k))
    lines = stdout.decode("utf-8").splitlines()
    if len(lines) != len(subsets):
        return [f"expected {len(subsets)} rows, got {len(lines)}"]
    errors: list[str] = []
    for idx, (line, cols) in enumerate(zip(lines, subsets)):
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"row {idx}: not JSON ({exc})")
            continue
        sub = values[:, list(cols)]
        rows = chosen_rows(sub)
        square = sub[rows]
        p = _distributions(sub)
        want_capacity = (
            analytic_distance(square)
            if k == 2
            else monte_carlo_distance(square, samples, subset_seed(master_seed, idx))
        )
        problems = []
        if row.get("concepts") != [concepts[c] for c in cols]:
            problems.append(f"concepts {row.get('concepts')}")
        if row.get("chosen_features") != [str(r + 1) for r in rows]:
            problems.append(f"chosen_features {row.get('chosen_features')}")
        if not _close(row.get("max_capacity"), want_capacity):
            problems.append(
                f"max_capacity {row.get('max_capacity')} != {want_capacity}"
            )
        if not _close(row.get("distribution_difference"), _distribution_difference(p)):
            problems.append("distribution_difference")
        if not _close(row.get("mean_entropy"), _mean_entropy(p)):
            problems.append("mean_entropy")
        if exhaustive:
            problems += _check_exhaustive(row.get("exhaustive"), sub)
        if problems:
            errors.append(f"row {idx} {row.get('concepts')}: " + "; ".join(problems))
        if len(errors) >= 5:
            errors.append("further rows not checked")
            break
    return errors


def _check_exhaustive(got, sub: np.ndarray) -> list[str]:
    if not isinstance(got, dict):
        return ["exhaustive statistics missing"]
    want = _exhaustive_statistics(sub)
    problems = [
        f"exhaustive.{key}"
        for key in ("max", "mean", "median")
        if not _close(got.get(key), want[key])
    ]
    # a pair whose distance sits within rounding of the threshold may
    # fall on either side
    if not _close(
        got.get("threshold_proportion"),
        want["threshold_proportion"],
        tol=1.5 / want["pairs"],
    ):
        problems.append("exhaustive.threshold_proportion")
    return problems


def lab_to_hex(lab) -> str:
    L, a, b = (float(v) for v in lab)
    fy = (L + 16.0) / 116.0
    delta = 6.0 / 29.0

    def f_inv(t):
        return t ** 3 if t > delta else 3.0 * delta ** 2 * (t - 4.0 / 29.0)

    xyz = _M_RGB_TO_XYZ.sum(axis=1) * np.array(
        [f_inv(fy + a / 500.0), f_inv(fy), f_inv(fy - b / 200.0)]
    )
    linear = np.clip(np.linalg.inv(_M_RGB_TO_XYZ) @ xyz, 0.0, 1.0)
    srgb = np.where(
        linear <= 0.0031308,
        12.92 * linear,
        1.055 * np.power(linear, 1.0 / 2.4) - 0.055,
    )
    return "#" + "".join(f"{int(round(255.0 * float(c))):02x}" for c in srgb)


def check_palette(
    stdout: bytes,
    values: np.ndarray,
    concepts: list[str],
    labs: dict[str, tuple[float, float, float]],
    samples: int,
    master_seed: int,
) -> list[str]:
    """Check `palette --concepts ...` JSON output: the chosen features,
    their hex colors, and delta_s (which max_capacity must equal)."""
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"palette output is not JSON ({exc})"]
    cols = [int(c[1:]) for c in concepts]
    rows = chosen_rows(values[:, cols])
    want_ids = [str(r + 1) for r in rows]
    want_delta = monte_carlo_distance(values[rows][:, cols], samples, master_seed)
    entries = out.get("palette") or []
    errors = []
    if [e.get("feature_id") for e in entries] != want_ids:
        errors.append(f"chosen features {[e.get('feature_id') for e in entries]} != {want_ids}")
    elif [e.get("hex") for e in entries] != [lab_to_hex(labs[f]) for f in want_ids]:
        errors.append(f"hex {[e.get('hex') for e in entries]}")
    for key in ("delta_s", "max_capacity"):
        if not _close(out.get(key), want_delta):
            errors.append(f"{key} {out.get(key)} != {want_delta}")
    return errors
