"""CIELAB to sRGB conversion (D65 white point, 2-degree observer).

The XYZ -> linear RGB matrix is the inverse of the standard sRGB
RGB -> XYZ matrix, and the white point is taken from that matrix's row
sums so that L*=100, a*=b*=0 maps to exactly (1, 1, 1). Out-of-gamut
channels are clamped and reported, not rejected, so every finite a* and
b* converts. _check_lab holds the rule for a triple, which
model.FeatureLibrary also applies to each record.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

__all__ = ["lab_to_xyz", "xyz_to_srgb", "lab_to_srgb_hex"]

# sRGB RGB -> XYZ (IEC 61966-2-1, D65)
_M_RGB_TO_XYZ = np.array(
    [
        [0.4124564, 0.3575761, 0.1804375],
        [0.2126729, 0.7151522, 0.0721750],
        [0.0193339, 0.1191920, 0.9503041],
    ]
)
_M_XYZ_TO_RGB = np.linalg.inv(_M_RGB_TO_XYZ)
_WHITE = _M_RGB_TO_XYZ.sum(axis=1)  # XYZ of RGB (1,1,1)

_GAMUT_TOL = 1e-9
# bound on f(X) and f(Z): its cube, times the white point and the
# XYZ -> RGB matrix, stays finite
_F_MAX = 1e100


def _check_lab(L, a, b) -> None:
    if not 0.0 <= L <= 100.0:
        raise ValidationError(f"L*={L} outside [0, 100]")
    if not np.isfinite((a, b)).all():
        raise ValidationError(f"a*={a}, b*={b} must be finite")


def lab_to_xyz(lab) -> np.ndarray:
    """CIELAB -> CIE XYZ (Y of white = 1).

    Where a* or b* would take f(X) or f(Z) above 1e100, both are scaled
    down by one factor: the color stays as far out of gamut, in the same
    direction, so each sRGB channel clamps to the side it would have.
    """
    L, a, b = (float(v) for v in lab)
    _check_lab(L, a, b)
    fy = (L + 16.0) / 116.0
    fx, fz = fy + a / 500.0, fy - b / 200.0
    scale = _F_MAX / max(fx, fz, _F_MAX)  # 1.0 unless XYZ would overflow
    fx, fz = fx * scale, fz * scale

    def f_inv(t):
        delta = 6.0 / 29.0
        return t ** 3 if t > delta else 3.0 * delta ** 2 * (t - 4.0 / 29.0)

    return _WHITE * np.array([f_inv(fx), f_inv(fy), f_inv(fz)])


def xyz_to_srgb(xyz) -> tuple[np.ndarray, bool]:
    """XYZ -> gamma-encoded sRGB in [0, 1]; second value is True when no
    clamping was needed."""
    linear = _M_XYZ_TO_RGB @ np.asarray(xyz, dtype=float)
    in_gamut = bool(
        np.all(linear >= -_GAMUT_TOL) and np.all(linear <= 1.0 + _GAMUT_TOL)
    )
    linear = np.clip(linear, 0.0, 1.0)
    srgb = np.where(
        linear <= 0.0031308,
        12.92 * linear,
        1.055 * np.power(linear, 1.0 / 2.4) - 0.055,
    )
    return srgb, in_gamut


def lab_to_srgb_hex(lab) -> tuple[str, bool]:
    """CIELAB triple -> 8-bit hex string plus an in-gamut flag."""
    srgb, in_gamut = xyz_to_srgb(lab_to_xyz(lab))
    channels = [int(round(255.0 * float(c))) for c in srgb]
    return "#" + "".join(f"{c:02x}" for c in channels), in_gamut
