"""Planar elastica sampling, chord reflections, and SVG/CSV output.

The (x, y) projection of a geodesic is an Euler elastica.  The reflection
family maps an arc to three symmetric arcs sharing its endpoints: point
reflection in the chord midpoint, reflection across the perpendicular
bisector of the chord, and reflection across the chord line itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .flow import Covector, exp_trajectory


@dataclass
class ElasticaPlot:
    samples: np.ndarray                  # rows (t, x, y), monotone in t
    markers: list = field(default_factory=list)   # (label, t, x, y)
    reflections: list = field(default_factory=list)  # (name, (n, 2) array)


def sample_elastica(lam: Covector, t_end: float, n: int = 400) -> np.ndarray:
    """(n, 3) array of (t, x, y) along [0, t_end]."""
    traj = exp_trajectory(lam, t_end, n)
    return traj[:, :3]


def _reflect_family(xy: np.ndarray):
    """The three chord-relative reflections of a sampled arc."""
    a = xy[0]
    b = xy[-1]
    mid = 0.5 * (a + b)
    chord = b - a
    norm = float(np.hypot(chord[0], chord[1]))
    if norm < 1e-12:
        # closed arc: chord degenerates, point reflection still meaningful
        u = np.array([1.0, 0.0])
    else:
        u = chord / norm
    rel = xy - mid
    along = rel @ u
    perp = rel @ np.array([-u[1], u[0]])
    def compose(s_along, s_perp):
        return mid + np.outer(s_along * along, u) + np.outer(s_perp * perp, np.array([-u[1], u[0]]))
    return [
        ("midpoint", compose(-1.0, -1.0)),
        ("perp_bisector", compose(-1.0, +1.0)),
        ("chord", compose(+1.0, -1.0)),
    ]


def build_plot(lam: Covector, t_end: float, n: int = 400,
               reflections: bool = False,
               marker_times: dict | None = None) -> ElasticaPlot:
    samples = sample_elastica(lam, t_end, n)
    plot = ElasticaPlot(samples=samples)
    if marker_times:
        ts = samples[:, 0]
        for label, tm in marker_times.items():
            if tm is None or not math.isfinite(tm) or tm > t_end:
                continue
            i = int(np.argmin(np.abs(ts - tm)))
            plot.markers.append((label, float(ts[i]), float(samples[i, 1]),
                                 float(samples[i, 2])))
    if reflections:
        plot.reflections = _reflect_family(samples[:, 1:3])
    return plot


def _fmt(x: float) -> str:
    return format(float(x), ".6f")


def write_svg(plot: ElasticaPlot, path: str):
    """Standalone SVG: polylines in plane units, 2px stroke, 4px circle markers."""
    curves = [("elastica", plot.samples[:, 1:3])] + list(plot.reflections)
    allpts = np.vstack([c for _, c in curves])
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    pad = 0.05 * max(hi[0] - lo[0], hi[1] - lo[1], 1e-6)
    x0, y0 = lo - pad
    x1, y1 = hi + pad
    colors = {"elastica": "#1f3b73", "midpoint": "#b03a2e",
              "perp_bisector": "#1e8449", "chord": "#b7950b"}
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(x0)} {_fmt(-y1)} {_fmt(x1 - x0)} {_fmt(y1 - y0)}">',
        '<g transform="scale(1,-1)" fill="none">',
    ]
    for name, pts in curves:
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        lines.append(f'<polyline stroke="{colors.get(name, "#333333")}" '
                     f'stroke-width="2" vector-effect="non-scaling-stroke" '
                     f'points="{coords}"/>')
    for label, t, x, y in plot.markers:
        lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2" '
                     f'fill="#000000"><title>{label} t={_fmt(t)}</title></circle>')
    lines.append("</g>")
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_csv(plot: ElasticaPlot, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x,y\n")
        for t, x, y in plot.samples:
            fh.write(f"{format(t, '.12g')},{format(x, '.12g')},{format(y, '.12g')}\n")
