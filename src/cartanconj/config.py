"""Numerical tolerances and the flat key=value config file.

Defaults are chosen so that zeros of the exponential-map Jacobian are
located to about 1e-6 in time, which drives every other tolerance.
CLI flags override config-file values, which override the defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Tolerances:
    ode_rtol: float = 1e-12
    ode_atol: float = 1e-12
    root_xtol: float = 1e-12
    residual_tol: float = 1e-10
    scan_panels: int = 64
    scan_dt: float = 0.01            # base scan step for first-zero search
    agreement_tol: float = 1e-4      # analytic vs variational first zero
    mp_dps: int = 50                 # working digits for the high-precision path
    c2_mp_k: float = 0.2             # below this modulus every C2 formula goes high-precision
    bound_slack: float = 1e-6        # slack for the two-sided conjugate-time bounds

    def override(self, **kw) -> "Tolerances":
        kw = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **kw) if kw else self


DEFAULT = Tolerances()

_FIELD_TYPES = {f.name: f.type for f in fields(Tolerances)}


def load_config(path: str) -> Tolerances:
    """Parse a flat ``key = value`` file (# starts a comment)."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _FIELD_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
            caster = int if _FIELD_TYPES[key] in ("int", int) else float
            values[key] = caster(val.strip())
    return Tolerances().override(**values)
