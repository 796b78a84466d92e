"""Generate the small-k series of the four C2 kernels.

    python tools/gen_c2_series.py            # write src/cartanconj/c2_series_tables.py
    python tools/gen_c2_series.py --check    # regenerate and diff against that module

On C2 the kernels fz, fv, a01 and a21 of ``cartanconj.maxwell`` fall off
like k**3, k**8, k**8 and k**17 against O(1) monomials, so float64 cannot
evaluate them at small k.  At fixed amplitude u = am(p, k), though, F(u, k),
E(u, k) and dn u are power series in k**2 whose coefficients are
polynomials in u, s = sin u and c = cos u:

    F = sum_n binom(2n, n) / 4**n  k**(2n) I_n,    E = sum_n binom(1/2, n) (-k**2)**n I_n,
    dn u = sum_n binom(1/2, n) (-k**2)**n s**(2n),  I_n = int_0^u sin**(2n),
    I_0 = u,  I_n = (2n - 1)/(2n) I_(n-1) - s**(2n - 1) c / (2n).

The script runs the kernels themselves on truncated series in k with such
coefficients (exact rationals, c**2 reduced to 1 - s**2 after every product,
so a coefficient is zero exactly when its polynomial is).  It asserts that
every order below the kernel's leading power vanishes, as do the orders of
the other parity, and writes the leading order and the next few, divided by
that power, as float coefficient tables; the last order of each table is the
first one the evaluator omits, which it reads as its truncation estimate.
Each kernel's table is a coefficient matrix over the monomials u**a s**b c**e
that occur in it.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import sys
from fractions import Fraction
from pathlib import Path

from sympy import QQ
from sympy.polys.rings import ring

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from cartanconj.maxwell import (a01_c2_kernel, a21_c2_kernel, fv_c2_kernel,  # noqa: E402
                                fz_c2_kernel)

OUT = ROOT / "src" / "cartanconj" / "c2_series_tables.py"

# kernel -> (its function, leading power of k, orders in k**2 written, the
# last of them being the first omitted one)
KERNELS = {
    "fz": (fz_c2_kernel, 3, 7),
    "fv": (fv_c2_kernel, 8, 7),
    "a01": (a01_c2_kernel, 8, 7),
    "a21": (a21_c2_kernel, 17, 7),
}

R, c, s, u = ring("c,s,u", QQ)
CIRCLE = c ** 2 + s ** 2 - 1


class _Ignored:
    """Stands in for the kernels' magnitude sums, which the series does not need."""

    def _same(self, *args):
        return self

    __add__ = __radd__ = __mul__ = __rmul__ = __truediv__ = __pow__ = __neg__ = _same


IGNORED = _Ignored()


class KSeries:
    """A power series in k truncated after k**order, with coefficients in
    Q[c, s, u] reduced modulo c**2 + s**2 - 1."""

    def __init__(self, terms, order):
        self.order = order
        self.terms = {j: p for j, p in terms.items() if j <= order and p}

    @staticmethod
    def lift(x, order):
        if isinstance(x, KSeries):
            return x
        if isinstance(x, int):
            return KSeries({0: R(x)}, order)
        return NotImplemented

    def __add__(self, other):
        other = KSeries.lift(other, self.order)
        if other is NotImplemented:
            return other
        terms = dict(self.terms)
        for j, p in other.terms.items():
            terms[j] = terms.get(j, R(0)) + p
        return KSeries(terms, min(self.order, other.order))

    __radd__ = __add__

    def __neg__(self):
        return KSeries({j: -p for j, p in self.terms.items()}, self.order)

    def __sub__(self, other):
        other = KSeries.lift(other, self.order)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return KSeries({j: other * p for j, p in self.terms.items()}, self.order)
        if not isinstance(other, KSeries):
            return NotImplemented
        order = min(self.order, other.order)
        terms = {}
        for i, p in self.terms.items():
            for j, q in other.terms.items():
                if i + j <= order:
                    terms[i + j] = terms.get(i + j, R(0)) + p * q
        return KSeries({j: p.rem(CIRCLE) for j, p in terms.items()}, order)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = KSeries.lift(1, self.order)
        for _ in range(n):
            out = out * self
        return out

    def __truediv__(self, other):
        if isinstance(other, int):
            return KSeries({j: p * QQ(1, other) for j, p in self.terms.items()}, self.order)
        if isinstance(other, KSeries) and len(other.terms) == 1:
            # a monomial a k**d: only the kernels' division by k
            (d, a), = other.terms.items()
            assert a.is_ground, "division by a k-monomial only"
            if any(j < d for j in self.terms):
                raise ZeroDivisionError("the dividend has orders below the divisor's")
            return KSeries({j - d: p * (1 / a.LC) for j, p in self.terms.items()},
                           self.order - d)
        return NotImplemented

    def __abs__(self):
        return IGNORED


def _binom_half(n):
    """binom(1/2, n) (-1)**n, the k**(2n) coefficient of sqrt(1 - k**2 x) over x**n."""
    out = Fraction(1)
    for i in range(n):
        out *= Fraction(1, 2) - i
    for i in range(1, n + 1):
        out /= i
    return out * (-1) ** n


def _q(x: Fraction):
    return QQ(x.numerator, x.denominator)


def kernel_args(order):
    """The C2 kernels' arguments (k, k**2, F, E, sin u, cos u, dn u) as series."""
    integrals = [u]
    for n in range(1, order // 2 + 1):
        integrals.append(QQ(2 * n - 1, 2 * n) * integrals[-1] - s ** (2 * n - 1) * c * QQ(1, 2 * n))
    orders = range(order // 2 + 1)
    central = [Fraction(1)]
    for n in range(1, order // 2 + 1):
        central.append(central[-1] * Fraction(2 * n - 1, 2 * n))    # binom(2n, n) / 4**n
    F = KSeries({2 * n: _q(central[n]) * integrals[n] for n in orders}, order)
    E = KSeries({2 * n: _q(_binom_half(n)) * integrals[n] for n in orders}, order)
    dn = KSeries({2 * n: _q(_binom_half(n)) * s ** (2 * n) for n in orders}, order)
    k = KSeries({1: R(1)}, order)
    return k, k * k, F, E, KSeries({0: s}, order), KSeries({0: c}, order), dn


def kernel_series(kernel, lead, n_orders):
    """Coefficients of kernel / k**lead at k**0, k**2, ... (n_orders of them)."""
    top = lead + 2 * (n_orders - 1)
    val = kernel(*kernel_args(top + 1))[0]
    name = kernel.__name__
    for j in range(top + 1):
        if j < lead or (j - lead) % 2:
            assert j not in val.terms, f"{name} has a k**{j} term"
    return [val.terms.get(lead + 2 * j, R(0)) for j in range(n_orders)]


def table(polys):
    """(monomials, rows) of the coefficient polynomials of one kernel: the
    sorted exponents (a, b, e) of u, s and c that occur in any of them, and
    per polynomial its float coefficient of each (0.0 where absent)."""
    coeffs = [{(eu, es, ec): float(Fraction(int(cf.numerator), int(cf.denominator)))
               for (ec, es, eu), cf in p.terms()} for p in polys]
    monos = tuple(sorted(set().union(*coeffs)))
    assert all(e <= 1 for _, _, e in monos)
    return monos, tuple(tuple(c.get(m, 0.0) for m in monos) for c in coeffs)


def tables():
    return {name: (lead, *table(kernel_series(kernel, lead, n)))
            for name, (kernel, lead, n) in KERNELS.items()}


def tables_digest(series) -> str:
    return hashlib.sha256(repr(series).encode()).hexdigest()


def render(series) -> str:
    lines = [
        '"""Small-k series of the C2 kernels: generated by tools/gen_c2_series.py, do not edit.',
        "",
        "SERIES[name] = (n, monomials, orders): name / k**n = sum_j k**(2 j) P_j(u),",
        "P_j = sum_i orders[j][i] u**a sin(u)**b cos(u)**e over the monomials",
        "(a, b, e) = monomials[i]; the last order is the first one a truncation omits.",
        '"""',
        "",
        f'GENERATOR_SHA256 = "{hashlib.sha256(Path(__file__).read_bytes()).hexdigest()}"',
        f'TABLES_SHA256 = "{tables_digest(series)}"',
        "",
        "SERIES = {",
    ]
    for name, (lead, monos, orders) in series.items():
        lines.append(f"    {name!r}: ({lead}, (")
        for i in range(0, len(monos), 8):
            lines.append("        " + " ".join(f"{m!r}," for m in monos[i:i + 8]))
        lines.append("    ), (")
        for j, row in enumerate(orders):
            lines.append(f"        (  # k**{2 * j}")
            for i in range(0, len(row), 4):
                lines.append("            " + " ".join(f"{c!r}," for c in row[i:i + 4]))
            lines.append("        ),")
        lines.append("    )),")
    lines.append("}")
    return "\n".join(lines) + "\n"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="regenerate and diff against the committed module (exit 1 on a difference)")
    args = ap.parse_args(argv)
    text = render(tables())
    if args.check:
        old = OUT.read_text()
        diff = list(difflib.unified_diff(old.splitlines(), text.splitlines(),
                                         str(OUT), "regenerated", lineterm=""))
        print("\n".join(diff) if diff else f"{OUT.name} is up to date")
        return 1 if diff else 0
    OUT.write_text(text)
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
