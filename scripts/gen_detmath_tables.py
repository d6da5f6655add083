#!/usr/bin/env python3
"""Derives the constants, polynomial coefficients and ziggurat tables of
src/util/detmath.cc and src/util/rng.cc with mpmath, and writes them as
exact hex-float literals:

  src/util/detmath_coeffs.inc   split constants (pi/2, ln 2, log10 2, ...)
                                and the sin/cos/asin/atan/exp/log kernels
  src/util/ziggurat_tables.inc  the 256-layer normal ziggurat: layer edges
                                X[0..256] and densities F[0..256]
  tests/detmath_reference.inc   mpmath values of every detmath function at
                                fixed inputs over its in-use ranges, as
                                hi + lo pairs, for tests/detmath_test.cc

  python3 scripts/gen_detmath_tables.py

Every value is computed at 256-bit precision and rounded once to the
nearest double, so the output is the same on every host. """

import os

import mpmath
from mpmath import mp, mpf

mp.prec = 256

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def to_double(x):
    """Rounds an mpf to the nearest IEEE double (ties to even)."""
    return float(mpmath.mpf(x))


def hexd(x):
    return float.hex(float(x))


def truncate_bits(x, bits):
    """x rounded to a double that has at most |bits| significant bits."""
    x = mpf(x)
    if x == 0:
        return 0.0
    e = int(mpmath.floor(mpmath.log(abs(x), 2)))
    scale = mpf(2) ** (bits - 1 - e)
    return to_double(mpmath.nint(x * scale) / scale)


def split(x, hi_bits):
    """(hi, lo): hi keeps |hi_bits| significant bits, lo = x - hi rounded."""
    hi = truncate_bits(x, hi_bits)
    return hi, to_double(mpf(x) - mpf(hi))


def fit(g, zmax, name, target=mpf(2) ** -52):
    """Fits g(z) on [0, zmax] with the fewest Chebyshev-interpolation terms
    whose double-rounded coefficients stay under |target| relative error on
    a dense grid; returns the coefficients, lowest degree first.

    Every kernel adds g's share to a leading term at least ten times larger
    (z * g(z) < 1/8 of the result), so 2^-52 on g keeps the polynomial's
    contribution to the result's error under 2^-55."""
    for n in range(3, 40):
        poly = mpmath.chebyfit(g, [mpf(0), mpf(zmax)], n)
        coeffs = [to_double(c) for c in reversed(poly)]
        worst = mpf(0)
        for k in range(1, 501):
            z = mpf(zmax) * k / 500
            p = mpf(0)
            for c in reversed(coeffs):
                p = p * z + mpf(c)
            worst = max(worst, abs(p - g(z)) / abs(g(z)))
        if worst < target:
            print(f"{name}: {n} terms, relative error {float(worst):.3g}")
            return coeffs
    raise SystemExit(f"{name}: no fit under {target}")


def odd_tail(f):
    """g(z) with f(s) = s + s^3 g(s^2)."""

    def g(z):
        s = mpmath.sqrt(z)
        return (f(s) - s) / (z * s)

    return g


def emit_array(out, name, values):
    out.append(f"inline constexpr double {name}[] = {{")
    for v in values:
        out.append(f"    {hexd(v)},")
    out.append("};")


def detmath_coeffs():
    pi = mp.pi
    out = [
        "// Generated by scripts/gen_detmath_tables.py; do not edit.",
        "// Constants and polynomial coefficients for src/util/detmath.cc,",
        "// each rounded once from a 256-bit mpmath value.",
        "",
    ]

    def const(name, value, comment):
        if comment:
            out.append(f"// {comment}")
        out.append(f"inline constexpr double {name} = {hexd(value)};")

    const("kTwoOverPi", to_double(2 / pi), "2/pi")
    # pi/2 in three 33-bit pieces: n * piece is exact for |n| < 2^20.
    p1 = truncate_bits(pi / 2, 33)
    p2 = truncate_bits(pi / 2 - p1, 33)
    p3 = to_double(pi / 2 - p1 - p2)
    const("kPio2_1", p1, "pi/2, first 33 bits")
    const("kPio2_2", p2, "pi/2, next 33 bits")
    const("kPio2_3", p3, "pi/2 - kPio2_1 - kPio2_2")
    pio2_hi, pio2_lo = split(pi / 2, 53)
    const("kPio2Hi", pio2_hi, "pi/2 = kPio2Hi + kPio2Lo")
    const("kPio2Lo", pio2_lo, "")
    pio4_hi, _ = split(pi / 4, 53)
    const("kPio4Hi", pio4_hi, "pi/4 rounded")
    pi_hi, pi_lo = split(pi, 53)
    const("kPiHi", pi_hi, "pi = kPiHi + kPiLo")
    const("kPiLo", pi_lo, "")
    for c, name in ((mpf("0.5"), "Half"), (mpf(1), "One"),
                    (mpf("1.5"), "OneAndHalf")):
        hi, lo = split(mpmath.atan(c), 53)
        const(f"kAtan{name}Hi", hi, f"atan({mpmath.nstr(c, 2)}) = Hi + Lo")
        const(f"kAtan{name}Lo", lo, "")
    ln2 = mpmath.log(2)
    # 40 bits: k * kLn2Hi is exact for every binary exponent k.
    ln2_hi, ln2_lo = split(ln2, 40)
    const("kLn2Hi", ln2_hi, "ln 2 = kLn2Hi + kLn2Lo, kLn2Hi has 40 bits")
    const("kLn2Lo", ln2_lo, "")
    const("kLog2e", to_double(1 / ln2), "1/ln 2")
    lg2_hi, lg2_lo = split(mpmath.log10(2), 40)
    const("kLog10_2Hi", lg2_hi, "log10 2 = Hi + Lo, Hi has 40 bits")
    const("kLog10_2Lo", lg2_lo, "")
    const("kInvLn10", to_double(1 / mpmath.log(10)), "1/ln 10")
    out.append("")

    polys = (
        ("kSinPoly", "sin(x) = x + x^3 * P(x^2) for |x| <= pi/4",
         fit(odd_tail(mpmath.sin), (pi / 4) ** 2, "sin")),
        ("kCosPoly", "cos(x) = 1 - x^2/2 + x^4 * P(x^2) for |x| <= pi/4",
         fit(lambda z: (mpmath.cos(mpmath.sqrt(z)) - 1 + z / 2) / (z * z),
             (pi / 4) ** 2, "cos")),
        ("kAsinPoly", "asin(s) = s + s^3 * P(s^2) for s^2 <= 1/4",
         fit(odd_tail(mpmath.asin), mpf("0.25"), "asin")),
        ("kAtanPoly", "atan(u) = u + u^3 * P(u^2) for |u| <= 7/16",
         fit(odd_tail(mpmath.atan), (mpf(7) / 16) ** 2, "atan")),
        # r * coth(r / 2) = 2 + r^2 * P(r^2), |r| <= ln(2) / 2 (fdlibm's exp).
        ("kExpPoly", "r * coth(r/2) = 2 + r^2 * P(r^2) for |r| <= ln(2)/2",
         fit(lambda z: (mpmath.sqrt(z) * mpmath.coth(mpmath.sqrt(z) / 2) - 2)
             / z, (ln2 / 2) ** 2, "exp")),
        # log(1 + f) = 2 atanh(s) = 2s + s * s^2 * P(s^2), s = f / (2 + f),
        # |s| <= (sqrt(2) - 1) / (sqrt(2) + 1).
        ("kLogPoly", "2 atanh(s) / s = 2 + s^2 * P(s^2), s = f / (2 + f)",
         fit(lambda z: (2 * mpmath.atanh(mpmath.sqrt(z)) / mpmath.sqrt(z) - 2)
             / z, ((mpmath.sqrt(2) - 1) / (mpmath.sqrt(2) + 1)) ** 2, "log")),
    )
    for name, comment, coeffs in polys:
        out.append(f"// {comment};")
        out.append("// Chebyshev interpolant in z = x^2, lowest degree first.")
        emit_array(out, name, coeffs)
    return out


def ziggurat_tables(layers=256):
    """Marsaglia & Tsang's ziggurat for exp(-x^2/2), x >= 0: |layers|
    strips of equal area V. R (the base strip's edge) is the root that
    makes the top strip close exactly at x = 0."""

    def f(x):
        return mpmath.exp(-x * x / 2)

    def area(r):
        return r * f(r) + mpmath.sqrt(mp.pi / 2) * mpmath.erfc(r / mpmath.sqrt(2))

    def residual(r):
        v = area(r)
        x = r
        for _ in range(layers - 2):
            arg = v / x + f(x)
            if arg >= 1:
                return mpf(1) + arg  # Closed too early: r is too small.
            x = mpmath.sqrt(-2 * mpmath.log(arg))
        return v / x + f(x) - 1

    lo, hi = mpf(3), mpf(4)
    for _ in range(200):
        mid = (lo + hi) / 2
        if residual(mid) > 0:
            lo = mid
        else:
            hi = mid
    r = (lo + hi) / 2
    v = area(r)
    xs = [v / f(r), r]
    x = r
    for _ in range(layers - 2):
        x = mpmath.sqrt(-2 * mpmath.log(v / x + f(x)))
        xs.append(x)
    xs.append(mpf(0))
    print(f"ziggurat: R = {mpmath.nstr(r, 20)}, V = {mpmath.nstr(v, 20)}")
    out = [
        "// Generated by scripts/gen_detmath_tables.py; do not edit.",
        f"// {layers}-layer ziggurat for the standard normal (Marsaglia & Tsang,",
        "// J. Stat. Softw. 2000): strip i spans x in [0, kZigX[i]) between",
        "// densities kZigF[i] and kZigF[i + 1], f(x) = exp(-x^2/2).",
        f"// R = kZigX[1] = {mpmath.nstr(r, 20)}, strip area V = {mpmath.nstr(v, 20)}.",
        "",
        f"inline constexpr double kZigR = {hexd(to_double(r))};",
    ]
    emit_array(out, "kZigX", [to_double(x) for x in xs])
    emit_array(out, "kZigF", [to_double(f(x)) for x in xs])
    return out


def reference_table():
    """(function, x, y, hi, lo) rows: f(x[, y]) = hi + lo to ~2^-106."""
    rows = []

    def add(fn, f, x, y=0.0):
        v = f(mpf(x), mpf(y))
        hi = to_double(v)
        rows.append((fn, x, y, hi, to_double(v - mpf(hi))))

    def grid(lo, hi, n):
        return [lo + (hi - lo) * k / n for k in range(n + 1)]

    trig_inputs = (grid(-3.2, 3.2, 64) + grid(-2e5, 2e5, 24) +
                   [0.7853981633974483, 1.5707963267948966, 3.141592653589793,
                    1e-9, 12345.678, 1e6, 1.6e6])
    for x in trig_inputs:
        add("kSin", lambda a, b: mpmath.sin(a), x)
        add("kCos", lambda a, b: mpmath.cos(a), x)
    for x in grid(-1.0, 1.0, 64) + [0.4999999, 0.5, 0.975, 0.9999999, 1e-7]:
        add("kAsin", lambda a, b: mpmath.asin(a), x)
    for k in range(-32, 33):
        for xx in (7.3, -2.1, 0.05):
            add("kAtan2", lambda a, b: mpmath.atan2(a, b), k * 0.37, xx)
    for x in grid(-40.0, 40.0, 64) + [-700.0, 700.0, 1e-10, -745.0, 709.7]:
        add("kExp", lambda a, b: mpmath.exp(a), x)
    logs = [10.0 ** (-6 + 16 * k / 64) for k in range(65)]
    logs += grid(0.5, 2.0, 32) + [1e-300, 1e300, 5e-324, 1.7e308]
    for x in logs:
        add("kLog", lambda a, b: mpmath.log(a), x)
        add("kLog10", lambda a, b: mpmath.log10(a), x)
    for k in range(0, 96):
        add("kPow", lambda a, b: mpmath.power(a, b), 10.0, k / 10)
    for x in grid(0.0, 50.0, 32)[1:]:
        add("kPow", lambda a, b: mpmath.power(a, b), x, 1.5)
    for x in (1.6e-6, 1e-5, 3e-4, 0.002, 0.015):
        for n in (1, 7, 100, 500, 4000):
            add("kPow", lambda a, b: mpmath.power(a, b), x, 1.0 / n)
    for a in grid(-100.0, 100.0, 32):
        for b in (3.7, -0.001, 250.0):
            add("kHypot", lambda u, v: mpmath.sqrt(u * u + v * v), a, b)
    out = [
        "// Generated by scripts/gen_detmath_tables.py; do not edit.",
        "// {function, x, y, hi, lo}: mpmath's f(x[, y]) = hi + lo.",
    ]
    for fn, x, y, hi, lo in rows:
        out.append(f"{{DetFn::{fn}, {hexd(x)}, {hexd(y)}, {hexd(hi)}, "
                   f"{hexd(lo)}}},")
    print(f"reference: {len(rows)} rows")
    return out


def write(path, lines):
    with open(os.path.join(ROOT, path), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("wrote", path)


if __name__ == "__main__":
    write("src/util/detmath_coeffs.inc", detmath_coeffs())
    write("src/util/ziggurat_tables.inc", ziggurat_tables())
    write("tests/detmath_reference.inc", reference_table())
