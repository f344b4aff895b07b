"""Print the cached powers of ten of lib/numtext/numtext.ml (pow_f, pow_e).

Each entry is 10^k for k = -300, -292, ..., 308, as a 64-bit significand
f (2^63 <= f < 2^64, rounded to nearest) and a binary exponent e, so
that 10^k ~= f * 2^e.  The arithmetic is exact (fractions), so the
table does not depend on any float conversion.

    python3 scripts/cached_powers.py
"""

from fractions import Fraction


def cached_power(k):
    v = Fraction(10) ** k
    e = v.numerator.bit_length() - v.denominator.bit_length() - 64
    while Fraction(2) ** -e * v >= 2**64:
        e += 1
    while Fraction(2) ** -e * v < 2**63:
        e -= 1
    f = round(v * Fraction(2) ** -e)
    if f == 2**64:
        f, e = 2**63, e + 1
    return f, e


def rows(items, per):
    return "\n".join(
        "    " + "; ".join(items[i : i + per]) + ";" for i in range(0, len(items), per)
    )


def main():
    table = [cached_power(k) for k in range(-300, 309, 8)]
    print("let pow_f =\n  [|\n%s\n  |]\n" % rows(["0x%016xL" % f for f, _ in table], 3))
    print("let pow_e =\n  [|\n%s\n  |]" % rows(["%d" % e for _, e in table], 10))


if __name__ == "__main__":
    main()
