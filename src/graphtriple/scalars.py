"""Exact Gaussian-rational scalars.

All algebraic identities in this package are certified by exact arithmetic;
floating point is confined to the spectral estimators.  A scalar is a + b*i
with a, b arbitrary-precision rationals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]


class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def i_power(n: int) -> "GaussianRational":
        """Return i**n exactly."""
        n %= 4
        if n == 0:
            return GaussianRational(1)
        if n == 1:
            return GaussianRational(0, 1)
        if n == 2:
            return GaussianRational(-1)
        return GaussianRational(0, -1)

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"cannot coerce {value!r} to GaussianRational")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "GaussianRational":
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other) -> "GaussianRational":
        return self + (-GaussianRational.coerce(other))

    def __rsub__(self, other) -> "GaussianRational":
        return GaussianRational.coerce(other) + (-self)

    def __mul__(self, other) -> "GaussianRational":
        other = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        other = GaussianRational.coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs_sq(self) -> Fraction:
        """|z|^2, an exact rational."""
        return self.re * self.re + self.im * self.im

    # -- predicates / conversions ------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = GaussianRational.coerce(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        if self.im == 0:
            return f"{self.re}"
        if self.re == 0:
            return f"{self.im}*i"
        return f"({self.re} + {self.im}*i)"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
