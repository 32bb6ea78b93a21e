"""Second-order forward-mode jets: the reference that the library's jets and
metric-check's curvature are checked against.

``Jet2`` carries a function's value and its partials d1, d2, d12, d11 and d22
in (u1, u2), and forms them with the full second-order product, quotient and
chain rules, each summed in the order the library's jets sum their d1, d2 and
d12.  Patched in as ``fields.Jet``, it builds the normal form with every
second partial, so the first-order partials of both can be compared bit for
bit; :func:`curvature` is -(d11 + d22) log lam / (2 lam) from such a jet.
"""

import numpy as np


def _sum(*terms):
    out = None
    for t in terms:
        if t is not None:
            out = t if out is None else out + t
    return out


def _diff(a, *terms):
    rest = _sum(*terms)
    return a if rest is None else -rest if a is None else a - rest


def _mul(a, b):
    return None if a is None or b is None else a * b


def _scale(c, a):
    return None if a is None else c * a


def _lift(x):
    return x if isinstance(x, Jet2) else Jet2(x)


class Jet2:
    __array_ufunc__ = None

    def __init__(self, v, d1=None, d2=None, d12=None, d11=None, d22=None):
        self.v, self.d1, self.d2, self.d12, self.d11, self.d22 = v, d1, d2, d12, d11, d22

    @classmethod
    def along(cls, axis, v, dv, ddv=None):
        return cls(v, d1=dv, d11=ddv) if axis == 0 else cls(v, d2=dv, d22=ddv)

    @classmethod
    def from_slice(cls, branch, u, axis, c, poly):
        return cls.from_values(*branch.value_and_deriv(u), axis, c, poly)

    @classmethod
    def from_values(cls, x, d, axis, c, poly):
        dd = 0.5 * c * np.polyval(np.polyder(poly), x)
        ddd = 0.5 * c * np.polyval(np.polyder(poly, 2), x) * d
        return cls.along(axis, x, d, dd), cls.along(axis, d, dd, ddd)

    def partials(self):
        return self.d1, self.d2, self.d12, self.d11, self.d22

    def __neg__(self):
        return Jet2(-self.v, *(_scale(-1.0, p) for p in self.partials()))

    def __add__(self, other):
        b = _lift(other)
        return Jet2(self.v + b.v, *map(_sum, self.partials(), b.partials()))

    def __sub__(self, other):
        b = _lift(other)
        return Jet2(self.v - b.v, *map(_diff, self.partials(), b.partials()))

    def __rsub__(self, other):
        return _lift(other) - self

    def __mul__(self, other):
        a, b = self, _lift(other)
        return Jet2(
            a.v * b.v,
            _sum(_mul(a.d1, b.v), _mul(a.v, b.d1)),
            _sum(_mul(a.d2, b.v), _mul(a.v, b.d2)),
            _sum(_mul(a.d12, b.v), _mul(a.d1, b.d2), _mul(a.d2, b.d1), _mul(a.v, b.d12)),
            _sum(_mul(a.d11, b.v), _scale(2.0, _mul(a.d1, b.d1)), _mul(a.v, b.d11)),
            _sum(_mul(a.d22, b.v), _scale(2.0, _mul(a.d2, b.d2)), _mul(a.v, b.d22)),
        )

    __radd__, __rmul__ = __add__, __mul__

    def __pow__(self, n):
        assert n == 2
        sq = self * self
        sq.v = self.v**2
        return sq

    def __truediv__(self, other):
        a, b = self, _lift(other)
        q, r = a.v / b.v, 1.0 / b.v
        q1 = _mul(_diff(a.d1, _mul(q, b.d1)), r)
        q2 = _mul(_diff(a.d2, _mul(q, b.d2)), r)
        return Jet2(
            q,
            q1,
            q2,
            _mul(_diff(a.d12, _mul(q1, b.d2), _mul(q2, b.d1), _mul(q, b.d12)), r),
            _mul(_diff(a.d11, _scale(2.0, _mul(q1, b.d1)), _mul(q, b.d11)), r),
            _mul(_diff(a.d22, _scale(2.0, _mul(q2, b.d2)), _mul(q, b.d22)), r),
        )

    def __rtruediv__(self, other):
        return _lift(other) / self

    def _chain(self, f, f1, f2):
        d1, d2 = self.d1, self.d2
        return Jet2(
            f,
            _mul(f1, d1),
            _mul(f1, d2),
            _sum(_mul(f2, _mul(d1, d2)), _mul(f1, self.d12)),
            _sum(_mul(f2, _mul(d1, d1)), _mul(f1, self.d11)),
            _sum(_mul(f2, _mul(d2, d2)), _mul(f1, self.d22)),
        )

    def log(self):
        r = 1.0 / self.v
        return self._chain(np.log(self.v), r, -r * r)

    def sqrt(self):
        f = np.sqrt(self.v)
        f1 = 0.5 / f
        return self._chain(f, f1, -0.5 * f1 / self.v)


def curvature(lam: Jet2):
    """-(d11 + d22) log lam / (2 lam), the Laplacian summed from 0."""
    log = lam.log()
    lap = sum(0.0 if d is None else d for d in (log.d11, log.d22))
    return -lap / (2.0 * lam.v)
