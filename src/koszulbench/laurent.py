"""Exact Laurent polynomials in one variable v over the integers.

LaurentPoly is a value type; the library computes on packed ints.
Coefficients are arbitrary-precision ints keyed by integer exponents.
Zero coefficients are never stored, so structural equality of the
coefficient maps is mathematical equality. A polynomial renders as
text or JSON, compares and hashes (a constant like the int it equals).
Two readers take back a polynomial packed into one int by Kronecker
substitution: digits, for nonnegative coefficients, and unpack, for
signed ones. The ring operations and long division with remainder
(divmod) remain although the library calls none of them: the tests run
_linalg.bareiss on LaurentPoly entries as a second route to
koszul.cartan_inverse, and perfbench's traced run wraps the ring
operations.
"""

from __future__ import annotations


class LaurentPoly:
    """An integer Laurent polynomial sum_e c_e * v^e, stored sparsely."""

    __slots__ = ("_coeffs", "_hash")

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                if not type(e) is type(c) is int:  # bool and float refused
                    raise ValueError("exponent %r or coefficient %r is not "
                                     "an integer" % (e, c))
                if c:
                    clean[e] = c
        self._coeffs = clean
        self._hash = None

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def monomial(exponent: int, coeff: int = 1) -> "LaurentPoly":
        """coeff * v^exponent"""
        return LaurentPoly({exponent: coeff})

    def support(self):
        """Sorted exponents carrying a nonzero coefficient."""
        return sorted(self._coeffs)

    def items(self):
        return self._coeffs.items()

    def __bool__(self):
        return bool(self._coeffs)

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, int):
            return self._coeffs == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            c = self._coeffs
            # a constant equals its int, so it hashes like it
            self._hash = (hash(c.get(0, 0)) if c.keys() <= {0}
                          else hash(frozenset(c.items())))
        return self._hash

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self._coeffs)
        for e, c in other._coeffs.items():
            s = acc.get(e, 0) + c
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
        return _wrap(acc)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        acc = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                s = acc.get(e, 0) + c1 * c2
                if s:
                    acc[e] = s
                else:
                    del acc[e]
        return _wrap(acc)

    __rmul__ = __mul__

    def __divmod__(self, other):
        """(q, r) with self == q * other + r, by long division from the
        top exponent down. It stops where the top coefficient of the
        remainder is not a multiple of other's, or where the next
        quotient term would fall below every exponent an exact quotient
        can have, so r == 0 exactly when other divides self in
        Z[v, v^-1]."""
        other = _coerce(other)
        if other is None:
            return NotImplemented
        bc = other._coeffs
        if not bc:
            raise ZeroDivisionError("division by the zero Laurent polynomial")
        btop = max(bc)
        lead = bc[btop]
        rem = dict(self._coeffs)
        floor = min(rem) - min(bc) if rem else 0
        quot = {}
        while rem:
            top = max(rem)
            e = top - btop
            c, r = divmod(rem[top], lead)
            if r or e < floor:
                break
            quot[e] = c
            for eb, cb in bc.items():
                s = rem.get(eb + e, 0) - c * cb
                if s:
                    rem[eb + e] = s
                else:
                    del rem[eb + e]
        return LaurentPoly(quot), LaurentPoly(rem)

    def render(self, var: str = "v") -> str:
        """Human-readable text, exponents descending, e.g. 'v^2 + 3*v^-1'."""
        if not self._coeffs:
            return "0"
        parts = []
        for e in sorted(self._coeffs, reverse=True):
            c = self._coeffs[e]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = var if mag == 1 else "%d*%s" % (mag, var)
            else:
                body = "%s^%d" % (var, e) if mag == 1 else "%d*%s^%d" % (mag, var, e)
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += " %s %s" % (sign, body)
        return text

    def to_json_dict(self):
        """JSON form: object mapping exponent strings to coefficients."""
        return {str(e): self._coeffs[e] for e in sorted(self._coeffs)}

    def __repr__(self):
        return "LaurentPoly(%s)" % self.render()


def digits(x: int, bits: int):
    """The base-2^bits digits of x >= 0, lowest first: the coefficients
    of a polynomial packed at 2^bits whose digits do not carry."""
    mask = (1 << bits) - 1
    while x:
        yield x & mask
        x >>= bits


def unpack(x: int, bits: int, shift: int = 0) -> LaurentPoly:
    """The LaurentPoly of u^(-shift) x, for x packed at u = v^-1 = 2^bits
    with balanced digits in [-2^(bits-1), 2^(bits-1)): digit e is the
    coefficient of v^(shift-e). Exact while every coefficient lies in
    that range."""
    mask, top = (1 << bits) - 1, 1 << bits - 1
    coeffs = {}
    e = shift
    while x:
        c = x & mask
        if c & top:
            c -= 1 << bits
        if c:
            coeffs[e] = c
        x = (x - c) >> bits
        e -= 1
    return _wrap(coeffs)


def _wrap(coeffs) -> LaurentPoly:
    """A LaurentPoly that takes coeffs as they are: int exponents, no
    zero coefficient."""
    out = LaurentPoly.__new__(LaurentPoly)
    out._coeffs = coeffs
    out._hash = None
    return out


def _coerce(x):
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly({0: x})
    return None

