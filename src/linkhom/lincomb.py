"""Sparse rational linear combinations over canonical byte keys."""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError


class LinComb:
    """Immutable map from canonical keys to nonzero coefficients.

    A coefficient is an int or a Fraction; an int and the Fraction of the
    same value compare, hash and print alike, so relators keep their +-1
    coefficients as ints.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, coeff in (terms.items() if hasattr(terms, "items") else terms):
                c = clean.get(key, 0) + (coeff if type(coeff) is int else Fraction(coeff))
                if c:
                    clean[key] = c
                elif key in clean:
                    del clean[key]
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def of_terms(cls, terms: dict) -> "LinComb":
        """The combination held by a dict whose coefficients are already
        nonzero ints or Fractions; the dict is taken over, not copied."""
        out = object.__new__(cls)
        object.__setattr__(out, "_terms", terms)
        return out

    @classmethod
    def zero(cls) -> "LinComb":
        return cls()

    @classmethod
    def term(cls, key: bytes, coeff=1) -> "LinComb":
        return cls({key: Fraction(coeff)})

    # -- mapping-ish access ------------------------------------------------

    def items(self):
        """Terms sorted by key."""
        return sorted(self._terms.items())

    def keys(self):
        return sorted(self._terms)

    def get(self, key) -> Fraction:
        return self._terms.get(key, Fraction(0))

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        return isinstance(other, LinComb) and self._terms == other._terms

    def __hash__(self):
        return hash(tuple(self.items()))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        out = dict(self._terms)
        for key, c in other._terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return LinComb.of_terms(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LinComb.of_terms({k: -c for k, c in self._terms.items()})

    def scale(self, factor) -> "LinComb":
        f = Fraction(factor)
        if not f:
            return LinComb.zero()
        return LinComb.of_terms({k: c * f for k, c in self._terms.items()})

    def __mul__(self, factor):
        return self.scale(factor)

    __rmul__ = __mul__

    def __repr__(self):
        if not self._terms:
            return "LinComb(0)"

        def show(k):
            return k.hex()[:10] + ".." if isinstance(k, bytes) else repr(k)

        bits = ", ".join(f"{show(k)}: {c}" for k, c in self.items())
        return f"LinComb({bits})"


def terms_doc(lc: LinComb) -> list:
    """JSON-compatible term list with hex keys and p/q coefficients."""
    return [{"key": k.hex(), "coeff": str(c)} for k, c in lc.items()]


def coeff_from_doc(x) -> Fraction:
    """A coefficient as terms_doc writes it: a JSON string -?[0-9]+(/[0-9]+)?.
    Any other value, such as 1.0, " 1 ", true, 1 or 1e9, is a ValueError."""
    parts = x.removeprefix("-").split("/") if isinstance(x, str) else []
    if not 1 <= len(parts) <= 2 or not all(p.isascii() and p.isdigit() for p in parts):
        raise ValueError(f"coefficient {x!r} is not a string p or p/q")
    return Fraction(x)


def lincomb_from_doc(doc) -> LinComb:
    """Inverse of terms_doc: a JSON array naming each key at most once."""
    if not isinstance(doc, list):
        raise TypeError("terms must be a JSON array")
    terms = {}
    for t in doc:
        key = bytes.fromhex(t["key"])
        if key in terms:
            raise ValueError(f"key {t['key']} is listed twice")
        terms[key] = coeff_from_doc(t["coeff"])
    return LinComb(terms)


def doc_field(doc, name, parse):
    """parse(doc[name]); any failure is a ParseError that names the field."""
    if not isinstance(doc, dict):
        raise ParseError("document is not a JSON object")
    if name not in doc:
        raise ParseError(f"missing field {name!r}")
    try:
        return parse(doc[name])
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise ParseError(f"field {name!r}: {type(exc).__name__}: {exc}") from None
