"""Sparse rational linear combinations over canonical byte keys."""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError


class LinComb:
    """Immutable map from canonical keys to nonzero Fractions."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, coeff in (terms.items() if hasattr(terms, "items") else terms):
                c = clean.get(key, 0) + Fraction(coeff)
                if c:
                    clean[key] = c
                elif key in clean:
                    del clean[key]
        object.__setattr__(self, "_terms", clean)

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
        return LinComb(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LinComb({k: -c for k, c in self._terms.items()})

    def scale(self, factor) -> "LinComb":
        f = Fraction(factor)
        if not f:
            return LinComb.zero()
        return LinComb({k: c * f for k, c in self._terms.items()})

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


def lincomb_from_doc(doc) -> LinComb:
    return LinComb({bytes.fromhex(t["key"]): Fraction(t["coeff"]) for t in doc})


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
