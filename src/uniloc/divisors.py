"""Formal divisors on labelled primes and finitely presented class groups.

A Divisor is a finite integer combination of prime labels.  A
DivisorClassModel lists the primes relevant to a query together with
the divisors of chosen elements; the class group shadow it presents is
the free group on the primes modulo those principal relations.  Its
structure is read off the Smith normal form of the relation matrix.
"""

from __future__ import annotations


from .abgroup import GroupStructure, IntMatrix, cokernel_structure
from .errors import InputError, record


@record
class Divisor:
    # sorted (label, coefficient) pairs, zero coefficients dropped
    coefficients: tuple

    def __post_init__(self):
        labels = [lab for lab, _ in self.coefficients]
        if labels != sorted(labels) or len(set(labels)) != len(labels):
            raise InputError("divisor support must be sorted and duplicate-free")
        if any(c == 0 for _, c in self.coefficients):
            raise InputError("zero coefficients must not be stored")

    @classmethod
    def of(cls, mapping) -> "Divisor":
        items = tuple(sorted((str(k), int(v)) for k, v in dict(mapping).items() if int(v) != 0))
        return cls(items)

    def coefficient(self, label: str) -> int:
        for lab, c in self.coefficients:
            if lab == label:
                return c
        return 0

    @property
    def support(self) -> tuple:
        return tuple(lab for lab, _ in self.coefficients)


@record
class DivisorClassModel:
    primes: tuple
    principal_relations: tuple

    def __post_init__(self):
        if len(set(self.primes)) != len(self.primes):
            raise InputError("prime labels must be unique")
        known = set(self.primes)
        for rel in self.principal_relations:
            if not set(rel.support) <= known:
                raise InputError("relation supported outside the listed primes")

    @classmethod
    def on(cls, primes, relations=()) -> "DivisorClassModel":
        return cls(tuple(str(p) for p in primes), tuple(relations))

    def _vector(self, d: Divisor):
        if not set(d.support) <= set(self.primes):
            unknown = sorted(set(d.support) - set(self.primes))
            raise InputError("unknown prime label(s): %s" % ", ".join(unknown))
        return [d.coefficient(p) for p in self.primes]

    def structure(self) -> GroupStructure:
        rows = [self._vector(rel) for rel in self.principal_relations]
        mat = IntMatrix.from_rows(rows) if rows else IntMatrix(0, len(self.primes), ())
        return cokernel_structure(mat)


def quotient_by_divisor(clX: DivisorClassModel, t: Divisor) -> DivisorClassModel:
    """Present the quotient of the modelled group by the class of t.

    Adjoining t to the principal relations kills exactly the cyclic
    subgroup generated by [t]; t = 0 returns the presentation unchanged.
    """
    clX._vector(t)  # validates support
    if not t.coefficients:
        return clX
    return DivisorClassModel(clX.primes, clX.principal_relations + (t,))
