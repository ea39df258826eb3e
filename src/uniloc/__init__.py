"""uniloc: exact classification of localisations of catalogued rings.

For a catalogued commutative noetherian ring and a height-one prime (or
a specialisation closed set), decide three nested questions: does a
flat ring epimorphism with that support exist, is it a universal
localisation, is it a classical ring of fractions.  Every definite
answer ships with a machine-checkable witness.
"""

__version__ = "0.1.0"
