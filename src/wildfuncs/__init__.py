"""wildfuncs: exact constructions and checks for real functions whose graphs
behave pathologically (periodic without minimal period, quasiperiodic and
periodic at once, dense graphs, everywhere surjective).

The package works over exact rationals throughout; anything irrational is
either carried symbolically (quadratic surds, declared span bases) or
bounded by certified enclosures.
"""

__version__ = "0.1.0"
