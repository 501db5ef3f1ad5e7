"""Incidence algebras of finite preorders over finite coefficient rings.

The package computes with the algebra of functions on comparable pairs
under convolution, and with its multiplicative automorphisms: the
automorphisms fixing the class-diagonal part and scaling each strict
block by a central unit.  Weight systems represent these automorphisms,
potentials certify the inner ones, and the oracle module re-derives the
structure theory by brute force on small instances.

The package root re-exports the names of the README's library example;
everything else is imported from its module (``incalg.coeff_rings``,
``incalg.preorder_core``, ``incalg.comparability``,
``incalg.incidence_algebra``, ``incalg.mult_automorphisms``,
``incalg.oracle``).
"""

from .coeff_rings import ZMod
from .incidence_algebra import IncidenceFunction, convolve, invert, zeta
from .mult_automorphisms import (
    NotInnerWitness,
    Potential,
    WeightSystem,
    decompose,
    find_potential,
)
from .preorder_core import close_relations

__version__ = "0.1.0"

__all__ = [
    "IncidenceFunction",
    "NotInnerWitness",
    "Potential",
    "WeightSystem",
    "ZMod",
    "close_relations",
    "convolve",
    "decompose",
    "find_potential",
    "invert",
    "zeta",
]
