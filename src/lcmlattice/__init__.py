"""Monomial ideals and their lcm-lattices, via labeled finite atomic lattices.

The package is organized around two directions of the same dictionary:

* a finite atomic lattice plus a monomial labeling *generates* an ideal
  (:func:`ideal_from_labeling`, :func:`weak_ideal`), and
* a monomial ideal *has* an lcm-lattice (:func:`lcm_lattice`) whose labels
  can be recovered (:func:`recovered_labeling`).

On top of that sit the classification predicates (:func:`classify` and
friends), the super-atomic detectors and enumerator, and the interval-count
criteria for the canonical support labeling.

Each layer module declares its public names in its own ``__all__``; the
package exports their union and nothing else.  ``lcmlattice.classify`` is
the public function, kept under its module's name on purpose, so the module
itself is reached through ``sys.modules["lcmlattice.classify"]``.
"""

import sys

from .classify import *
from .dot import *
from .errors import *
from .ideals import *
from .lattice import *
from .monomial import *
from .superatomic import *
from .support_labeling import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in ("classify", "dot", "errors", "ideals", "lattice", "monomial", "superatomic", "support_labeling")
    for name in sys.modules[f"{__name__}.{module}"].__all__
)
