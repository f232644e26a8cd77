"""The slicer's cut syntax: declarative cell constraints in one string.

Modeled on DataBrewery cubes' slicer: a *cut* string names dimension
constraints separated by ``|``, each ``dimension:value``::

    product:outerwear|location:l3

parses to ``{"product": "outerwear", "location": "l3"}``.  Values are
hierarchy concepts at any abstraction level, so one syntax covers slice,
dice, point lookups and the anchor cell of a roll-up or drill-down.  It
is one of the spellings :meth:`repro.query.plan.Plan.parse` reads
constraints from, so it is defined there; this is its serving-side name.
"""

from repro.query.plan import format_cut, parse_cut

__all__ = ["parse_cut", "format_cut"]
