"""Applications of network decomposition (the motivating use cases of §1.1).

The standard template: process the decomposition's colors one by one; per
color, all clusters of that color are handled simultaneously (they are
non-adjacent), and inside each cluster the small diameter allows fast
coordination.  The total cost is proportional to ``C * D`` — which is why the
paper wants both parameters polylogarithmic.

* :mod:`repro.applications.template` — the color-by-color scheduler with
  ``C * D`` round accounting;
* :mod:`repro.applications.mis` — maximal independent set via the template;
* :mod:`repro.applications.coloring` — (Δ+1)-coloring via the template.
"""

from repro.applications.template import charge_color_round, process_by_colors
from repro.applications.mis import maximal_independent_set, verify_mis
from repro.applications.coloring import delta_plus_one_coloring, verify_coloring

__all__ = [
    "charge_color_round",
    "process_by_colors",
    "maximal_independent_set",
    "verify_mis",
    "delta_plus_one_coloring",
    "verify_coloring",
]
