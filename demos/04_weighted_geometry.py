"""Weighted geometry: companions, complementability, shorted operators, and
subspace regularity in an indefinite metric.
"""

import numpy as np

from relcalc import (
    Weight,
    complementability,
    krein_classify,
    make_pws,
    orthonormalize,
    parts,
    shorted,
    w_companion,
)

e1 = orthonormalize([np.array([1.0, 0.0])])
diag = orthonormalize([np.array([1.0, 1.0])])

# the W-orthogonal companion replaces the orthogonal complement
w = Weight(np.array([[1.0, 1.0], [1.0, 1.0]]), "psd")
print("projector onto the companion of e1 under a rank-one weight:\n",
      np.round(w_companion(e1, w).projector().real, 6))

# the weighted projection may be multivalued and partially defined
w_sing = Weight(np.diag([1.0, 0.0]), "psd")
p = make_pws(w_sing, orthonormalize([np.array([0.0, 1.0])]))
print("singular weight: dom dim", parts(p).dom.dim, ", mul dim", parts(p).mul.dim)

# complementability: can every vector be split along S and its companion?
indefinite = Weight(np.diag([1.0, -1.0]))
report = complementability(indefinite, diag)
print("neutral line under an indefinite weight is complementable:",
      report.is_complementable, "(block criterion agrees:", report.criterion_ab, ")")

psd = Weight(np.array([[2.0, 1.0], [1.0, 1.0]]), "psd")
report = complementability(psd, e1)
print("psd weights are always complementable here:", report.is_complementable)

# the shorted operator: largest psd matrix below W supported inside S
print("shorted to the first axis:\n", np.round(shorted(psd, e1).real, 6))
print("shorted to the second axis:\n",
      np.round(shorted(psd, orthonormalize([np.array([0.0, 1.0])])).real, 6))

# indefinite-metric classification of subspaces
sym = Weight(np.diag([1.0, -1.0]), "symmetry")
for label, s in [("first axis", e1), ("neutral diagonal", diag)]:
    flags = krein_classify(s, sym)
    print(f"{label}: nondegenerate={flags.nondegenerate}, regular={flags.regular},"
          f" isotropic dim={flags.isotropic.dim}")
