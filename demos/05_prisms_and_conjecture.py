"""Prisms over 2D coamoebas and the sampled coverage experiment.

For d = 3, each essential flacet H contributes a prism: the preimage of the
closed 2D coamoeba of the restricted configuration under the quotient chart
of H.  The phase limit set is the union of these prisms, and the experiment
checks by sampling that the coamoeba itself lies inside that union, which
would follow from the conjectured equality of the closed coamoeba and the
phase limit set.
"""

from coamoeba import Matroid, contains_pls3, prisms_d3
from coamoeba.catalog import plane_b, sixline_b
from coamoeba.harness import conjecture_experiment_d3, sample_coamoeba

print("== the plane x + y + z + 1 = 0 ==")
m_plane = Matroid(plane_b())
prisms = prisms_d3(m_plane)
print(f"{len(prisms)} prisms, one per coordinate-style hyperplane:")
for p in prisms:
    labels = sorted(m_plane.labels_of(p.hyperplane_flat.forms))
    print(f"  over {labels}: base degree {p.base.degree}, projection {p.projection}")

report = conjecture_experiment_d3(m_plane, 10_000, tol=1e-6, seed=0)
print(f"sampled coverage: {report.inside_fraction:.4f} of {report.n_valid} points "
      f"(coverage is a theorem for the plane)")

print("\n== the six-line discriminant surface ==")
m6 = Matroid(sixline_b())
prisms6 = prisms_d3(m6)
print(f"{len(prisms6)} prisms with base degrees "
      f"{[p.base.degree for p in prisms6]}")

report6 = conjecture_experiment_d3(m6, 10_000, tol=1e-6, seed=0)
print(f"sampled coverage: {report6.inside_fraction:.4f} of {report6.n_valid} points, "
      f"max distance to the prism union {report6.max_boundary_distance:.2e} rad")
print("(evidence for the closed coamoeba equalling the phase limit set; not a proof)")
claimed = {
    "/".join(sorted(m6.labels_of(flat.forms))): k for flat, k in report6.coverage_per_prism
}
print(f"samples per prism (first prism containing each sample): {claimed}")

theta = [float(t) for t in sample_coamoeba(m6, 1, seed=42)[0]]
inside, witness = contains_pls3(prisms6, theta)
labels = sorted(m6.labels_of(witness.hyperplane_flat.forms)) if witness else None
print(f"\none sampled coamoeba point {tuple(round(t, 4) for t in theta)} lies in the "
      f"prism over {labels}")
