"""Exact discriminant coamoebas, Bergman fans, and phase limit sets.

Core pipeline: a point configuration A yields a Gale-dual vector
configuration B (``configuration``); the matroid of B carries flats, flags,
flacets, and connectivity (``matroid``); weights on B give the tropical set
and the Bergman fan (``tropical``); the Horn-Kapranov map parameterizes the
reduced discriminant and the flacet images span the tropical discriminant
(``discriminant``); 2D coamoebas are polygonal cycles and, for d = 3, lift
to prisms covering the phase limit set (``cycles``); ``harness`` samples and
certifies.  All combinatorics is exact; floats only appear in sampling.
"""

from .configuration import (
    GalePair,
    PointConfiguration,
    VectorConfiguration,
    check_gale_pair,
    gale_dual,
    gale_pair,
    validate_a,
)
from .cycles import (
    CoamoebaCycle,
    Polygon,
    Prism,
    build_cycle,
    contains2,
    contains2_exact,
    contains_pls3,
    half_coamoeba_cycles,
    prisms_d3,
    zonotope,
)
from .discriminant import (
    HornKapranovMap,
    TropRay,
    essential_flacets,
    log_gauss,
    non_splitting_flags,
    non_splitting_flats,
    nondefective,
    psi_complex,
    psi_exact,
    tdiscr_fan_d3,
    tdiscr_rays,
)
from .harness import (
    SampleReport,
    certify_discriminant,
    conjecture_experiment_d3,
    gauss_roundtrip,
    residue_check,
    sample_coamoeba,
)
from .matroid import Flat, FlagOfFlats, Matroid, merge_parallel
from .polynomial import (
    SparsePoly,
    evaluate_exact,
    format_poly,
    initial_form,
    parse,
    partial_derivative,
)
from .tropical import (
    bergman_rays,
    complete_flags,
    flag_cone_contains,
    in_tropical,
    induced_matroid,
    maximal_cones,
    weight_to_flag,
)

__version__ = "0.1.0"
