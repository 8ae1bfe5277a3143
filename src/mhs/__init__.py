"""Stability (Morse) indices of minimal hypersurfaces of round spheres."""

__version__ = "0.1.0"

from .closedform import (SpectrumTable, clifford_jacobi, equator_jacobi,
                         harmonic_dim, sphere_spectrum)
from .errors import MhsError
from .fem import (OperatorSet, SurfaceMesh, assemble, load_mesh,
                  mesh_from_json, mesh_sphere, mesh_to_json, mesh_torus,
                  save_mesh)
from .geometry import GeometryFamily, check_minimality, clifford
from .paperlab import (ChainRecord, FormReport, IdentityReport,
                       TheoremReport, TrialForms, chain_sweep,
                       conjecture_probe, lemma_check, line_forms,
                       pencil_inertia, theorem_check, trial_forms)
from .rotational import (ProfileCurve, build_surface, find_otsuki,
                         rotation_number, rotation_window)
from .spectral import (EigenReport, first_eigfunction, inertia_below,
                       lowest_eigs, morse_index)

__all__ = [
    "__version__", "MhsError",
    "GeometryFamily", "clifford",
    "check_minimality",
    "ProfileCurve", "rotation_number", "rotation_window", "find_otsuki",
    "build_surface",
    "SurfaceMesh", "OperatorSet", "mesh_torus", "mesh_sphere", "assemble",
    "mesh_to_json", "mesh_from_json",
    "save_mesh", "load_mesh",
    "EigenReport", "lowest_eigs", "inertia_below", "first_eigfunction",
    "morse_index",
    "SpectrumTable", "sphere_spectrum", "clifford_jacobi", "equator_jacobi",
    "harmonic_dim",
    "FormReport", "IdentityReport", "TheoremReport", "ChainRecord",
    "TrialForms", "trial_forms", "line_forms", "pencil_inertia",
    "lemma_check", "theorem_check", "conjecture_probe", "chain_sweep",
]
