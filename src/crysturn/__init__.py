"""Exact computation of Reidemeister numbers and spectra of crystallographic groups."""

from .automorphisms import (
    Automorphism,
    base_translations,
    conjugation_permutation,
    find_translation_part,
)
from .catalog import builtin_catalog, load_group, save_group
from .closed_forms import SpectrumDescription, parse_spectrum, product_spectrum
from .groups import (
    AffineMap,
    ClosureCapExceeded,
    CrystGroup,
    GroupValidationError,
    PointGroup,
    build_group,
    matrix_group_closure,
)
from .linalg import (
    IntMatrix,
    SnfDecomposition,
    smith_normal_form,
    vector,
)
from .reidemeister import (
    INFINITE,
    ComputedSpectrum,
    NormaliserUnavailable,
    RinfStatus,
    RinfVerdict,
    decide_r_infinity,
    is_always_infinite,
    reidemeister_number,
    reidemeister_set,
    search_r_infinity_witness,
    spectrum,
)

__version__ = "0.1.0"
