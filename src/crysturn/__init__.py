"""Exact computation of Reidemeister numbers and spectra of crystallographic groups."""

from .automorphisms import (
    Automorphism,
    base_translations,
    conjugation_permutation,
    find_translation_part,
)
from .catalog import builtin_catalog, load_group, save_group
from .closed_forms import (
    SpectrumDescription,
    free_abelian_spectrum,
    parse_spectrum,
    point_reflection_spectrum,
    product_spectrum,
    reflection_class_count,
    reidemeister_3_2_1_2_1,
    reidemeister_point_reflection,
)
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
    coset_representatives,
    in_lattice_image,
    mod2_solution_count,
    smith_normal_form,
    solve_exact,
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
    witness_words,
)

__version__ = "0.1.0"
