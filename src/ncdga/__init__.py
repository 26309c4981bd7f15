"""Exact symbolic computations with semifree differential graded algebras
over noncommutative coefficient algebras."""

from .algebra import (
    AlgebraElement,
    CoefficientAlgebra,
    CoefficientMorphism,
    FreeAlgebra,
    GroupRing,
    MatrixAlgebra,
    SplitAlgebra,
    check_hermitian_axioms,
    pairing_t,
    try_word_inverse,
)
from .ainfinity import (
    ainfty_residual_case1,
    ainfty_residual_case2,
    candidate_patterns,
    curvature,
    default_coeff_pool,
    mu_case1,
    mu_case2,
    mu_eps_case1,
    mu_eps_case2,
    verify_ainfty,
)
from .augmentation import (
    Augmentation,
    enumerate_augmentations,
    ncopy_augmentation,
)
from .dga import (
    Generator,
    LinkGrading,
    SemifreeDGA,
    check_link_grading,
    check_mixed_filtration,
    ncopy,
    ncopy_projection_report,
    ncopy_via_split,
    restrict_to_components,
    substitute,
)
from .dsl import (
    builtin_source,
    parse_augmentation,
    parse_coefficient_map,
    parse_dga,
    parse_element,
    print_dga,
    toy_dga,
    toy_hermitian_dga,
)
from .homology import (
    ChainComplex,
    HomologyResult,
    bilinearized_complex,
    homology,
    mirror_compare,
    product_on_homology,
)
from .report import Report
from .rings import Q, Ring, Z, Z2, Zp
from .tensor import (
    DualElement,
    TensorElement,
    TensorWord,
    adjoint_bruteforce,
    adjoint_formula,
    apply_block,
    iota_pair,
    psi_eval,
    tensor_product,
)

__version__ = "0.1.0"
