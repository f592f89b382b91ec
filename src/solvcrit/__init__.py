"""solvcrit: solvability criteria and nonsolvable witness pairs for finite
permutation groups, with the primitive-prime-divisor arithmetic used to
select witness orders."""

from .catalog import (
    GroupSpecFile,
    catalog_group,
    load_group,
    load_group_file,
    make_alternating,
    make_cyclic,
    make_dihedral,
    make_frobenius20,
    make_psl2,
    make_symmetric,
    parse_group_file,
)
from .criterion import (
    CriterionReport,
    WitnessReport,
    check_criterion,
    search_witness_pairs,
    verify_witness_pair,
)
from .engine import (
    EnumerationCapExceeded,
    GroupHandle,
    StabilizerChain,
    build_group,
    enumerate_elements,
)
from .numbertheory import (
    DivisorSet,
    PrimePower,
    alternating_pair,
    bppd,
    cyclotomic_value,
    factorize,
    lbpd,
    lbpd_empty_closed_form,
    lpd,
    ppd,
    zsigmondy_empty,
)
from .permutation import (
    CycleParseError,
    DegreeMismatchError,
    Permutation,
    format_cycles,
    parse_cycles,
)
from .structure import (
    ConjugacyClass,
    OrderSpectrum,
    SolvabilityResult,
    conjugacy_classes,
    elements_of_order,
    is_solvable,
    order_spectrum,
)
from .tables import (
    ExpectedOutcomeRow,
    load_shipped_table,
    parse_expected_table,
    verify_expected_table,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
