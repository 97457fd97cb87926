"""qzm: exact engine for WZNW zero-mode algebras at a root of unity.

Everything is computed over exact fields (cyclotomic or generic rational
functions); all verification results are exact zero tests.
"""

__version__ = "0.1.0"

from .basis import (BudgetExceeded, DEFAULT_BUDGET, FockContext,
                    RelationInconsistency, quotient_basis)
from .diagrams import (YoungDiagram, count_diagrams, enumerate_diagrams,
                       grow, is_unitary, max_hook, render, spread)
from .fock import EPS_SIGN, State, eps_tag
from .qalgebra import (apply_Q, check_dynamical_commutation, check_growth,
                       check_hook_vanishing, check_offdiagonal_annihilation,
                       check_rowcol_commutativity, fprime_dimension,
                       is_zero_tensor, nilpotency, resolve_eps_sign,
                       tensor_vacuum, vector_of_diagram)
from .scalars import (FieldError, FieldSpec, GENERIC, ROOT, UsageError,
                      make_field)
from .weights import epsilon, p_diff
