"""gridcuts: cutting an m x n grid into two congruent connected pieces.

The package builds the column-reading finite state machine that recognizes
valid cuts, turns its transfer matrix into an exact rational generating
function, extracts terms, recurrences and dominant-pole asymptotics, and
checks all of it against a brute-force bitboard oracle.
"""

from .board import (
    Board,
    complete_board,
    component_counts,
    is_canonical,
    is_graham,
    revcomp,
    transform,
)
from .automaton import (
    Automaton,
    acceptance,
    build_canonical,
    build_general,
    transfer_matrix,
)
from .errors import GridcutsError
from .oracle import (
    BudgetError,
    CountReport,
    count_report,
    count_reports,
    delahaye_report,
    enumerate_canonical,
    regenerate_figures,
)
from .series import (
    Polynomial,
    RationalFunction,
    Recurrence,
    generating_function,
    recurrence_of,
    series_terms,
)
from .asymptotics import AsymptoticEstimate, dominant_form, error_profile

__version__ = "0.1.0"

__all__ = [
    "AsymptoticEstimate",
    "Automaton",
    "Board",
    "BudgetError",
    "CountReport",
    "GridcutsError",
    "Polynomial",
    "RationalFunction",
    "Recurrence",
    "acceptance",
    "build_canonical",
    "build_general",
    "complete_board",
    "component_counts",
    "count_report",
    "count_reports",
    "delahaye_report",
    "dominant_form",
    "enumerate_canonical",
    "error_profile",
    "generating_function",
    "is_canonical",
    "is_graham",
    "recurrence_of",
    "regenerate_figures",
    "revcomp",
    "series_terms",
    "transfer_matrix",
    "transform",
]
