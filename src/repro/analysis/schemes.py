"""Table 1: comparison between HE schemes.

The table positions TFHE among the major FHE families: which homomorphic
operations they support natively, which data types they operate on and how
expensive their bootstrapping is.  The bootstrapping figures are the
literature values the paper cites; the TFHE row is the one this repository
actually implements and measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.utils.tables import format_table


@dataclass(frozen=True)
class SchemeEntry:
    """One row of Table 1."""

    scheme: str
    operations: str
    data_type: str
    bootstrapping: str
    bootstrapping_seconds: float
    supports_boolean_gates: bool
    unlimited_depth_practical: bool


TABLE1_SCHEMES: List[SchemeEntry] = [
    SchemeEntry("BGV", "mult, add", "integer", "~800 s", 800.0, False, False),
    SchemeEntry("BFV", "mult, add", "integer", "> 1000 s", 1000.0, False, False),
    SchemeEntry("CKKS", "mult, add", "fixed point", "~500 s", 500.0, False, False),
    SchemeEntry("FHEW", "Boolean", "binary", "< 1 s", 1.0, True, True),
    SchemeEntry("TFHE", "Boolean", "binary", "13 ms", 0.013, True, True),
]


def table1_rows() -> List[List[str]]:
    """Rows of Table 1 in the paper's column order."""
    return [
        [entry.scheme, entry.operations, entry.data_type, entry.bootstrapping]
        for entry in TABLE1_SCHEMES
    ]


def bootstrapping_speedup_over(scheme: str) -> float:
    """How much faster TFHE's bootstrapping is than the named scheme's."""
    table = {e.scheme: e for e in TABLE1_SCHEMES}
    if scheme not in table:
        raise KeyError(f"unknown scheme {scheme!r}")
    return table[scheme].bootstrapping_seconds / table["TFHE"].bootstrapping_seconds


def render_table1() -> str:
    """Text rendering of Table 1."""
    return format_table(
        ["Scheme", "FHE Op.", "Data Type", "Bootstrapping"],
        table1_rows(),
        title="Table 1: The comparison between various HE schemes.",
    )
