"""Exact verification of Groebner-basis and liaison-chain claims for
ladder determinantal and pfaffian ideals.

The package covers four instance families (maximal minors, pfaffian
ladders, symmetric ladders, one-sided ladders), each with natural
polynomial generators over the rationals or a prime field.  For every
instance it can

* check that the natural generators are a reduced Groebner basis, both
  by an exact Buchberger completion (along a chain, completions reuse
  the S-pairs another node already settled) and by the reduced-basis
  predicate;
* unfold the corner-removal recursion into a chain of smaller
  instances, checking at every step a basic-double-link identity, a
  two-route Hilbert-series identity in every degree, height
  bookkeeping, and a shedding condition;
* certify vertex decomposability of the initial complex with a
  replayable certificate;
* compare the closed height formula with the codimension of the
  initial ideal, read off its Hilbert series.

All arithmetic is exact; no floating point is used anywhere.
"""

from .errors import BudgetExceeded, LadderError, PreconditionError
from .families import conventional_order, initial_generators, natural_generators
from .fields import QQ, PrimeField, field_by_name
from .ladders import (
    MaxMinors,
    OneSidedLadder,
    PfaffianLadder,
    SymmetricLadder,
    ensure_valid,
    ladder_from_json,
)
from .linkage import (
    Chain,
    chain_certificate,
    localization_maps,
    replay_chain,
    verify_family,
    verify_localization,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "Chain",
    "LadderError",
    "MaxMinors",
    "OneSidedLadder",
    "PfaffianLadder",
    "PreconditionError",
    "PrimeField",
    "QQ",
    "SymmetricLadder",
    "chain_certificate",
    "conventional_order",
    "ensure_valid",
    "field_by_name",
    "initial_generators",
    "ladder_from_json",
    "localization_maps",
    "natural_generators",
    "replay_chain",
    "verify_family",
    "verify_localization",
    "__version__",
]
