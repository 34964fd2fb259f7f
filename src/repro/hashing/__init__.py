"""Hash-function families used to index directory ways.

The paper evaluates two families:

* the Seznec–Bodin *skewing* functions (a few XOR/rotate levels of logic,
  the paper's default, Section 5.5), and
* *strong* hash functions (called "cryptographic" in the paper) used to
  characterise the cuckoo hash independently of hash-function bias
  (Figure 7).

Both families implement :class:`HashFamily`: a callable per way that maps
a block address to a set index in ``[0, num_sets)``, and so does the
modulo family that gives the Sparse baseline its set-associative layout.
"""

from repro.hashing.base import HashFamily, HashFunction
from repro.hashing.modulo import ModuloHashFamily
from repro.hashing.skewing import SkewingHashFamily
from repro.hashing.strong import StrongHashFamily, mix64

__all__ = [
    "HashFamily",
    "HashFunction",
    "ModuloHashFamily",
    "SkewingHashFamily",
    "StrongHashFamily",
    "mix64",
]
