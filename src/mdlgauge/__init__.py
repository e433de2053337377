"""mdlgauge: description-length gauging for software component generality.

Library surface, by concern:

- lexcount: renaming-invariant token counting of source text
- mdl: scoring candidate components against use cases and picking a winner
- term: terms, substitutions, matching, unification, anti-unification
- encode: C fragments as terms, for the commands that read ``*.cpp`` files
- sampling: seeded random ground terms and abstractions
- treedist: ordered tree edit distance (with a brute-force oracle)
- viscosity: sampled Lipschitz estimates for abstractions
- tradeoff: synthetic corpora and compression/inversion tradeoff curves
- cli: the ``mdlgauge`` command
"""

__version__ = "0.1.0"
