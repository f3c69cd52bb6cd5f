"""Qudit encoding of modular-arithmetic axioms and their MUB measurements.

The library enumerates the d**2 functions f: {0,1} -> Z_d, partitions them
d+1 ways into proposition groups, encodes a chosen axiom into a d-level
state, measures in any of the d+1 mutually unbiased bases, and checks that
brute-force decidability and Born statistics agree cell by cell: decidable
propositions give deterministic outcomes, undecidable ones give exactly
uniform statistics.

Import from the submodules: modmath, logic, mub, devices, experiment and
cli.
"""

__version__ = "0.1.0"
