"""Numerical laboratory for measurement as a continuous phase transition.

The package treats collapse as spontaneous breaking of superpositions: the
rank-one phase unitary exp(i eps |psi><psi|) supplies the breaking
transform, Gaussian wave packets supply the classical-looking branch states,
and the inter-branch mean gap measured against the half-sum of spreads acts
as the order parameter whose crossing defines the collapse time.

Submodules are not imported here; import the ones you use
(`decolab.collapse`, `decolab.scenarios.sterngerlach`, ...), so that a
process loads only what it runs.
"""

__version__ = "0.1.0"
