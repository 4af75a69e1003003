"""Isotropic error analysis for encoded quantum states.

Closed-form fidelities, exact sphere/kernel integrals, and seeded Monte
Carlo estimates of the raw and corrected fidelities on S^(2d-1), together
with the verification harness that cross-checks each route against the
others.
"""

__version__ = "0.1.0"
