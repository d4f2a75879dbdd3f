"""Six-field moment model of a rarefied polyatomic gas with dynamic pressure.

Subpackages:

- gas: equations of state, primitive/conserved conversions, the window check
- closure: the non-linear entropy-maximizing closure and the main field
- oracle: independent kinetic quadrature verification of every closed form
- eigen: characteristic structure, coupling condition, convexity checks
- solver: 1-D finite-volume solver for the balance laws with BGK relaxation
- config / cli: run configuration and the `et6` command line tool
"""

__version__ = "0.1.0"
