"""Protected state transfer through XX spin chains: free-fermion engine,
fidelity formulas, and an exact many-body verification oracle."""

__version__ = "0.1.0"
