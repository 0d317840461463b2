"""Finite-difference laboratory for super-time-stepping schemes.

Prices European and digital payoffs under a stochastic-volatility model (2-D)
and under constant volatility (1-D) with stabilized explicit Runge-Kutta
integrators built on Chebyshev, Legendre and Gegenbauer recurrences, plus
implicit references.  The operator assembly exposes several upwinding
policies so the stability impact of exponential fitting regions can be
studied directly on spectra and time-convergence ladders.
"""

__version__ = "0.1.0"
