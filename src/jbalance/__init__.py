"""Balanced-metric quantisation of the J-flow on polarised toric surfaces.

Modules: kernel (the softmax kernel and its node blocks, under the
potentials and the nodes the quadrature's tensor grid leaves to it),
geometry (potentials, polytopes, bases, quadrature, intersection numbers),
quantisation (Hilb/FS maps, moment map, balance iteration, Bergman
asymptotics, all as sums over the tensor grid), flows (balancing ODE,
continuum J-flow, residuals), functionals (J_chi, I_{mu_J}, I_{mu0},
I_hat, P_hat), stability (exact test-configuration weights) and cli.
"""
