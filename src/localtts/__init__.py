"""Localized test-time scaling laboratory.

Defect-mask generation from quality-contrast attention, mask-aware
localized resampling, verifier-guided search, and a patch-economy theory
with Monte Carlo validation, all on an analytic patch-grid diffusion
testbed with closed-form score.
"""
