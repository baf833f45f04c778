"""Fuzzy cascaded PD control of a single-link flexible-joint manipulator.

Layers, bottom up: ``record`` (frozen value records), ``plant`` (dynamics
+ forward-Euler integration), ``fuzzy`` (Sugeno gain regulators),
``control`` (PD cascade + closed-loop simulation), ``metrics`` (tracking
metrics and cost), ``tuning`` (GP-surrogate Bayesian optimization),
``analysis`` (linear stability), ``gainsio`` (flat key = value files),
``cli`` (command-line harness).
"""

__version__ = "0.1.0"
