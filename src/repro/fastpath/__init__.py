"""Compiled hot path: the vectorized epoch grid.

Campaigns evaluate the analytic machine model millions of times; in
its reference form (``TransmuterModel.simulate_epoch``) that is a
pure-Python loop. :mod:`repro.fastpath.epochs` compiles it down to
numpy: it evaluates the cache/crossbar/DVFS/power epoch model for a
whole ``workloads x configs`` grid in one pass of elementwise array
ops. (The decision trees' flat tables live with the estimator, in
:class:`repro.ml.decision_tree.DecisionTable`.)

**Bit-identity is the contract.** Every downstream guarantee
(kill/resume, multi-host convergence, compare gates) keys off exact
report bytes, so the fast path must be numerically indistinguishable
from the scalar reference:

* elementwise float64 ``+ - * /``, ``minimum``/``maximum`` and
  ``sqrt`` are IEEE-754 correctly rounded in both numpy and CPython,
  so mirrored expressions (same operand order, same grouping) produce
  the same bits;
* ``**`` is NOT: numpy's SIMD ``pow`` differs from libm's in the last
  ulp for most exponents, so every data-dependent power is routed
  through :func:`repro.fastpath.epochs.pow_exact` (CPython's
  ``float.__pow__`` applied elementwise) and every config-only power
  (DVFS operating points, SRAM access energies, leakage) is
  precomputed per distinct configuration with the original scalar
  functions.

There is one code path: traced and untraced runs alike execute this
engine. ``tests/test_fastpath_equivalence.py`` locks the equivalence
down with differential property tests against scalar reference copies
kept under ``tests/`` (``tests/scalar_reference.py``).
"""
