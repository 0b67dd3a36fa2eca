"""Compiled hot path: vectorized epoch batches and flat decision tables.

Campaigns evaluate the analytic machine model and the CART ensemble
millions of times; both are pure-Python loops in their reference form
(``TransmuterModel.simulate_epoch``, the estimators' own ``predict``).
This package compiles them down to numpy:

* :mod:`repro.fastpath.tables` flattens fitted trees into contiguous
  feature/threshold/child/leaf-class arrays, walked by a tight
  flat-array loop for the controller's single-row case.
* :mod:`repro.fastpath.epochs` evaluates the cache/crossbar/DVFS/power
  epoch model for a whole ``workloads x configs`` grid in one pass of
  elementwise array ops.

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

There is one code path: traced and untraced runs alike execute these
engines. ``tests/test_fastpath_equivalence.py`` locks the equivalence
down with differential property tests against scalar reference copies
kept under ``tests/`` (``tests/scalar_reference.py``).
"""
