"""Test oracles: reference implementations the package is held to.

None of these ships in ``repro``; each is the slow, obvious form of
something the package does fast:

* :mod:`tests.oracles.verifier` -- the Schedule-IR verifier
  (``verify_program`` / ``verify_binding``) and the capture gate
  ``tests/conftest.py`` installs, so every program a test captures is
  verified;
* :mod:`tests.oracles.reference` -- the per-rank-object machine and the
  recording machine whose schedule it replays;
* :mod:`tests.oracles.capture` -- whole-run program capture and its
  replay report;
* :mod:`tests.oracles.blas` -- the per-block Gram kernel.
"""
