"""Test-only executable specifications.

Each module keeps a historical implementation that the optimised code in
``src/`` replaced, verbatim, so stream-identity tests and speed benches can
compare the two bit for bit.  Nothing under ``src/`` imports from here.
"""
