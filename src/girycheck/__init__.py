"""Executable mathematics for super convex spaces and the probability
monad at desk scale: exact-rational carriers, certified countable sums,
finite measurable spaces, barycenters, and a seeded law harness.

Each name is imported from its module, such as ``girycheck.giry``; the
package binds none, so ``import girycheck`` loads no submodule.
"""
