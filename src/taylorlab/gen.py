"""Seeded random generation of terms for property suites.

Everything is driven by a caller-supplied ``random.Random`` so identical
seeds reproduce identical suites (the CLI selftest relies on this).
Generators are biased toward producing redexes, otherwise random trees are
mostly inert.
"""

from __future__ import annotations

from random import Random

from .resource import ResourceTerm, monomial, rapp, rfvar, rlam, rvar
from .syntax import App, FreeVar, Lam, Term, Var

_FREE = ("x", "y", "z")
_HINTS = ("x", "y", "z", "u", "v", "w")


def random_resource_term(rng: Random, max_size: int, depth: int = 0) -> ResourceTerm:
    if max_size <= 1:
        if depth > 0 and rng.random() < 0.7:
            return rvar(rng.randrange(depth))
        return rfvar(rng.choice(_FREE))
    r = rng.random()
    if r < 0.3:
        return rlam(random_resource_term(rng, max_size - 1, depth + 1))
    if r < 0.85:
        budget = max_size - 1  # the monomial wrapper costs one
        fn_budget = rng.randint(1, max(1, budget - 1))
        if rng.random() < 0.45:
            # plant a redex
            fn = rlam(random_resource_term(rng, max(1, fn_budget - 1), depth + 1))
        else:
            fn = random_resource_term(rng, fn_budget, depth)
        left = budget - fn.size
        elems = []
        while left > 0 and rng.random() < 0.6:
            e_budget = rng.randint(1, left)
            e = random_resource_term(rng, e_budget, depth)
            left -= e.size
            elems.append(e)
        return rapp(fn, monomial(elems))
    if depth > 0 and rng.random() < 0.7:
        return rvar(rng.randrange(depth))
    return rfvar(rng.choice(_FREE))


def random_lambda_term(rng: Random, max_size: int, depth: int = 0) -> Term:
    if max_size <= 1:
        if depth > 0 and rng.random() < 0.7:
            return Var(rng.randrange(depth))
        return FreeVar(rng.choice(_FREE))
    r = rng.random()
    if r < 0.35:
        return Lam(rng.choice(_HINTS), random_lambda_term(rng, max_size - 1, depth + 1))
    if r < 0.85:
        fn_budget = rng.randint(1, max_size - 1)
        if rng.random() < 0.4:
            fn: Term = Lam(rng.choice(_HINTS), random_lambda_term(rng, max(1, fn_budget - 1), depth + 1))
        else:
            fn = random_lambda_term(rng, fn_budget, depth)
        arg = random_lambda_term(rng, max(1, max_size - 1 - fn_budget), depth)
        return App(fn, arg)
    if depth > 0 and rng.random() < 0.7:
        return Var(rng.randrange(depth))
    return FreeVar(rng.choice(_FREE))
