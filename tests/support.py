"""Helpers that several test modules share: builders of long application
chains, a reader for printed resource sites, a head-normality test for
resource terms, and an oracle for ``bot_step``."""

from taylorlab.beta import solvable
from taylorlab.resource import RLam
from taylorlab.resource_reduction import head_split
from taylorlab.syntax import App, LambdaError


def power_apply(m, n, k):
    """Left-nested application of ``k`` copies of ``n`` to ``m``."""
    out = m
    for _ in range(k):
        out = App(out, n)
    return out


def power_tail(n, k):
    """Right-nested tower ``(n)(n)...(n) n`` with ``k`` occurrences."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = n
    for _ in range(k - 1):
        out = App(n, out)
    return out


def is_head_normal(t):
    """Whether the resource term ``t`` has no head redex."""
    _, head, monos = head_split(t)
    return not (isinstance(head, RLam) and monos)


def site_from_str(text):
    """The resource site that ``site_to_str`` prints as ``text``."""
    if text in ("", "root"):
        return ()
    out = []
    for part in text.split("."):
        if part in ("body", "fun"):
            out.append(part)
        elif part.startswith("arg[") and part.endswith("]"):
            out.append(("arg", int(part[4:-1])))
        else:
            raise LambdaError(f"bad site component {part!r}")
    return tuple(out)


def loop_certified_oracle(fuel):
    """Oracle for ``bot_step``: certifies exactly what head-cycle detection can."""
    return lambda t: solvable(t, fuel)
