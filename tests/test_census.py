"""Every closed term of at most 9 nodes (``support.closed_terms``) through
``check commutation``, ``check head`` and ``check norm`` (d ≤ 2), at size
bound 10 and fuel 1000: no check fails, and the verdict counts are pinned.
``census.py`` runs the census of ``check commutation`` up to 12 nodes."""

import pytest

from taylorlab.lab import check_commutation, check_head_charac, check_norm_charac
from taylorlab.syntax import alpha_eq, parse_term, pretty

from support import census, closed_terms

CHECKS = {
    "commutation": lambda t: check_commutation(t, 10, 1000),
    "head": lambda t: check_head_charac(t, 10, 1000),
    "norm": lambda t: check_norm_charac(t, 2, 10, 1000),
}


def test_the_enumerator_gives_the_known_counts():
    assert [len(closed_terms(n)) for n in (1, 2, 3, 7, 9, 10)] == [0, 1, 3, 201, 2622, 10180]
    terms = closed_terms(9)
    assert len(set(terms)) == len(terms)
    assert all(t.loose == 0 and alpha_eq(parse_term(pretty(t)), t) for t in terms)


@pytest.mark.parametrize("kind", CHECKS)
def test_every_closed_term_of_nine_nodes_passes(kind):
    counts, others = census(closed_terms(9), CHECKS[kind])
    assert counts == {"pass": 2622, "inconclusive": 0, "fail": 0}, others
