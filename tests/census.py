"""The census of ``check commutation`` on every closed term of at most N
nodes (``support.closed_terms``; 12 by default), at size bound 10 and fuel
1000, printed as JSON: the verdict counts and the sorted non-passing terms
with their verdicts and reasons. The time it took goes to stderr. Its name
keeps pytest from collecting it. Run it from the repository root::

    PYTHONPATH=src python tests/census.py [N]
"""

import json
import sys
import time

from taylorlab.lab import check_commutation

from support import census, closed_terms


def main(argv):
    nodes = int(argv[0]) if argv else 12
    start = time.perf_counter()
    terms = closed_terms(nodes)
    counts, others = census(terms, lambda t: check_commutation(t, 10, 1000))
    print(json.dumps({"nodes": nodes, "terms": len(terms), "verdicts": counts, "not_passing": others}, indent=1))
    print(f"{time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
