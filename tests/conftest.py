"""
Shared fixtures.  `certifications` counts strong-regularity certifications:
srg_params runs graphs._certify once per certification, on the graph's first
call and again after each failure.  The fixture records the rows of each
certified graph as a tuple of integers.  The patch is made where graphs
defines the helper, so a certification through any module or the package
namespace is counted, a call that returns a graph's kept SrgParams is not,
and neither is a computation of the graph's kept pair arrays.
"""

import pytest

from rank3etf import graphs


@pytest.fixture
def certifications(monkeypatch):
    "the list of row tuples certified so far; clear() it to count afresh"
    seen = []
    real = graphs._certify

    def counting(g):
        seen.append(g.rows)
        return real(g)

    monkeypatch.setattr(graphs, "_certify", counting)
    return seen
