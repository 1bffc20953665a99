"""
Shared fixtures.  `certifications` counts strong-regularity certifications:
srg_params reads its pair counts through graphs.common_neighbour_counts once
per certification, and nothing else in graphs calls it.  The fixture records
the rows of each certified adjacency array as a tuple of integers.  The patch is made
where graphs defines the helper, so a call through any module or the package
namespace is counted, and a call that returns a graph's kept SrgParams is not.
"""

import pytest

from rank3etf import graphs


@pytest.fixture
def certifications(monkeypatch):
    "the list of row tuples certified so far; clear() it to count afresh"
    seen = []
    real = graphs.common_neighbour_counts

    def counting(adj):
        seen.append(tuple(graphs.pack_rows(adj)))
        return real(adj)

    monkeypatch.setattr(graphs, "common_neighbour_counts", counting)
    return seen
