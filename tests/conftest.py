"""
Shared fixtures.  `certifications` counts strong-regularity certifications:
srg_params reads its pair counts through graphs.common_neighbour_counts once
per certification, and nothing else in graphs calls it.  The patch is made
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

    def counting(rows):
        seen.append(rows)
        return real(rows)

    monkeypatch.setattr(graphs, "common_neighbour_counts", counting)
    return seen
