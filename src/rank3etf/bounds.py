"""
Vertex-count guards for the expensive operations, overridable by the
environment variable ETF_RANK3_MAX_VERTICES (an integer that replaces
every default bound when set).
"""

import os

ENV_VAR = "ETF_RANK3_MAX_VERTICES"
BUILD_VERTEX_BOUND = 1000  # family builds and graph JSON input


def effective_bound(default):
    raw = os.environ.get(ENV_VAR)
    if raw is None or raw == "":
        return default
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        raise ValueError("%s must be a positive integer, got %r" % (ENV_VAR, raw))
    return n
