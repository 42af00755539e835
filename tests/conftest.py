import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from liemaxwell import forms
from liemaxwell import lie_algebra as la
from liemaxwell import solver


@pytest.fixture(scope="session")
def cat():
    return la.catalog()


@pytest.fixture(scope="session")
def by_name():
    return la.entry_by_name


def draw_admissible(entry, rng):
    """One admissible (algebra, metric) draw for property sweeps."""
    ap = solver.sample_algebra_params(entry, rng)
    mp = solver.sample_metric_params(entry, [rng])[0]
    L = la.instantiate(entry, ap)
    g = la.metric_from_params(entry, mp)
    return L, g


def instantiated(cand):
    """(entry, algebra, metric) of a candidate, built from its parameters."""
    entry = cand.entry
    return (entry, la.instantiate(entry, cand.algebra_params),
            la.metric_from_params(entry, cand.metric_params))


def catalog_copy(tmp_path, name, edit):
    """Path of a copy of the packaged catalog whose record of entry ``name``
    ``edit`` changed in place, its checksum recomputed, for ``load_catalog``."""
    doc = json.loads(la._catalog_text())
    edit(next(raw for raw in doc["entries"] if raw["name"] == name))
    doc["sha256"] = la.catalog_checksum(doc)
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    return path


def admissible_draws(n, seed=0, entries=None):
    """Yield n (entry, L, g) draws cycling through catalog entries."""
    pool = entries if entries is not None else la.catalog()
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        entry = pool[k % len(pool)]
        L, g = draw_admissible(entry, rng)
        out.append((entry, L, g))
    return out


def dstar(L, g, f6):
    """d(*F), the residual 3-form of co-closedness."""
    return la.d_two_form(L, forms.hodge_star(g, f6))
