"""``repro.core.vectorized`` — flat-array fast paths for the partitioner.

Two layers, both bit-identical to the scalar pipeline by construction and
by check-mode oracle:

* :class:`~repro.core.vectorized.tables.NestTables` — per-nest batched
  VA->PA->block/primary/on-chip tables, replaying page translations in
  canonical first-touch order;
* :class:`~repro.core.vectorized.split_kernel.SplitTemplates` — the
  split kernel: every split of a table-backed nest is built from those
  tables by the splitter's one step
  (:func:`~repro.core.splitter.build_split`), over one Kruskal memo per
  statement.

The session-level helpers below gate the fast path: it is only used with
pure predictors (``pure_predict=True``) and falls back to the scalar code
for nests whose accesses cannot be resolved up front (e.g. irregular
nests before the inspector ran).  Both caches live in
:class:`~repro.pipeline.session.SessionCaches` and are cleared per
compile.
"""

from __future__ import annotations

from repro.core.vectorized.split_kernel import SplitTemplates
from repro.core.vectorized.tables import NestTables
from repro.errors import WorkloadError

__all__ = ["NestTables", "SplitTemplates", "nest_tables_for", "templates_for"]


def nest_tables_for(session, program, nest, predictor):
    """The session's :class:`NestTables` for ``nest`` (None = unsupported).

    Returns None — and remembers the verdict — when the predictor is
    stateful or the nest's accesses cannot be resolved in closed form;
    callers then stay on the scalar path.
    """
    if predictor is not None and not getattr(predictor, "pure_predict", True):
        return None
    caches = session.caches
    if nest.name in caches.nest_tables:
        return caches.nest_tables[nest.name]
    try:
        tables = NestTables(program, nest, session.machine, predictor)
    except WorkloadError:
        tables = None
    caches.nest_tables[nest.name] = tables
    return tables


def templates_for(session, program, nest, locator, flatten_products: bool):
    """The session's split kernel for ``nest`` (None = scalar splits)."""
    tables = nest_tables_for(session, program, nest, locator.predictor)
    if tables is None:
        return None
    key = (nest.name, bool(flatten_products))
    templates = session.caches.split_templates.get(key)
    if templates is None:
        templates = SplitTemplates(tables, locator, flatten_products)
        session.caches.split_templates[key] = templates
    return templates
