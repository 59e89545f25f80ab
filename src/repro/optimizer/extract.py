"""Names shared by plan steps and the unoptimized basic framework.

Plan steps produce result tables whose shape depends on the combining
strategy (flag-partitioned, grouping-set, multi-dimensional rollup); each
view group's results fold into its
:class:`~repro.optimizer.combine.GroupState` (the "post-process results at
the backend" the paper mentions), keyed as :func:`table_series` keys a
single view's result for the basic framework.
"""

from __future__ import annotations

import numpy as np

from repro.db.table import Table
from repro.metrics.normalize import canonical_key

#: Name of the virtual target/comparison flag column in combined queries.
FLAG_NAME = "__seedb_flag"


def table_series(table: Table, key_column: str, value_column: str):
    """(keys, values) of a two-column view result, keys canonicalized."""
    keys = [canonical_key(k) for k in table.column(key_column)]
    return keys, np.asarray(table.column(value_column), dtype=np.float64)

