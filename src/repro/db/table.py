"""Columnar tables: the storage layer of the in-memory DBMS.

A :class:`Table` stores each column as one numpy array (column-major, like
an analytics engine), which makes SeeDB's workload — scan, filter, group,
aggregate — vectorizable. Tables are immutable by convention: operations
return new tables sharing column arrays where possible.

Dimension columns are dictionary-encoded on first use (:meth:`Table.codes`):
once per ``Table`` object, then read as integer codes by metadata
statistics, planning and the group-by. A string column is hashed, and only
its distinct values are sorted (:func:`~repro.db.groupby.factorize`); an
ID-like one, mostly distinct, is sorted whole, which is cheaper there. A
table cut from another by :meth:`~Table.mask`, :meth:`~Table.take`,
:meth:`~Table.head`, :meth:`~Table.select_columns` or :meth:`~Table.rename`
slices its parent's codes by the same row selector instead of encoding
again. A float column's NULL (NaN) rows are found the same way, once
(:meth:`Table.nulls`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.db.aggregates import nan_mask
from repro.db.groupby import compact_codes, factorize
from repro.db.schema import ColumnSpec, Schema
from repro.db.types import AttributeRole, DataType, coerce_array, default_role, infer_data_type
from repro.util.errors import SchemaError


@dataclass(frozen=True)
class Table:
    """A named, schema-typed columnar table.

    Invariants (checked at construction): every schema column has exactly one
    array, all arrays are one-dimensional and of equal length, and each
    array's dtype matches its declared :class:`DataType`.
    """

    name: str
    schema: Schema
    columns: Mapping[str, np.ndarray]
    #: The table this one was cut from and the row selector that cut it
    #: (None: rows unchanged); None for a table built from its arrays.
    _parent: "tuple[Table, Any] | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    _codes: dict = field(  # guarded-by: _codes_lock
        default_factory=dict, init=False, repr=False, compare=False
    )
    _nulls: dict = field(  # guarded-by: _codes_lock
        default_factory=dict, init=False, repr=False, compare=False
    )
    _codes_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        missing = set(self.schema.names) - set(self.columns)
        extra = set(self.columns) - set(self.schema.names)
        if missing or extra:
            raise SchemaError(
                f"table {self.name!r}: schema/column mismatch "
                f"(missing={sorted(missing)}, extra={sorted(extra)})"
            )
        lengths = {name: len(array) for name, array in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise SchemaError(f"table {self.name!r}: ragged columns {lengths}")
        for spec in self.schema:
            array = self.columns[spec.name]
            if array.ndim != 1:
                raise SchemaError(
                    f"column {spec.name!r} must be 1-D, got shape {array.shape}"
                )
            expected = spec.dtype.numpy_dtype
            if array.dtype != expected and not (
                spec.dtype is DataType.DATE and array.dtype.kind == "M"
            ):
                raise SchemaError(
                    f"column {spec.name!r}: dtype {array.dtype} != declared {expected}"
                )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_columns(
        cls,
        name: str,
        data: Mapping[str, Sequence[Any]],
        roles: Mapping[str, AttributeRole] | None = None,
        semantics: Mapping[str, str] | None = None,
    ) -> "Table":
        """Build a table from ``{column: values}``, inferring types and roles.

        ``roles`` overrides the heuristic dimension/measure classification
        (:func:`repro.db.types.default_role`) per column.
        """
        roles = dict(roles or {})
        semantics = dict(semantics or {})
        specs: list[ColumnSpec] = []
        arrays: dict[str, np.ndarray] = {}
        for column_name, values in data.items():
            dtype = infer_data_type(values)
            array = coerce_array(values, dtype)
            n_rows = len(array)
            if column_name in roles:
                role = roles[column_name]
            else:
                distinct_fraction = (
                    len(np.unique(array)) / n_rows if n_rows and dtype.is_numeric else 0.0
                )
                role = default_role(dtype, distinct_fraction)
            specs.append(
                ColumnSpec(column_name, dtype, role, semantics.get(column_name))
            )
            arrays[column_name] = array
        return cls(name, Schema(tuple(specs)), arrays)

    @classmethod
    def from_rows(
        cls,
        name: str,
        header: Sequence[str],
        rows: Iterable[Sequence[Any]],
        roles: Mapping[str, AttributeRole] | None = None,
    ) -> "Table":
        """Build a table from a header and row tuples (row-major input)."""
        materialized = [list(row) for row in rows]
        for i, row in enumerate(materialized):
            if len(row) != len(header):
                raise SchemaError(
                    f"row {i} has {len(row)} cells, header has {len(header)}"
                )
        data = {
            column: [row[i] for row in materialized]
            for i, column in enumerate(header)
        }
        return cls.from_columns(name, data, roles=roles)

    @classmethod
    def empty_like(cls, other: "Table", name: str | None = None) -> "Table":
        """An empty table with ``other``'s schema."""
        arrays = {
            spec.name: np.empty(0, dtype=other.columns[spec.name].dtype)
            for spec in other.schema
        }
        return cls(name or other.name, other.schema, arrays)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        """Row count."""
        if not self.schema.columns:
            return 0
        return len(self.columns[self.schema.columns[0].name])

    def __len__(self) -> int:
        return self.num_rows

    def column(self, name: str) -> np.ndarray:
        """The backing array for ``name`` (raises SchemaError if unknown)."""
        self.schema[name]  # validates
        return self.columns[name]

    def codes(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Dictionary encoding of column ``name``: integer ``codes`` and
        the sorted ``uniques`` they index, equal to :func:`factorize` of it.

        A dimension column is encoded once per ``Table`` object and kept
        for its lifetime, its codes in the narrowest signed integer type
        that indexes the dictionary: a string column by hashing its rows,
        sorting only the distinct values (an ID-like column, mostly
        distinct, is sorted whole). A derived table cuts its
        parent's codes with the selector that cut its rows and compacts
        them (no encoding). Other columns are factorized on each call and
        not kept.
        """
        if self.schema[name].role is not AttributeRole.DIMENSION:
            return factorize(self.columns[name])
        with self._codes_lock:
            encoded = self._codes.get(name)
            if encoded is None:
                encoded = self._encode(name)
                self._codes[name] = encoded
            return encoded

    def _encode(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        if self._parent is None:
            codes, uniques = factorize(self.columns[name])
            narrow = np.min_scalar_type(-max(len(uniques), 1))
            return codes.astype(narrow), uniques
        parent, rows = self._parent
        codes, uniques = parent.codes(name)
        if rows is None:
            return codes, uniques
        return compact_codes(codes[rows], uniques)

    def nulls(self, name: str) -> "np.ndarray | None":
        """The NULL (NaN) rows of float column ``name`` as a boolean mask,
        or None when it has none (so has every column of another type).

        Found once per ``Table`` object and kept for its lifetime, like
        :meth:`codes`; a derived table cuts its parent's mask with the
        selector that cut its rows.
        """
        if self.column(name).dtype.kind != "f":
            return None
        with self._codes_lock:
            if name not in self._nulls:
                self._nulls[name] = self._find_nulls(name)
            return self._nulls[name]

    def _find_nulls(self, name: str) -> "np.ndarray | None":
        if self._parent is None:
            return nan_mask(self.columns[name])
        parent, rows = self._parent
        mask = parent.nulls(name)
        if mask is None or rows is None:
            return mask
        mask = mask[rows]
        return mask if mask.any() else None

    def _derive(
        self,
        arrays: Mapping[str, np.ndarray],
        rows: Any,
        name: "str | None" = None,
        schema: "Schema | None" = None,
    ) -> "Table":
        """A table over ``arrays`` whose codes come from this table's,
        cut by ``rows`` (None when the rows are unchanged)."""
        derived = Table(name or self.name, schema or self.schema, arrays)
        object.__setattr__(derived, "_parent", (self, rows))
        return derived

    def __reduce__(self):
        # Pickle the data, not the encoding: an unpickled table is a new
        # object that encodes its own columns on first use.
        return (Table, (self.name, self.schema, dict(self.columns)))

    def row(self, index: int) -> dict[str, Any]:
        """Row ``index`` as a ``{column: value}`` dict (for tests/debugging)."""
        return {name: self.columns[name][index] for name in self.schema.names}

    def iter_rows(self) -> Iterator[tuple[Any, ...]]:
        """Iterate rows as tuples in schema order. O(rows) — debugging only."""
        arrays = [self.columns[name] for name in self.schema.names]
        for i in range(self.num_rows):
            yield tuple(array[i] for array in arrays)

    def to_rows(self) -> list[tuple[Any, ...]]:
        """All rows as a list of tuples (small tables / tests)."""
        return list(self.iter_rows())

    # ------------------------------------------------------------------
    # Relational operations (return new tables)
    # ------------------------------------------------------------------

    def mask(self, keep: np.ndarray, name: str | None = None) -> "Table":
        """Select the rows where boolean array ``keep`` is True."""
        if keep.dtype != np.bool_ or keep.shape != (self.num_rows,):
            raise SchemaError(
                f"mask must be a boolean array of length {self.num_rows}"
            )
        arrays = {col: array[keep] for col, array in self.columns.items()}
        return self._derive(arrays, keep, name)

    def take(self, indices: "np.ndarray | slice", name: str | None = None) -> "Table":
        """Select rows by integer position (samplers) or by slice (row
        partitions — a strided view, no column is copied)."""
        arrays = {col: array[indices] for col, array in self.columns.items()}
        return self._derive(arrays, indices, name)

    def select_columns(self, names: Sequence[str], name: str | None = None) -> "Table":
        """Project onto ``names`` preserving their given order."""
        specs = tuple(self.schema[n] for n in names)
        arrays = {n: self.columns[n] for n in names}
        return self._derive(arrays, None, name, Schema(specs))

    def rename(self, name: str) -> "Table":
        """The same table under a new name."""
        return self._derive(self.columns, None, name)

    def head(self, n: int = 5) -> "Table":
        """The first ``n`` rows (for previews and view metadata)."""
        rows = slice(None, n)
        arrays = {col: array[rows] for col, array in self.columns.items()}
        return self._derive(arrays, rows)

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, rows={self.num_rows}, "
            f"columns={list(self.schema.names)})"
        )
