"""Result export and lossless payload serialization.

Every experiment result exposes ``rows()`` (list of row sequences) and a
``table()`` text rendering; this module adds a machine-readable CSV
export so downstream plotting/analysis can consume regenerated figures
without scraping text tables.

Beyond the flat CSV row dump, the *payload* codec turns any
experiment result — arbitrarily nested frozen dataclasses, tuples,
dicts with non-string keys, enums and numpy arrays — into a
JSON-serialisable tree and back, losslessly.  This is what the
content-addressed artifact store (:mod:`repro.store`) persists: a
result round-trips ``to_payload() -> json -> from_payload()`` into an
object that compares equal to the original, so cached experiments can
be re-served without recomputation.

The encoding is self-describing.  JSON-native scalars pass through;
every other shape is wrapped in a single-tag object:

========================= ============================================
tag                       value
========================= ============================================
``{"!tuple": [...]}``     tuple, items encoded recursively
``{"!dict": [[k, v]..]}`` dict (keys may be floats, tuples, ...)
``{"!dataclass": path,    dataclass instance; ``path`` is
``"fields": {...}}``      ``module:qualname``, resolved on decode
``{"!enum": path,         enum member (by name)
``"name": ...}``
``{"!ndarray": [...],     numpy array; nested-list data plus dtype
``"dtype": ..,            and explicit shape (so empty axes survive)
``"shape": [...]}``
========================= ============================================

Decoding only resolves classes from ``repro`` modules — payloads are
data, not code, and the store must not import arbitrary modules.
"""

from __future__ import annotations

import csv
import importlib
import json
from dataclasses import fields as dataclass_fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Protocol, Sequence

import numpy as np

from repro.errors import ConfigurationError

#: Version stamp of the payload encoding; stored envelopes carry it and
#: the artifact store treats a mismatch as an invalidation.
PAYLOAD_SCHEMA_VERSION = 1

_TUPLE = "!tuple"
_DICT = "!dict"
_DATACLASS = "!dataclass"
_ENUM = "!enum"
_NDARRAY = "!ndarray"
_TAGS = (_TUPLE, _DICT, _DATACLASS, _ENUM, _NDARRAY)


class TabularResult(Protocol):
    """Anything with ``rows()`` — all experiment results qualify."""

    def rows(self) -> Sequence[Sequence[object]]:
        """Row data, one sequence per row."""
        ...  # pragma: no cover - protocol stub


def rows_to_csv(
    rows: Sequence[Sequence[object]],
    path: str | Path,
    headers: Sequence[str] | None = None,
) -> Path:
    """Write rows (optionally with a header line) to a CSV file.

    Returns:
        The written path.

    Raises:
        ConfigurationError: on ragged rows or a header/row width mismatch.
    """
    rows = [list(r) for r in rows]
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ConfigurationError("rows have inconsistent lengths")
        if headers is not None and len(headers) != width:
            raise ConfigurationError(
                f"{len(headers)} headers for rows of width {width}"
            )
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        if headers is not None:
            writer.writerow(headers)
        writer.writerows(rows)
    return path


def result_to_csv(
    result: TabularResult,
    path: str | Path,
    headers: Sequence[str] | None = None,
) -> Path:
    """Export an experiment result's rows to CSV."""
    return rows_to_csv(result.rows(), path, headers=headers)


def _class_path(cls: type) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


def _resolve_class(path: str) -> type:
    """Resolve a ``module:qualname`` reference from the repro package.

    Raises:
        ConfigurationError: on malformed paths, non-``repro`` modules,
            or names that do not resolve to a class.
    """
    module_name, _, qualname = path.partition(":")
    if not qualname:
        raise ConfigurationError(f"malformed class path {path!r}")
    if module_name != "repro" and not module_name.startswith("repro."):
        raise ConfigurationError(
            f"refusing to resolve {path!r}: payloads may only reference "
            "classes from the repro package"
        )
    try:
        obj: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as exc:
        raise ConfigurationError(f"cannot resolve class path {path!r}") from exc
    if not isinstance(obj, type):
        raise ConfigurationError(f"{path!r} is not a class")
    return obj


def encode_value(value: Any) -> Any:
    """Encode a result tree into JSON-serialisable primitives.

    Handles dataclasses, enums, tuples, dicts with arbitrary (encodable,
    hashable) keys, numpy arrays and numpy scalars; see the module
    docstring for the tag table.

    Raises:
        ConfigurationError: on values outside the supported closure
            (functions, open handles, arbitrary objects).
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        return value.item()
    if isinstance(value, Enum):
        return {_ENUM: _class_path(type(value)), "name": value.name}
    if is_dataclass(value) and not isinstance(value, type):
        return {
            _DATACLASS: _class_path(type(value)),
            "fields": {
                f.name: encode_value(getattr(value, f.name))
                for f in dataclass_fields(value)
            },
        }
    if isinstance(value, np.ndarray):
        return {
            _NDARRAY: value.tolist(),
            "dtype": str(value.dtype),
            "shape": list(value.shape),
        }
    if isinstance(value, tuple):
        return {_TUPLE: [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {
            _DICT: [[encode_value(k), encode_value(v)] for k, v in value.items()]
        }
    raise ConfigurationError(
        f"cannot encode {type(value).__name__} value {value!r} into a payload"
    )


def _decode_key(payload: Any) -> Any:
    key = decode_value(payload)
    if isinstance(key, list):  # pragma: no cover - defensive
        key = tuple(key)
    return key


def decode_value(payload: Any) -> Any:
    """Inverse of :func:`encode_value`.

    Raises:
        ConfigurationError: on unknown tags or unresolvable class paths.
    """
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return payload
    if isinstance(payload, list):
        return [decode_value(v) for v in payload]
    if isinstance(payload, dict):
        if _TUPLE in payload:
            return tuple(decode_value(v) for v in payload[_TUPLE])
        if _DICT in payload:
            return {
                _decode_key(k): decode_value(v) for k, v in payload[_DICT]
            }
        if _DATACLASS in payload:
            cls = _resolve_class(payload[_DATACLASS])
            if not is_dataclass(cls):
                raise ConfigurationError(
                    f"{payload[_DATACLASS]!r} is not a dataclass"
                )
            kwargs = {
                name: decode_value(v) for name, v in payload["fields"].items()
            }
            return cls(**kwargs)
        if _ENUM in payload:
            cls = _resolve_class(payload[_ENUM])
            return cls[payload["name"]]
        if _NDARRAY in payload:
            return np.array(
                payload[_NDARRAY], dtype=np.dtype(payload["dtype"])
            ).reshape(payload["shape"])
        raise ConfigurationError(
            f"payload object without a recognised tag: {sorted(payload)!r}"
        )
    raise ConfigurationError(
        f"cannot decode payload of type {type(payload).__name__}"
    )


def payload_equal(a: Any, b: Any) -> bool:
    """Structural equality of two result trees, via their encodings.

    Works where plain ``==`` does not: dataclasses holding numpy arrays
    (whose ``__eq__`` is elementwise) and NaN-valued floats (canonical
    JSON text makes ``NaN == NaN`` hold).
    """
    dump_a = json.dumps(encode_value(a), sort_keys=True)
    dump_b = json.dumps(encode_value(b), sort_keys=True)
    return dump_a == dump_b


class PayloadSerializable:
    """Mixin giving a result dataclass the lossless payload protocol.

    ``to_payload()`` returns a JSON-serialisable tree; the
    ``from_payload()`` classmethod rebuilds an equal instance.  Nested
    dataclasses, enums and numpy arrays need no mixin of their own —
    the codec handles any value in the supported closure.
    """

    def to_payload(self) -> dict:
        """JSON-serialisable encoding of this result."""
        payload = encode_value(self)
        assert isinstance(payload, dict)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "PayloadSerializable":
        """Rebuild a result from :meth:`to_payload` output.

        Raises:
            ConfigurationError: when the payload decodes to a different
                class than the one it was requested through.
        """
        result = decode_value(payload)
        if not isinstance(result, cls):
            raise ConfigurationError(
                f"payload decodes to {type(result).__name__}, "
                f"not {cls.__name__}"
            )
        return result
