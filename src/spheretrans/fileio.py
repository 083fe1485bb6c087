"""Reading and writing complexes as facet files or JSON.

The facet format is line oriented: '#' lines are headers, every other
nonblank line is one facet as space-separated sorted signed integers,
all lines with the same token count, LF endings, facets sorted
lexicographically.  The JSON mirror wraps the same facet list with a
small metadata object.  Both loaders validate purity and labels, and
load(store(x)) == x.  The empty complex has no file form: the writers
refuse it and the loaders reject a document without facets.
"""

from __future__ import annotations

import json
from typing import Any

from .complexes import PureComplex

FACET_FORMAT = "spheretrans-facets"
JSON_FORMAT = "spheretrans-complex"


def dumps_facets(delta: PureComplex, metadata: dict[str, Any] | None = None) -> str:
    lines = [f"# {FACET_FORMAT}"]
    for key, value in (metadata or {}).items():
        lines.append(f"# {key}={value}")
    for f in delta.sorted_facets():
        lines.append(" ".join(map(str, f)))
    return "\n".join(lines) + "\n"


def loads_facets(text: str) -> PureComplex:
    facets = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: not an integer facet: {line!r}") from exc
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ValueError(
                f"line {lineno}: expected {width} labels, got {len(values)}"
            )
        if values != sorted(values):
            raise ValueError(f"line {lineno}: labels must be sorted: {line!r}")
        facets.append(tuple(values))
    return _nonempty(PureComplex(facets))


def dumps_json(delta: PureComplex, metadata: dict[str, Any] | None = None) -> str:
    payload: dict[str, Any] = {
        "format": JSON_FORMAT,
        "facet_dimension": delta.dimension,
        "vertex_count": delta.vertex_count,
        "facets": delta.sorted_facets(),
    }
    if metadata:
        payload["metadata"] = metadata
    return json.dumps(payload) + "\n"


def loads_json(text: str) -> PureComplex:
    payload = json.loads(text)
    if not isinstance(payload, dict) or payload.get("format") != JSON_FORMAT:
        raise ValueError(f"not a {JSON_FORMAT} document")
    facets = payload.get("facets", [])
    # bool is a subclass of int, so test the exact type: true is no label
    if not isinstance(facets, list) or not all(
        isinstance(f, list) and all(type(v) is int for v in f) for f in facets
    ):
        raise ValueError("facets must be a list of lists of integer labels")
    return _nonempty(PureComplex(facets))


def _nonempty(delta: PureComplex) -> PureComplex:
    if delta.is_empty:
        raise ValueError("document has no facets")
    return delta


FORMATS = {"facets": dumps_facets, "json": dumps_json}


def dumps_complex(
    delta: PureComplex, fmt: str, metadata: dict[str, Any] | None = None
) -> str:
    """The text of delta in the named format; refuses the empty complex."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    if delta.is_empty:
        raise ValueError("refusing to write the empty complex")
    return FORMATS[fmt](delta, metadata)


def load_complex(path: str) -> PureComplex:
    """Load either format, sniffing JSON by its leading brace."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return loads_json(text)
    return loads_facets(text)


def save_complex(
    delta: PureComplex,
    path: str,
    fmt: str = "facets",
    metadata: dict[str, Any] | None = None,
) -> None:
    text = dumps_complex(delta, fmt, metadata)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
