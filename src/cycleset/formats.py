"""Stable interchange formats.

Cycle sets travel as JSON objects ``{"n": int, "table": [[...], ...]}`` or
as compact text (``n=4`` then one space-separated row per line); braces as
``{"n", "zero", "add", "circ"}``; censuses as JSON lines with a leading
``_meta`` record and a trailing ``summary`` record.  Lines starting with
``#`` and unknown JSON keys are ignored on input, which is where run
metadata lives, so metadata never disturbs round-trips.

Permutations are image arrays (always 0-based) or cycle-notation strings
like ``"(1 2)(3 4 5)"``; cycle notation is 1-based unless asked otherwise,
matching the way such permutations are usually quoted in print.
"""

from __future__ import annotations

import json
import re

from ._version import __version__
from .brace import LeftBrace, left_brace
from .core import CycleSet, cycle_set
from .enumeration import Census
from .perm import Perm, from_cycles, is_permutation
from .verify import Verdict

FORMAT_CYCLESET = "cycleset/1"
FORMAT_BRACE = "cycleset-brace/1"
FORMAT_CENSUS = "cycleset-census/1"


def make_meta(command: str | None = None, **extra) -> dict:
    meta = {"format_version": __version__}
    if command is not None:
        meta["command"] = command
    meta.update(extra)
    return meta


def _strip_comments(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            out.append(stripped)
    return out


def _rows(obj: object, key: str, what: str) -> list:
    """``obj[key]`` when ``obj`` is a JSON object and that entry a list of
    lists, else ValueError, so that a table of the wrong shape is a parse
    error rather than a KeyError or TypeError deep in validation."""
    if not isinstance(obj, dict):
        raise ValueError(f"a {what} must be a JSON object")
    rows = obj.get(key)
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError(f"{what} {key!r} must be a list of rows")
    return rows


def _require_ints(obj: dict, keys: tuple[str, ...], message: str, optional: bool = False) -> None:
    """ValueError(message) unless every key holds an int, a key that ``obj``
    lacks passing when ``optional``.  JSON true, false and 2.0 are not sizes
    or points."""
    for key in keys:
        if not (optional and key not in obj) and type(obj.get(key)) is not int:
            raise ValueError(message)


def check_size(n: int, max_n: int | None) -> None:
    """ValueError when a table of ``n`` points exceeds ``max_n``; None is no
    cap."""
    if max_n is not None and n > max_n:
        raise ValueError(f"a table of {n} points exceeds the size cap {max_n}")


def parse_cycle_set(text: str, max_n: int | None = None) -> CycleSet:
    """JSON or compact text, with # comments and unknown keys ignored.  A
    table of more than ``max_n`` points is refused before it is validated."""
    body = text.lstrip()
    if body.startswith("{"):
        obj = json.loads(body)
        table = _rows(obj, "table", "cycle set")
        check_size(len(table), max_n)
        _require_ints(obj, ("n",), "declared n must be an integer", optional=True)
        if "n" in obj and obj["n"] != len(table):
            raise ValueError("declared n does not match the table")
        return cycle_set(table)
    lines = _strip_comments(text)
    if not lines:
        raise ValueError("empty input")
    m = re.fullmatch(r"n\s*=\s*(\d+)", lines[0])
    if m:
        n = int(m.group(1))
        rows = lines[1:]
    else:
        n = len(lines[0].split())
        rows = lines
    check_size(n, max_n)
    if len(rows) != n:
        raise ValueError(f"expected {n} rows, found {len(rows)}")
    table = []
    for line in rows:
        row = [int(tok) for tok in line.split()]
        if len(row) != n:
            raise ValueError(f"row of length {len(row)}, expected {n}")
        table.append(row)
    return cycle_set(table)


def dump_cycle_set(X: CycleSet, fmt: str = "json", meta: dict | None = None) -> str:
    if fmt == "json":
        obj: dict = {"n": X.n, "table": [list(row) for row in X.table]}
        if meta:
            obj["_meta"] = meta
        return json.dumps(obj, indent=None, separators=(", ", ": ")) + "\n"
    if fmt == "text":
        head = []
        if meta:
            for k, v in meta.items():
                head.append(f"# {k}: {v}")
        head.append(f"n={X.n}")
        head.extend(" ".join(str(v) for v in row) for row in X.table)
        return "\n".join(head) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str, n: int | None = None, one_based: bool = True) -> Perm:
    """Image array like ``[1, 0, 2]`` (0-based) or cycles like ``(1 2)(3 4)``.

    Cycle input needs ``n``; ``one_based`` applies to cycle input only.
    """
    body = text.strip()
    if body.startswith("["):
        images = tuple(json.loads(body))
        if not all(type(v) is int for v in images) or not is_permutation(images):
            raise ValueError("not a permutation image array")
        if n is not None and len(images) != n:
            raise ValueError(f"degree {len(images)}, expected {n}")
        return images
    if body.startswith("("):
        if n is None:
            raise ValueError("cycle notation needs the degree")
        chunks = _CYCLE_RE.findall(body)
        if _CYCLE_RE.sub("", body).strip():
            raise ValueError("stray characters outside cycles")
        cycles = []
        for chunk in chunks:
            pts = [int(tok) for tok in re.split(r"[,\s]+", chunk.strip()) if tok]
            if one_based:
                pts = [p - 1 for p in pts]
            if any(p < 0 or p >= n for p in pts):
                raise ValueError("cycle point out of range")
            if pts:
                cycles.append(tuple(pts))
        return from_cycles(n, cycles)
    raise ValueError("unrecognized permutation syntax")


def parse_brace(text: str, max_n: int | None = None) -> LeftBrace:
    """A brace of more than ``max_n`` elements is refused before it is
    validated."""
    obj = json.loads(text)
    add, circ = _rows(obj, "add", "brace"), _rows(obj, "circ", "brace")
    check_size(max(len(add), len(circ)), max_n)
    _require_ints(obj, ("n", "zero"), "declared n and zero must be integers", optional=True)
    B = left_brace(add, circ)
    if "n" in obj and obj["n"] != B.n:
        raise ValueError("declared n does not match the tables")
    if "zero" in obj and obj["zero"] != B.zero:
        raise ValueError("declared zero is not the identity of the tables")
    return B


def dump_brace(B: LeftBrace, meta: dict | None = None) -> str:
    obj: dict = {
        "n": B.n,
        "zero": B.zero,
        "add": [list(row) for row in B.add],
        "circ": [list(row) for row in B.circ],
    }
    if meta:
        obj["_meta"] = meta
    return json.dumps(obj) + "\n"


def dump_census_jsonl(
    census: Census, meta: dict | None = None, *, count_only: bool = False
) -> str:
    lines = []
    head_meta = {"format": FORMAT_CENSUS, "format_version": __version__}
    if meta:
        head_meta.update(meta)
    lines.append(json.dumps({"_meta": head_meta}, sort_keys=True))
    if not count_only:
        for table in census.representatives:
            lines.append(json.dumps({"n": census.n, "table": [list(r) for r in table]}))
    summary = {
        "summary": {
            "n": census.n,
            "filter": {k: v for k, v in census.filter_desc},
            "count": census.count,
            "engine_version": census.engine_version,
            "elapsed": round(census.elapsed, 3),
        }
    }
    lines.append(json.dumps(summary, sort_keys=True))
    return "\n".join(lines) + "\n"


def parse_census_jsonl(text: str) -> Census:
    tables = []
    summary = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        obj = json.loads(line)
        if not isinstance(obj, dict):
            raise ValueError("a census record must be a JSON object")
        if "_meta" in obj:
            continue
        if "summary" in obj:
            summary = obj["summary"]
            _require_ints(
                summary if isinstance(summary, dict) else {},
                ("n", "count"),
                "census summary must give integers 'n' and 'count'",
            )
            if summary["n"] < 1:
                raise ValueError(f"census summary 'n' must be at least 1, got {summary['n']}")
            continue
        table = tuple(tuple(row) for row in _rows(obj, "table", "census record"))
        tables.append(table)
    if summary is None:
        raise ValueError("census has no summary record")
    if summary["count"] != len(tables):
        raise ValueError(
            f"summary count {summary['count']} does not match {len(tables)} records"
        )
    for table in tables:
        if len(table) != summary["n"]:
            raise ValueError(
                f"a record has {len(table)} points, the summary says n = {summary['n']}"
            )
    filt = summary.get("filter", {})
    if not isinstance(filt, dict):
        raise ValueError("census summary 'filter' must be a JSON object")
    elapsed = summary.get("elapsed", 0.0)
    if isinstance(elapsed, bool) or not isinstance(elapsed, (int, float)):
        raise ValueError("census summary 'elapsed' must be a number")
    engine_version = summary.get("engine_version", "unknown")
    if not isinstance(engine_version, str):
        raise ValueError("census summary 'engine_version' must be a string")
    try:
        tables = sorted(tables)
    except TypeError:  # entries that are not points: cycle_set rejects them
        pass
    return Census(
        n=summary["n"],
        filter_desc=tuple(sorted(filt.items())),
        representatives=tuple(tables),
        engine_version=engine_version,
        elapsed=float(elapsed),
    )


def verdict_json(v: Verdict) -> str:
    return json.dumps(v.to_dict(), sort_keys=True)
