"""Small helpers shared by the pipeline stages: the seeded hash, the stable
descending sort, atomic artifact writes, JSON Lines I/O and the in-order
thread pool."""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import KgcausalError

T = TypeVar("T")
R = TypeVar("R")


def stable_hash(*parts) -> int:
    """64-bit BLAKE2b of the parts joined with U+001F; stable across processes."""
    key = "\x1f".join(map(str, parts)).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def descending_order(scores: Sequence[float]) -> list[int]:
    """Indices sorted by descending score; ties keep input order."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def atomic_write(path, text: str) -> None:
    """Replace ``path`` with ``text`` in one step: readers see the old file or
    the new one, never a partial write, and a failure leaves the old file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path, rows: Iterable[dict]) -> None:
    """Atomically write one JSON object per line."""
    atomic_write(path, "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows))


def parse_fields(parse: Callable[[dict], T], text: str, source: str) -> T:
    """``parse`` of the JSON object in ``text``, read from ``source``.  Text
    that is not JSON, a value that is not an object, a missing field, and the
    TypeError, ValueError, IndexError or AttributeError ``parse`` raises on a
    value of the wrong shape each raise a KgcausalError naming ``source``."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise KgcausalError(f"{source}: invalid JSON: {exc}") from None
    if not isinstance(value, dict):
        raise KgcausalError(f"{source}: expected a JSON object, not {type(value).__name__}")
    try:
        return parse(value)
    except KeyError as exc:
        raise KgcausalError(f"{source}: missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError, IndexError, AttributeError) as exc:
        raise KgcausalError(f"{source}: {exc}") from None


def read_json(path, parse: Callable[[dict], T]) -> T:
    """``parse`` of the JSON object a file holds, through :func:`parse_fields`."""
    return parse_fields(parse, Path(path).read_text(encoding="utf-8"), str(path))


def read_jsonl(path, parse: Callable[[dict], T]) -> list[T]:
    """``parse`` of the JSON object on each non-blank line of a JSON Lines
    file, through :func:`parse_fields`."""
    with open(path, encoding="utf-8") as fh:
        return [parse_fields(parse, line, f"{path}:{number}")
                for number, line in enumerate(fh, 1) if line.strip()]


def _unique_qids(parse: Callable[[dict], T]) -> Callable[[dict], T]:
    """``parse`` for one file's rows, raising a ValueError on a row whose
    ``qid`` an earlier row had."""
    seen: set[str] = set()

    def parse_once(d: dict) -> T:
        row = parse(d)
        if row.qid in seen:
            raise ValueError(f"qid {row.qid!r} repeated")
        seen.add(row.qid)
        return row
    return parse_once


def map_in_order(fn: Callable[[T], R], items: Iterable[T], parallelism: int) -> list[R]:
    """``fn`` over ``items`` on up to ``parallelism`` threads, results in input
    order.  The first error (in input order) cancels the jobs not yet started
    and is re-raised."""
    items = list(items)
    if parallelism <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        futures = [pool.submit(fn, item) for item in items]
        try:
            return [future.result() for future in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
