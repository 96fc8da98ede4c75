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


def parse_fields(parse: Callable[[dict], T], value, source: str) -> T:
    """``parse(value)`` for a JSON object read from ``source``.  A value that
    is not an object, or that lacks a field ``parse`` reads, raises a
    KgcausalError naming ``source``, not a bare TypeError or KeyError."""
    if not isinstance(value, dict):
        raise KgcausalError(f"{source}: expected a JSON object, not {type(value).__name__}")
    try:
        return parse(value)
    except KeyError as exc:
        raise KgcausalError(f"{source}: missing field {exc.args[0]!r}") from None


def read_jsonl(path, parse: Callable[[dict], T]) -> list[T]:
    """``parse`` of the JSON object on each non-blank line of a JSON Lines
    file, through :func:`parse_fields`."""
    with open(path, encoding="utf-8") as fh:
        return [parse_fields(parse, json.loads(line), f"{path}:{number}")
                for number, line in enumerate(fh, 1) if line.strip()]


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
