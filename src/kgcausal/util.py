"""Small helpers shared by the pipeline stages: the seeded hash, the stable
descending sort, atomic artifact writes, JSON Lines I/O and the one reader
of JSON objects into dataclasses."""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .errors import KgcausalError

T = TypeVar("T")


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
    _atomic_writelines(path, (text,))


def _atomic_writelines(path, chunks: Iterable[str]) -> None:
    """:func:`atomic_write` of the strings ``chunks`` yields, written in turn."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path, rows: Iterable[dict]) -> None:
    """Atomically write one JSON object per line, line by line, so that the
    file's text is never held whole."""
    _atomic_writelines(path, (json.dumps(row, ensure_ascii=False) + "\n" for row in rows))


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def number_array(values, name: str) -> np.ndarray:
    """A JSON list, or list of lists, of numbers as a float64 array; a null,
    a boolean or a string in it raises a ValueError naming ``name``, where
    numpy would read NaN, 1.0 or the string's number."""
    array = np.asarray(values, dtype=np.float64)
    items = values if array.ndim else [values]
    for _ in range(array.ndim - 1):
        items = itertools.chain.from_iterable(items)
    for value in items:
        if type(value) not in (int, float):
            raise ValueError(f"{name} must hold only numbers, not {json.dumps(value)}")
    return array


def parse_fields(parse: Callable[[dict], T], text: str, source: str) -> T:
    """``parse`` of the JSON object in ``text``, read from ``source``.  Text
    that is not JSON or holds a number that is not finite (NaN, Infinity, or
    one too large for a float), a value that is not an object, a missing
    field, and the TypeError, ValueError, IndexError, AttributeError or
    OverflowError ``parse`` raises on a value of the wrong shape each raise
    a KgcausalError naming ``source``."""
    try:
        value = json.loads(text, parse_float=_finite, parse_constant=_finite)
    except ValueError as exc:
        raise KgcausalError(f"{source}: invalid JSON: {exc}") from None
    if not isinstance(value, dict):
        raise KgcausalError(f"{source}: expected a JSON object, not {type(value).__name__}")
    try:
        return parse(value)
    except KeyError as exc:
        raise KgcausalError(f"{source}: missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError, IndexError, AttributeError, OverflowError) as exc:
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
    """``parse`` for one file's rows, with each ``qid`` a string or an integer
    read as one; any other qid, or one an earlier row had, is a ValueError."""
    seen: set[str] = set()

    def parse_once(d: dict) -> T:
        if type(d["qid"]) not in (str, int):
            raise ValueError(f"qid must be a string or an integer, not {json.dumps(d['qid'])}")
        qid = str(d["qid"])
        if qid in seen:
            raise ValueError(f"qid {qid!r} repeated")
        seen.add(qid)
        return parse({**d, "qid": qid})
    return parse_once


# Each scalar annotation's name in errors and the JSON types it takes.
_SCALARS = {str: ("a string", {str}), int: ("an integer", {int}),
            bool: ("a boolean", {bool}), float: ("a number", {int, float})}


@functools.cache
def _field(hint) -> Callable:
    """The reader, of a value and its key path, for the annotation ``hint``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        read = _field(next(arg for arg in args if arg is not type(None)))
        return lambda value, path: None if value is None else read(value, path)
    if origin in (list, tuple):
        read, fits = _field(args[0]), _SCALARS.get(args[0], ("", set()))[1]

        def read_list(value, path):
            if type(value) not in (list, tuple):
                raise ValueError(f"{path} must be a list, not {json.dumps(value)}")
            if fits.issuperset(map(type, value)):  # scalars that fit, read at once
                return origin(map(float, value) if args[0] is float else value)
            return origin(read(item, f"{path}[{i}]") for i, item in enumerate(value))
        return read_list
    if origin is typing.Literal:
        read, name = _field(type(args[0])), " or ".join(map(json.dumps, args))

        def read_choice(value, path):
            if read(value, path) not in args:
                raise ValueError(f"{path} must be {name}, not {json.dumps(value)}")
            return value
        return read_choice
    if hint is np.ndarray:
        return number_array
    if is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        spec = [(f.name, f.metadata.get("key", f.name), _field(hints[f.name]),
                 f.default is f.default_factory is MISSING) for f in fields(hint)]

        def read_object(value, path):
            if type(value) is not dict:
                raise ValueError(f"{path} must be an object, not {json.dumps(value)}")
            values = {}
            for name, key, read, required in spec:
                where = f"{path}.{key}" if path else key
                if key in value:
                    values[name] = read(value[key], where)
                elif required:
                    raise KeyError(where)
            return hint(**values)
        return read_object
    name, json_types = _SCALARS[hint]

    def read_scalar(value, path):
        if type(value) not in json_types:
            raise ValueError(f"{path} must be {name}, not {json.dumps(value)}")
        return float(value) if hint is float else value
    return read_scalar


def read_fields(cls: type[T], d: dict) -> T:
    """The dataclass ``cls`` read from the JSON object ``d`` by its field
    annotations, resolved once per class: ``str``, ``int`` and ``bool`` take
    just that JSON type, ``float`` any number but a boolean, ``Literal`` one
    of its values, ``Optional`` also null, ``list`` and ``tuple`` a list,
    ``np.ndarray`` :func:`number_array`, and a dataclass an object.  A
    field's key is its name, or the ``key`` in its metadata.  A field with a
    default may be left out, and other keys are ignored.  A misfit is a
    ValueError, and a missing field a KeyError, naming its key path, such as
    ``metapaths[0].relscore``."""
    return _field(cls)(d, "")
