"""Span tracer that wraps phonetrait's public API from outside the package.

``Tracer.install`` walks the layer modules, wraps every public function and
every public method of every public class they define, and rebinds each
module-level reference to the wrapped object (including the copies made by
``from .x import f`` and handler tables such as ``cli._HANDLERS``). Nothing
under ``src/`` is edited; the wrappers exist only in the traced process.

Each call becomes a span: (span id, function, start ns, end ns, parent span
id, op id). Spans are kept in memory and written once, by ``write_spans``.
Functions called thousands of times per op (per trial or per alignment row)
are listed in ``AGGREGATED``: they are counted and timed, and their time is
taken out of their caller's self time, but no span is stored for each call.

Self time of a call is its duration minus the time covered by its direct
child calls; a layer's self time is the sum over its functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "corpus", "encoder", "trait_layer", "losses", "training", "scoring", "analysis")

AGGREGATED = frozenset({
    "scoring.cosine_similarity",
    "scoring.final_score",
    "scoring.evidence_score",
    "scoring.trait_similarity_vector",
    "corpus.PhoneInventory.index_of",
})

_READER_PREFIXES = ("load_", "read_")
_WRITER_PREFIXES = ("save_", "write_", "export_")

# Stack frame fields.
_SPAN, _LAYER, _START, _CHILD = range(4)


class FunctionStats:
    __slots__ = ("layer", "io", "calls", "total_ns", "self_ns", "bytes")

    def __init__(self, layer: str, io: str | None):
        self.layer = layer
        self.io = io  # "read", "write" or None
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.bytes = 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.stats: dict[str, FunctionStats] = {}
        self.spans = array("q")  # flat records of 6 fields, see module docstring
        self.stack: list[list] = []
        self.next_span = 0
        self.op = 0
        self.enabled = False
        # Frames handed to the encoder layer by another layer.
        self.encoder_frames = 0
        # Forward passes and distinct utterances forwarded, per op.
        self.forwards = 0
        self.distinct_forwarded = 0
        self._op_utterances: set[str] = set()

    def next_op(self) -> None:
        self.distinct_forwarded += len(self._op_utterances)
        self._op_utterances.clear()
        self.op += 1

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the public API of every layer module; call once per process."""
        replacements: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"phonetrait.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacements[id(obj)] = (obj, self._wrap(f"{layer}.{name}", layer, obj))
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{layer}.{name}", layer, obj)
        for module_name, module in list(sys.modules.items()):
            if module_name != "phonetrait" and not module_name.startswith("phonetrait."):
                continue
            for name, value in list(vars(module).items()):
                if isinstance(value, dict):
                    for key, item in list(value.items()):
                        entry = replacements.get(id(item))
                        if entry is not None and entry[0] is item:
                            value[key] = entry[1]
                    continue
                entry = replacements.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])
        self.enabled = True

    def _wrap_methods(self, qualname: str, layer: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{qualname}.{attr}"
            if inspect.isfunction(value):
                setattr(cls, attr, self._wrap(name, layer, value))
            elif isinstance(value, (classmethod, staticmethod)):
                setattr(cls, attr, type(value)(self._wrap(name, layer, value.__func__)))

    def _wrap(self, qualname: str, layer: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        keep_span = qualname not in AGGREGATED
        short = qualname.rsplit(".", 1)[-1]
        path_pos = _path_position(fn)
        reader = path_pos is not None and short.startswith(_READER_PREFIXES)
        writer = path_pos is not None and short.startswith(_WRITER_PREFIXES)
        io = "read" if reader else "write" if writer else None
        stats = self.stats[qualname] = FunctionStats(layer, io)
        is_encoder = layer == "encoder"
        is_forward = qualname == "trait_layer.forward_utterance"
        clock = time.perf_counter_ns
        stack = self.stack
        spans = self.spans
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            caller_layer = stack[-1][_LAYER] if stack else None
            if is_encoder and caller_layer != "encoder":
                tracer.encoder_frames += _frame_rows(args)
            if is_forward:
                tracer.forwards += 1
                tracer._op_utterances.add(_utterance_id(args, kwargs))
            if reader:
                stats.bytes += _file_size(_path_arg(args, kwargs, path_pos))
            span_id = tracer.next_span
            tracer.next_span += 1
            parent = stack[-1][_SPAN] if stack else -1
            frame = [span_id, layer, 0, 0]
            stack.append(frame)
            start = frame[_START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats.calls += 1
                stats.total_ns += duration
                stats.self_ns += duration - frame[_CHILD]
                if stack:
                    stack[-1][_CHILD] += duration
                if keep_span:
                    spans.extend((span_id, name_id, start, end, parent, tracer.op))
                if writer:
                    stats.bytes += _file_size(_path_arg(args, kwargs, path_pos))

        return traced

    # -- output -------------------------------------------------------------

    def finish(self) -> None:
        self.distinct_forwarded += len(self._op_utterances)
        self._op_utterances.clear()
        self.enabled = False

    def write_spans(self, path) -> int:
        """Write every stored span as CSV; returns the span count."""
        records = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 6)
        with open(path, "w") as f:
            f.write("span,name,start_ns,end_ns,parent,op\n")
            for span_id, name_id, start, end, parent, op in records.tolist():
                f.write(f"{span_id},{self.names[name_id]},{start},{end},{parent},{op}\n")
        return records.shape[0]


def _path_position(fn) -> int | None:
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return params.index("path") if "path" in params else None


def _path_arg(args, kwargs, pos: int):
    return kwargs["path"] if "path" in kwargs else args[pos] if len(args) > pos else None


def _file_size(path) -> int:
    try:
        return 0 if path is None else os.stat(path).st_size
    except OSError:
        return 0


def _frame_rows(args) -> int:
    for arg in args:
        arr = getattr(arg, "features", arg)
        if isinstance(arr, np.ndarray) and arr.ndim == 2:
            return arr.shape[0]
    return 0


def _utterance_id(args, kwargs) -> str:
    alignment = kwargs.get("alignment", args[1] if len(args) > 1 else None)
    return getattr(alignment, "utterance_id", "")
