"""Storage that repeated passes reuse instead of allocating.

A training step's largest arrays hold one row per packed frame. Allocated
fresh each step, glibc hands their pages back to the kernel when the step
frees them and faults them in again the next step. A ``Workspace`` keeps one
buffer per role for the life of one ``train`` run instead (and of one
``score_trials`` call, across its packs): each pass writes its arrays into
the buffers with ``out=``, and a buffer only grows, to the largest pass seen.
Where the result lands is all that changes; every array is computed by the
same call on the same operands, so it holds the same bits.

Every function that writes into a workspace takes it as a required
argument. Three callers make one: ``train_epochs`` for its run,
``grad_check`` for all the passes of one check, and ``score_trials`` (in
``scoring._forward_utterances``) for its packs.
"""

from __future__ import annotations

import math

import numpy as np

# Roles that a training step never holds at once share a buffer, so the
# workspace holds no more than the step's live arrays at their peak. In step
# order, the segment bins die inside ``extract_traits``, and the
# nearest-neighbour screen's score table and GEMM operands inside the
# verification loss; only then does ``trait_layer_backward`` write the frame
# gradient, which ``encode_backward`` reads while it writes the first context
# gradient (``grad_a``).
_SHARED = {
    "bins": "pooling",
    "distances": "pooling",
    "d_frames": "pooling",
    "operands": "grad_a",
}


class Workspace:
    """Buffers by role; an array taken for a role is valid until its buffer's next take.

    Buffers are raw bytes, so roles of different dtypes can share one.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, role: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """An uninitialised C-contiguous ``shape`` array in ``role``'s buffer."""
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        name = _SHARED.get(role, role)
        if name not in self._buffers or self._buffers[name].size < nbytes:
            # The outgrown buffer goes before its successor is allocated.
            self._buffers.pop(name, None)
            self._buffers[name] = np.empty(nbytes, np.uint8)
        return self._buffers[name][:nbytes].view(dtype).reshape(shape)
