"""``deep_sizeof``: the reachable size of an object graph.

The bench of record reports a frozen index's footprint with it
(``core.index_bytes``).
"""

from __future__ import annotations

import sys
from array import array


def deep_sizeof(obj: object) -> int:
    """Total ``sys.getsizeof`` bytes reachable from ``obj``.

    Descends dicts, sequences, sets, ``__dict__``/``__slots__``
    instances; flat ``array`` buffers are already priced by
    ``getsizeof``.  Shared objects count once (id-dedup), so comparing
    two structures over the same interned strings is fair.
    """
    seen: set[int] = set()
    stack: list = [obj]
    total = 0
    while stack:
        current = stack.pop()
        if id(current) in seen or isinstance(current, type):
            continue
        seen.add(id(current))
        total += sys.getsizeof(current)
        if isinstance(current, dict):
            stack.extend(current.keys())
            stack.extend(current.values())
        elif isinstance(current, (list, tuple, set, frozenset)):
            stack.extend(current)
        elif isinstance(current, (array, str, bytes, bytearray)):
            continue  # getsizeof covers the buffer
        else:
            instance_dict = getattr(current, "__dict__", None)
            if isinstance(instance_dict, dict):
                stack.append(instance_dict)
            for klass in type(current).__mro__:
                for name in getattr(klass, "__slots__", ()):
                    if hasattr(current, name):
                        stack.append(getattr(current, name))
    return total
