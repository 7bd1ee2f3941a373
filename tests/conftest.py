import json
import struct

import pytest


@pytest.fixture
def edit_header():
    """``edit(path, change)``: apply ``change(head)`` to a file's header.

    The JSON header on the first line is parsed, handed to ``change`` to
    modify in place and written back with sorted keys.  The file is edited
    as bytes, so everything after the header's newline, a checkpoint's
    binary payload included, is kept as it is.
    """
    def edit(path, change):
        line, _, rest = path.read_bytes().partition(b"\n")
        head = json.loads(line)
        change(head)
        path.write_bytes(
            json.dumps(head, sort_keys=True).encode() + b"\n" + rest)

    return edit


@pytest.fixture
def set_trace_value():
    """``set(path, column, sample, value)``: overwrite one value of a
    version 2 trace's body in place; every other byte is kept."""
    def set_value(path, column, sample, value):
        data = bytearray(path.read_bytes())
        start = data.index(b"\n") + 1
        head = json.loads(data[:start])
        at = start + 8 * (head["columns"].index(column) * head["n_samples"]
                          + sample)
        data[at:at + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(data))

    return set_value
