import json

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
