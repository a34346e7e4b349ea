"""Fixture: RD108 fires on every blocking call inside an async def here."""

import json
import subprocess
import time
from pathlib import Path


async def handle_request(writer):
    """RD108: time.sleep stalls every connection on the loop."""
    time.sleep(0.1)
    writer.write(b"ok\n")


async def load_config(path):
    """RD108: sync file IO (open and Path helpers) inside async."""
    with open(path) as fh:  # noqa: typical sync IO
        first = fh.readline()
    rest = Path(path).read_text()
    return first, rest


async def snapshot(path, payload):
    """RD108: sync writes and subprocess waits inside async."""
    Path(path).write_bytes(payload)
    subprocess.run(["sync"], check=False)


async def outer():
    """RD108 also fires inside nested *async* frames."""

    async def inner():
        time.sleep(0.5)

    await inner()


async def respond(writer, result):
    """RD108: serialising a dense payload on the loop (JSON and tolist)."""
    body = json.dumps({"result": result.tolist()})
    writer.write(body.encode())
    return json.loads(body)
