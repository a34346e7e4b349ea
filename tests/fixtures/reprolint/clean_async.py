"""Fixture: RD108 stays silent — blocking work is loop-safe here."""

import asyncio
import json
import time
from pathlib import Path


async def handle_request(writer):
    """asyncio.sleep yields the loop; not a blocking call."""
    await asyncio.sleep(0.1)
    writer.write(b"ok\n")


async def load_config(path):
    """Blocking IO dispatched to the executor is the sanctioned shape."""
    loop = asyncio.get_running_loop()

    def read_sync():
        # Inside a nested sync def: this runs on an executor thread,
        # where blocking is fine.
        with open(path) as fh:
            return fh.read()

    return await loop.run_in_executor(None, read_sync)


def warm_cache(path):
    """Sync functions may block; RD108 only watches async frames."""
    time.sleep(0.01)
    return Path(path).read_text()


async def respond(writer, result):
    """Serialisation shipped to the executor keeps the loop free."""
    loop = asyncio.get_running_loop()

    def encode():
        return json.dumps({"result": result.tolist()}).encode()

    writer.write(await loop.run_in_executor(None, encode))


def decode(line):
    """A sync helper may parse JSON; RD108 only watches async frames."""
    return json.loads(line)
