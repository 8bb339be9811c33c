#!/usr/bin/env python3
"""End-to-end smoke for fsr_serve's socket mode (src/netserve/).

Usage: python3 tools/serve_socket_smoke.py path/to/fsr_serve

Proves the transport acceptance properties of docs/WIRE.md ("Transport"):

  * byte identity — a fixed request stream produces byte-identical
    responses over stdin, TCP, and Unix-domain transports, at --shards 1
    and --shards 8, from 8 concurrent clients at once (stats/debug lines
    are live state, the two documented exceptions, and are filtered);
  * the stdin contract per connection — dense ids, blank lines skipped,
    in-band errors;
  * hostile input stays in-band — a 9th client sends a 30k-deep JSON
    line, a duplicate-key line, four `random` payloads with bad knobs, a
    chain gadget past the cap, and three lines of invalid UTF-8 or a
    surrogate escape alongside the 8: each gets exactly one error response
    that is itself valid JSON, its next line is still answered, and the
    other clients' bytes are unaffected;
  * graceful drain — SIGTERM makes the server answer everything already
    received, flush, close cleanly, and exit 0.

Self-contained on purpose: it generates its own request stream and its
own stdin-mode reference, so the release and sanitizer CI jobs can run
the same file against different build trees.
"""

import json
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

REQUESTS = [
    '{"kind": "analyze-safety", "gadget": "bad"}',
    '{"kind": "ground-truth", "gadget": "bad-chain-8"}',
    '',  # blank: skipped without a response, but counted for line numbers
    '{"kind": "simulate", "gadget": "good", "seed": 7}',
    '{"kind": "repair", "gadget": "bad"}',
    '{"kind": "simulate", "gadget": "bad", "seed": 7, "scenario": "staged"}',
    '{"kind": "stats"}',
    '{"kind": "ground-truth", "gadget": "disagree", "mode": "enumerate"}',
    '{"kind": "this-is-not-a-kind"}',  # answered in-band, with a line number
    '{"kind": "emulate", "gadget": "good", "seed": 7}',
]
STREAM = "".join(line + "\n" for line in REQUESTS).encode()

HOSTILE = [
    b"[" * 30000,  # would overflow a recursive parser's stack
    b'{"kind": "ground-truth", "gadget": "bad", "gadget": "good"}',
    # bad `random` knobs: rejected before generation, never wrapped
    b'{"kind": "ground-truth", "random": {"seed": 1, "min_nodes": 9, "max_nodes": 3}}',
    b'{"kind": "ground-truth", "random": {"seed": 1, "max_nodes": 5000000000}}',
    b'{"kind": "ground-truth", "random": {"seed": 1, "paths_per_node": 65}}',
    b'{"kind": "ground-truth", "random": {"seed": 1, "max_path_length": 257}}',
    # a chain gadget past the cap: rejected before it is built
    b'{"kind": "analyze-safety", "gadget": "bad-chain-65536"}',
    # invalid UTF-8 inside a string, a stray byte outside one, and a lone
    # surrogate escape: never echoed back raw
    b'{"kind": "ground-truth", "gadget": "bad\xff\xfe"}',
    b'\xff{"kind": "ground-truth", "gadget": "good"}',
    b'{"kind": "ground-truth", "gadget": "\\ud800"}',
    b'{"kind": "ground-truth", "gadget": "good"}',  # still answered
]
HOSTILE_STREAM = b"".join(line + b"\n" for line in HOSTILE)
HOSTILE_ERRORS = [
    b'"error": "line 1: json: nesting deeper than 64 levels at byte 64"',
    b'"error": "line 2: json: duplicate object key \'gadget\' at byte 50"',
    b'"error": "line 3: min_nodes must be <= max_nodes"',
    b'"error": "line 4: max_nodes must be <= 256"',
    b'"error": "line 5: paths_per_node must be <= 64"',
    b'"error": "line 6: max_path_length must be <= 256"',
    b'"error": "line 7: gadget \'bad-chain-65536\' is too large: a chain has '
    b'at most 256 gadgets"',
    b'"error": "line 8: json: invalid UTF-8 in string at byte 39"',
    b'"error": "line 9: json: unexpected character 0xff at byte 0"',
    b'"error": "line 10: json: \\\\u escape names a UTF-16 surrogate at '
    b'byte 42"',
]


def deterministic(payload: bytes) -> bytes:
    """Drops the stats lines — live execution state, the documented
    exception to byte-reproducibility."""
    return b"".join(
        line + b"\n"
        for line in payload.splitlines()
        if b'"kind": "stats"' not in line and b'"kind": "debug"' not in line
    )


def stdin_reference(binary: str) -> bytes:
    # Exit status 1 is expected: the stream contains an in-band error line.
    result = subprocess.run(
        [binary], input=STREAM, stdout=subprocess.PIPE, check=False
    )
    assert result.returncode == 1, result.returncode
    reference = deterministic(result.stdout)
    assert b'"id": 0' in reference and b'"id": 8' in reference, reference
    assert b"line 9: " in reference, reference  # the in-band error line
    return reference


def launch(binary: str, shards: int, unix_path: str):
    server = subprocess.Popen(
        [binary, "--listen", "127.0.0.1:0", "--unix", unix_path,
         "--shards", str(shards)],
        stderr=subprocess.PIPE,
    )
    port = None
    deadline = time.time() + 30
    while time.time() < deadline:
        line = server.stderr.readline().decode()
        assert line, "server exited before announcing its listeners"
        sys.stderr.write(line)
        if line.startswith("fsr_serve: listening on 127.0.0.1:"):
            port = int(line.rsplit(":", 1)[1])
        if line.startswith("fsr_serve: listening on unix:"):
            break
    assert port, "no TCP announce within 30s"
    return server, port


def connect(port: int, unix_path: str, use_unix: bool) -> socket.socket:
    if use_unix:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(unix_path)
    else:
        sock = socket.create_connection(("127.0.0.1", port))
    sock.settimeout(60)
    return sock


def client(port: int, unix_path: str, index: int, replies: list,
           stream: bytes = STREAM):
    sock = connect(port, unix_path, use_unix=index % 2 == 1)
    # Odd clients dribble the stream in small pieces: framing must
    # reassemble arbitrary chunk boundaries into the same bytes.
    if index % 2 == 1:
        for start in range(0, len(stream), 7):
            sock.sendall(stream[start : start + 7])
    else:
        sock.sendall(stream)
    sock.shutdown(socket.SHUT_WR)
    data = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        data += chunk
    sock.close()
    replies[index] = data


def check_hostile(payload: bytes):
    """One response per hostile line, each the expected in-band error and
    valid JSON, and the line after them answered normally."""
    lines = payload.splitlines()
    assert len(lines) == len(HOSTILE), lines
    for line in lines:
        json.loads(line.decode("utf-8"))
    for line, error in zip(lines, HOSTILE_ERRORS):
        assert error in line, line
    assert b'"ground_truth": {"decided": true' in lines[-1], lines[-1]


def drain_check(binary: str, unix_path: str):
    """SIGTERM with a client mid-connection: the received line is still
    answered, the close is clean, and the exit status is 0."""
    server, port = launch(binary, shards=4, unix_path=unix_path)
    sock = connect(port, unix_path, use_unix=False)
    sock.sendall(b'{"kind": "analyze-safety", "gadget": "good"}\n')
    first = b""
    while not first.endswith(b"\n"):  # proves the line was answered
        first += sock.recv(1)
    assert b'"id": 0' in first, first

    server.send_signal(signal.SIGTERM)
    rest = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        rest += chunk
    sock.close()
    assert rest == b"", rest  # clean EOF, no stray bytes after the answer
    assert server.wait(timeout=60) == 0, server.returncode
    print("smoke ok: SIGTERM drain answered the in-flight line, exit 0")


def main() -> int:
    binary = sys.argv[1]
    reference = stdin_reference(binary)
    clients = 8

    with tempfile.TemporaryDirectory() as tmp:
        unix_path = tmp + "/fsr-serve-smoke.sock"
        for shards in (1, 8):
            server, port = launch(binary, shards, unix_path)
            replies = [None] * (clients + 1)
            threads = [
                threading.Thread(
                    target=client, args=(port, unix_path, i, replies)
                )
                for i in range(clients)
            ]
            threads.append(
                threading.Thread(
                    target=client,
                    args=(port, unix_path, clients, replies, HOSTILE_STREAM),
                )
            )
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            hostile = replies.pop()
            assert hostile is not None, "hostile client got no reply"
            check_hostile(hostile)
            for i, payload in enumerate(replies):
                assert payload is not None, f"client {i} got no reply"
                actual = deterministic(payload)
                assert actual == reference, (
                    f"client {i} (shards {shards}) drifted from stdin bytes:\n"
                    f"{actual!r}\nvs\n{reference!r}"
                )
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=60) == 0, server.returncode
            print(
                f"smoke ok: {clients} clients x shards={shards}: TCP and "
                "Unix responses byte-identical to stdin mode; hostile "
                "lines answered in-band"
            )
        drain_check(binary, unix_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
