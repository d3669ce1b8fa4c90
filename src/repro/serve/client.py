"""Stdlib HTTP client for the ``repro.serve`` daemon.

:class:`ServeClient` wraps one keep-alive ``http.client`` connection —
cheap enough that the load harness gives every synthetic client thread
its own.  Protocol errors surface as :class:`~repro.errors.ServeError`
carrying the daemon's JSON error message and the HTTP status in
:attr:`ServeError.args`; transport errors raise the underlying OSError.

Also the implementation behind ``repro.cli client``::

    python -m repro.cli client http://127.0.0.1:8731 compile --app tiny
    python -m repro.cli client http://127.0.0.1:8731 stats
"""

from __future__ import annotations

import json
import sys
from http.client import HTTPConnection
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlparse

from repro.errors import ServeError


class ServeResponseError(ServeError):
    """A non-2xx daemon response (``status`` carries the HTTP code)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class ServeClient:
    """One keep-alive connection to a serve daemon."""

    def __init__(self, url: str, timeout: float = 60.0):
        parsed = urlparse(url if "//" in url else f"http://{url}")
        if parsed.scheme not in ("", "http") or not parsed.hostname:
            raise ServeError(f"unsupported daemon URL {url!r} (http only)")
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout = timeout
        self._conn: Optional[HTTPConnection] = None

    # -- transport ---------------------------------------------------------

    def _connection(self) -> HTTPConnection:
        if self._conn is None:
            self._conn = HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _request(
        self, method: str, path: str, body: Optional[Dict] = None
    ) -> Tuple[int, bytes, Dict[str, str]]:
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        conn = self._connection()
        try:
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (ConnectionError, BrokenPipeError):
            # Stale keep-alive (daemon restarted / connection dropped):
            # one clean reconnect, then surface the failure.
            self.close()
            conn = self._connection()
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        return response.status, raw, dict(response.getheaders())

    def _json_or_raise(self, status: int, raw: bytes) -> Dict:
        if status >= 400:
            try:
                message = json.loads(raw).get("error", raw.decode())
            except (json.JSONDecodeError, AttributeError):
                message = raw.decode(errors="replace")
            raise ServeResponseError(status, message)
        return json.loads(raw)

    # -- endpoints ---------------------------------------------------------

    def healthz(self) -> Dict:
        """``GET /healthz``."""
        status, raw, _ = self._request("GET", "/healthz")
        return self._json_or_raise(status, raw)

    def stats(self) -> Dict:
        """``GET /stats``."""
        status, raw, _ = self._request("GET", "/stats")
        return self._json_or_raise(status, raw)

    def compile_raw(self, request: Dict) -> Tuple[bytes, str]:
        """``POST /compile`` → (exact artifact bytes, cache status).

        The bytes are the daemon's response verbatim — this is the call
        the byte-identity checks use.
        """
        status, raw, headers = self._request("POST", "/compile", request)
        if status >= 400:
            self._json_or_raise(status, raw)
        return raw, headers.get("X-Cache", "")

    def compile(self, request: Dict) -> Dict:
        """``POST /compile`` → parsed artifact dict."""
        raw, _ = self.compile_raw(request)
        return json.loads(raw)

    def batch(self, requests: List[Dict]) -> Dict:
        """``POST /batch`` → ``{"cache": [...], "results": [...]}``."""
        status, raw, _ = self._request(
            "POST", "/batch", {"requests": requests}
        )
        return self._json_or_raise(status, raw)

    def shutdown(self) -> Dict:
        """``POST /shutdown`` — ask the daemon to drain and exit."""
        status, raw, _ = self._request("POST", "/shutdown")
        return self._json_or_raise(status, raw)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point behind ``repro.cli client``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro client", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("url", help="daemon base URL, e.g. http://127.0.0.1:8731")
    sub = parser.add_subparsers(dest="action", required=True)

    compile_cmd = sub.add_parser("compile", help="send one compile request")
    compile_cmd.add_argument(
        "--app", default="tiny", help="workload name or 'tiny'"
    )
    compile_cmd.add_argument("--scale", type=int, default=1)
    compile_cmd.add_argument("--seed", type=int, default=0)
    compile_cmd.add_argument(
        "--predictor", choices=["trace", "analytic"], default="trace"
    )
    compile_cmd.add_argument(
        "--skip-pass", action="append", default=[], metavar="NAME"
    )
    compile_cmd.add_argument(
        "--request", default="", metavar="FILE",
        help="read the full request JSON from FILE instead of flags",
    )
    sub.add_parser("stats", help="print daemon counters")
    sub.add_parser("health", help="print daemon health")
    sub.add_parser("shutdown", help="drain and stop the daemon")

    args = parser.parse_args(argv)
    client = ServeClient(args.url)
    try:
        if args.action == "compile":
            if args.request:
                with open(args.request) as fh:
                    request = json.load(fh)
            else:
                request = {
                    "app": args.app,
                    "scale": args.scale,
                    "seed": args.seed,
                    "predictor": args.predictor,
                    "skip_passes": args.skip_pass,
                }
            raw, cache = client.compile_raw(request)
            artifact = json.loads(raw)
            print(f"cache: {cache or 'n/a'}")
            print(f"fingerprint: {artifact['fingerprint']}")
            print(f"movement: {artifact['movement']}")
            print(f"window sizes: {artifact['plan']['window_sizes']}")
        elif args.action == "stats":
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
        elif args.action == "health":
            print(json.dumps(client.healthz(), indent=2, sort_keys=True))
        else:
            print(json.dumps(client.shutdown(), indent=2, sort_keys=True))
    except ServeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(
            f"error: cannot reach daemon at {args.url}: {error}",
            file=sys.stderr,
        )
        return 2
    finally:
        client.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
