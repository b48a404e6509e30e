"""Counting-as-a-service: the HTTP serving layer (stdlib only).

The package turns the unified counting façade into a long-lived service:
:class:`CountingServer` answers ``POST /count`` with a content-addressed
result cache (:class:`ResultCache`) so repeated questions run zero trials,
and bounded admission
(:class:`BoundedRequestQueue`) that answers ``429 Retry-After`` instead of
piling work up.  Start one from Python::

    from repro.serve import CountingServer
    with CountingServer(port=0) as server:      # port 0 -> pick a free port
        print(server.url)                        # e.g. http://127.0.0.1:43511
        ...

or from the CLI: ``repro serve --port 8080``.  See
:mod:`repro.serve.server` for the endpoint contract.
"""

from repro.serve.cache import ResultCache
from repro.serve.queue import BoundedRequestQueue
from repro.serve.server import CountingServer

__all__ = ["CountingServer", "ResultCache", "BoundedRequestQueue"]
