"""One entry path in a fresh interpreter, reporting what it imported.

``python import_closure_child.py MODE SPEC STORE`` runs one of the
paths ``tests/test_import_closure.py`` pins and prints, as its last
line of output, a JSON object of module-name lists read from
``sys.modules``.  Not a test module: pytest does not collect it.
"""

import json
import sys


def snapshot() -> list:
    return sorted(sys.modules)


def bare(spec, store) -> dict:
    import repro  # noqa: F401 - the import is what is measured

    return {"loaded": snapshot()}


def warm(spec, store) -> dict:
    """A warm open, as ``bench/children.py`` and ``--store`` do it."""
    from repro.api import RunSpec
    from repro.ingest import IndexStore

    session = IndexStore(store).load(RunSpec.load(spec))
    assert session is not None and len(session.ods) == 4
    return {"loaded": snapshot()}


def batch(spec, store) -> dict:
    """A cold serial batch run: steps 1-6 from files."""
    from repro.api import RunSpec

    session = RunSpec.load(spec).build_session()
    assert len(session.detect().clusters) == 1
    return {"loaded": snapshot()}


def match(spec, store) -> dict:
    """``python -m repro.cli match --store``: a warm lookup."""
    from repro.cli import main

    assert main(["match", "--spec", spec, "--store", store, "--object-id", "0"]) == 0
    return {"loaded": snapshot()}


def serve(spec, store) -> dict:
    """``python -m repro.cli serve``: the daemon as the command builds it,
    then every route twice over one kept-alive connection.  ``started``
    is taken before the client side (``http.client``) is imported."""
    import threading

    import repro.cli  # noqa: F401 - the command's own imports count
    from repro.api.spec import RunSpec
    from repro.serve.daemon import DetectionServer

    posted_spec = RunSpec.load(spec).to_json()  # absolute paths
    server = DetectionServer(("127.0.0.1", 0), store, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    started = snapshot()
    import http.client

    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    record = "<db><cd><artist>Nina Simone</artist><title>Pastel Blue</title></cd></db>"

    def call(method: str, path: str, body=None) -> dict:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        answer = json.loads(response.read())
        assert response.status == 200, (path, answer)
        return answer

    def every_route() -> None:
        digest = call("POST", "/corpora", posted_spec)["digest"]
        call("GET", "/healthz")
        call("GET", "/corpora")
        call("GET", f"/corpora/{digest}/match?object_id=0")
        call("POST", f"/corpora/{digest}/match", record)
        call("POST", f"/corpora/{digest}/detect")
        call("POST", f"/corpora/{digest}/extend", record)

    try:
        every_route()
        first = snapshot()
        every_route()
        second = snapshot()
    finally:
        connection.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    return {"started": started, "first": first, "second": second}


if __name__ == "__main__":
    print(json.dumps(globals()[sys.argv[1]](sys.argv[2], sys.argv[3])))
