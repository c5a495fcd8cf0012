"""``glicci-cert/1`` documents, as the builders wrote them before
``glicci-cert/2``: every step in full and the horizon the root derives.
``verify`` still reads them, so the tests rebuild them from a built
certificate.
"""
from liaison.hilbert import horizon
from liaison.linkage import _encode


def cert1_document(cert) -> dict:
    """The ``glicci-cert/1`` document of the built certificate ``cert``:
    each step by ``_encode``, and ``dmax`` from ``hilbert.horizon`` with
    k = the root's variables, in the variables of a chain step 0's matrix."""
    root = cert.root
    N = root.n if cert.matrix is None else cert.matrix.N
    return {"dmax": horizon(root, root.n, N), "leaf": cert.leaf, "mode": cert.mode,
            "prime": cert.prime, "root": _encode(root), "schema": "glicci-cert/1",
            "steps": [_encode(step) for step in cert.steps]}
