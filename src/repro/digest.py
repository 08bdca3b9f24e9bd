"""SHA-256 from CPython's built-in module, which maps no OpenSSL: ``hashlib``
loads ``_hashlib`` and with it libcrypto (~3.5 MB). Same digests either way."""
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # an interpreter built without its own SHA-256
        from hashlib import sha256
Sha256 = type(sha256())  # the hash object's type, for annotations
