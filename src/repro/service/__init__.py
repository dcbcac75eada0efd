"""Concurrent what-if service: HTTP server, client, wire formats.

The serving half of the service subsystem (the persistence half is
:mod:`repro.store`), three modules that each own one decision:
:mod:`.cache` (``ResultCache`` — how an answer is keyed and when an
append invalidates it), :mod:`.core` (``WhatIfService`` — stored
histories and the staged ``answer``) and :mod:`.server`
(``WhatIfServer`` — a stdlib ``ThreadingHTTPServer`` and its route
table).  See DESIGN.md, "Service architecture" and the CLI's ``serve``
command.
"""

from .client import ServiceClient, ServiceClientError
from .core import WhatIfService
from .resilience import (
    AdmissionController,
    Deadline,
    DeadlineExceeded,
    Overloaded,
    ResilienceConfig,
    ServiceError,
    backoff_delay,
)
from .server import WhatIfServer
from .wire import (
    METHODS,
    SpecError,
    delta_payload,
    modifications_from_spec,
    result_payload,
)

__all__ = [
    "METHODS",
    "AdmissionController",
    "Deadline",
    "DeadlineExceeded",
    "Overloaded",
    "ResilienceConfig",
    "ServiceClient",
    "ServiceClientError",
    "ServiceError",
    "SpecError",
    "WhatIfServer",
    "WhatIfService",
    "backoff_delay",
    "delta_payload",
    "modifications_from_spec",
    "result_payload",
]
