"""``python -m benchmarks.e2e`` is ``python3 benchmarks/e2e/run.py``."""

from .run import main

raise SystemExit(main())
