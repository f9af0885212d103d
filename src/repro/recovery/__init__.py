"""Crash recovery for the simulated DSM (fail-stop node crashes).

See ``docs/robustness.md`` for the crash model, the logging protocol,
the log GC watermark and the manager-failover rules.
"""

from repro.recovery.manager import (RecoveryManager, RequestParking,
                                    elect_backup)

__all__ = ["RecoveryManager", "RequestParking", "elect_backup"]
