"""Node departures for the simulated DSM: the role-handoff core and
fail-stop crash recovery.

See ``docs/robustness.md`` for the shared departure lifecycle, the crash
model, the logging protocol, the log GC watermark and the lock-rebuild
rules.
"""

from repro.recovery.handoff import RoleHandoff, elect_backup
from repro.recovery.manager import RecoveryManager

__all__ = ["RecoveryManager", "RoleHandoff", "elect_backup"]
