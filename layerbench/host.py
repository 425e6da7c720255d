"""Host facts for the run record: fingerprint, per-sample load and
steal, and the peak resident memory of one Ray session.

Every value here is recorded next to the timings; none of them is
used to correct a timing.
"""

from __future__ import annotations

import os
import platform
import subprocess


def fingerprint() -> dict:
    """Cores from sched_getaffinity next to nproc (nproc honours
    OMP_NUM_THREADS and can report 1 on a 4-core host), RAM and the
    versions the numbers depend on."""
    import pyarrow
    import ray
    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True,
                                   timeout=10).stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        nproc = None
    return {
        "cores_affinity": len(os.sched_getaffinity(0)),
        "nproc": nproc,
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "ram_gb": round(_meminfo_kb("MemTotal") / 2**20, 2),
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "kernel": platform.release(),
    }


def _meminfo_kb(key: str) -> int:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(key)


def load1() -> float:
    return os.getloadavg()[0]


def cpu_jiffies() -> tuple[int, int]:
    """(steal, total) jiffies of the aggregate cpu line of /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of all CPU time stolen by the hypervisor between two
    cpu_jiffies() readings."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


#: environment variable run.py sets for the measuring process; Ray's
#: GCS, raylet and workers inherit it, while their command lines do not
#: name the session (workers retitle themselves ray::IDLE, ray::<task>)
MARKER_ENV = "LAYERBENCH_RUN"


def pids_with_marker(marker: str) -> list[int]:
    """Pids, other than this one, whose environment has MARKER_ENV set
    to a value starting with `marker`."""
    out = []
    me = os.getpid()
    needle = f"{MARKER_ENV}={marker}".encode()
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == me:
            continue
        try:
            with open(f"/proc/{name}/environ", "rb") as f:
                env = f.read()
        except OSError:
            continue
        if any(v.startswith(needle) for v in env.split(b"\0")):
            out.append(int(name))
    return out


def vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def cpu_s(pid: int) -> float:
    """User + system CPU seconds of `pid` so far (0 once it is gone).
    The kernel leaves hypervisor steal out of it."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def session_cpu_s(marker: str) -> float:
    """CPU seconds so far of this process and the session's processes."""
    return cpu_s(os.getpid()) + sum(cpu_s(p) for p in pids_with_marker(marker))


def reset_hwm(pid: int) -> None:
    """Reset VmHWM of `pid` to its current resident size."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def session_hwm_kb(marker: str) -> int:
    """Sum of VmHWM over the Ray session's processes."""
    return sum(vm_hwm_kb(p) for p in pids_with_marker(marker))


def reset_session_hwm(marker: str) -> None:
    for p in pids_with_marker(marker):
        reset_hwm(p)
