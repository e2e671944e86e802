"""Banked DRAM timing model (the detailed substrate behind ``dram.py``).

The paper integrates Ramulator for DRAM latency. The stream-level model in
:mod:`repro.hw.dram` assumes the accelerator's traffic achieves near-peak
bandwidth; this module justifies that assumption with a bank/row-buffer
timing model: sequential weight/activation bursts hit open rows almost
always, while random access patterns collapse to a fraction of peak. Tests
and a bench quantify the gap.

Timing parameters follow LPDDR5/GDDR6 datasheet classes (tRCD / tRP / tCL
in nanoseconds, per-bank row buffers, interleaved banks).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DRAMTimings:
    """Core timing/geometry parameters of one DRAM device class.

    ``io_gbps`` is the *per-channel* interface rate; high-bandwidth
    memory systems aggregate many channels (``channels``), each with its
    own banks and row buffers.
    """

    name: str
    banks: int
    row_bytes: int
    burst_bytes: int
    io_gbps: float  # per-channel interface bandwidth
    t_rcd_ns: float  # activate -> column command
    t_rp_ns: float  # precharge
    t_cl_ns: float  # column access latency
    channels: int = 1

    def __post_init__(self) -> None:
        if self.banks <= 0 or self.row_bytes <= 0 or self.burst_bytes <= 0:
            raise ValueError("geometry must be positive")
        if self.burst_bytes > self.row_bytes:
            raise ValueError("burst cannot exceed a row")
        if self.channels <= 0:
            raise ValueError("channels must be positive")

    @property
    def burst_transfer_ns(self) -> float:
        """Data-transfer time of one burst at the per-channel IO rate."""
        return self.burst_bytes / self.io_gbps


LPDDR5_TIMINGS = DRAMTimings(
    name="LPDDR5",
    banks=16,
    row_bytes=2048,
    burst_bytes=64,
    io_gbps=51.0,
    t_rcd_ns=18.0,
    t_rp_ns=18.0,
    t_cl_ns=17.0,
)

#: GDDR6 system of the EXION24 setting: 13 channels x 63 GB/s = 819 GB/s.
GDDR6_TIMINGS = DRAMTimings(
    name="GDDR6",
    banks=32,
    row_bytes=2048,
    burst_bytes=64,
    io_gbps=63.0,
    t_rcd_ns=14.0,
    t_rp_ns=14.0,
    t_cl_ns=14.0,
    channels=13,
)


@dataclass
class BankState:
    open_row: int = -1  # -1 = precharged


@dataclass
class AccessStats:
    row_hits: int = 0
    row_misses: int = 0
    bursts: int = 0
    busy_ns: float = 0.0

    @property
    def hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0


class BankedDRAM:
    """Open-row banked DRAM with per-burst timing.

    Address mapping interleaves consecutive bursts across banks (the usual
    accelerator-friendly mapping): sequential streams keep every bank's row
    open; random access thrashes the row buffers.
    """

    def __init__(self, timings: DRAMTimings) -> None:
        self.timings = timings
        self.banks = [BankState() for _ in range(timings.banks)]
        self.stats = AccessStats()

    def _locate(self, address: int) -> tuple:
        t = self.timings
        burst_index = address // t.burst_bytes
        bank = burst_index % t.banks
        row = (burst_index // t.banks) * t.burst_bytes // t.row_bytes
        return bank, row

    def access_burst(self, address: int) -> float:
        """Time one burst access; returns its latency in nanoseconds."""
        if address < 0:
            raise ValueError("address must be non-negative")
        t = self.timings
        bank, row = self._locate(address)
        state = self.banks[bank]
        latency = t.t_cl_ns + t.burst_transfer_ns
        if state.open_row == row:
            self.stats.row_hits += 1
        else:
            self.stats.row_misses += 1
            if state.open_row != -1:
                latency += t.t_rp_ns  # precharge the old row
            latency += t.t_rcd_ns  # activate the new row
            state.open_row = row
        self.stats.bursts += 1
        self.stats.busy_ns += latency
        return latency

    # ------------------------------------------------------------------
    # traffic patterns
    # ------------------------------------------------------------------
    def stream(self, num_bytes: int) -> float:
        """Sequential read of ``num_bytes`` from address 0; returns seconds.

        Bank interleaving overlaps activates with transfers: the modelled
        stream time is data transfer plus the (rare) row-miss overhead
        amortized across banks.
        """
        t = self.timings
        bursts = -(-num_bytes // t.burst_bytes)
        transfer_ns = 0.0
        overhead_ns = 0.0
        for i in range(bursts):
            bank, row = self._locate(i * t.burst_bytes)
            state = self.banks[bank]
            if state.open_row == row:
                self.stats.row_hits += 1
            else:
                self.stats.row_misses += 1
                overhead_ns += t.t_rcd_ns + (
                    t.t_rp_ns if state.open_row != -1 else 0.0
                )
                state.open_row = row
            transfer_ns += t.burst_transfer_ns
            self.stats.bursts += 1
        # With N banks, up to N activates hide behind transfers.
        hidden = min(overhead_ns, transfer_ns * (1.0 - 1.0 / t.banks))
        total_ns = transfer_ns + (overhead_ns - hidden) + t.t_cl_ns
        self.stats.busy_ns += total_ns
        return total_ns * 1e-9

    def random_access(self, addresses: list) -> float:
        """Serial random bursts; returns seconds (no overlap credit)."""
        total_ns = sum(self.access_burst(a) for a in addresses)
        return total_ns * 1e-9

    def effective_bandwidth_gbps(self, num_bytes: int, seconds: float) -> float:
        if seconds <= 0:
            return 0.0
        return num_bytes / seconds / 1e9


def validate_stream_assumption(
    timings: DRAMTimings, megabytes: int = 4
) -> dict:
    """Quantify sequential vs random effective bandwidth for one device.

    Returns a dict with ``sequential_gbps``, ``random_gbps`` and
    ``sequential_fraction_of_peak`` — the justification for the
    stream-level model the accelerator simulation uses.
    """
    # Channels stream independent shards; model one channel's share.
    num_bytes = megabytes * 1024 * 1024 // timings.channels
    seq = BankedDRAM(timings)
    seq_seconds = seq.stream(num_bytes)
    rng_dram = BankedDRAM(timings)
    # Strided pattern defeating the row buffer: jump a row every burst.
    stride = timings.row_bytes * timings.banks + timings.burst_bytes
    count = num_bytes // timings.burst_bytes // 64
    addresses = [(i * stride) % (1 << 30) for i in range(count)]
    random_seconds = rng_dram.random_access(addresses)
    random_bytes = count * timings.burst_bytes
    return {
        "sequential_gbps": seq.effective_bandwidth_gbps(num_bytes, seq_seconds),
        "random_gbps": rng_dram.effective_bandwidth_gbps(
            random_bytes, random_seconds
        ),
        "sequential_fraction_of_peak": (
            seq.effective_bandwidth_gbps(num_bytes, seq_seconds)
            / timings.io_gbps  # per-channel fraction
        ),
        "sequential_hit_rate": seq.stats.hit_rate,
    }
