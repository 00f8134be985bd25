"""Execution-time estimation of a compiled kernel on a GPU.

The model combines three classical components:

* **occupancy** — resident warps per SM limited by the register file and the
  compiler's parallel efficiency,
* **throughput bounds** — a roofline over the FP64 pipes and the DRAM
  bandwidth,
* **latency bound** — the exposed global-memory latency per iteration,
  which shrinks with more outstanding loads per thread (memory-level
  parallelism, improved by bulk load) and with more resident warps
  (occupancy, reduced by register pressure).

The per-iteration cycle estimate is
``max(compute, bandwidth, latency) + spills``; the kernel time multiplies
by the iteration count divided over the SMs and adds the launch overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim.gpu import GPUConfig
from repro.gpusim.kernelmodel import CompiledKernel

__all__ = ["LaunchConfig", "KernelPerformance", "simulate_kernel"]


@dataclass(frozen=True)
class LaunchConfig:
    """How a kernel is launched by the benchmark."""

    #: Total loop iterations executed per kernel launch (grid * block work).
    iterations_per_launch: float = 1.0e6
    #: Number of launches of this kernel during the benchmark run.
    launches: int = 1
    #: Threads per block the compiler/launcher picks.
    threads_per_block: int = 128
    #: Fraction of iterations that are actually parallel work (1.0 normally;
    #: lower when the benchmark serialises, e.g. pbt's single-thread-block
    #: nested loops, §VIII).
    parallel_fraction: float = 1.0


@dataclass
class KernelPerformance:
    """Modelled performance of one kernel variant on one GPU."""

    name: str
    gpu: str
    compiler: str
    #: Total time for all launches, in seconds.
    time_s: float
    #: Time per launch, in milliseconds (Table IV's first column).
    time_per_launch_ms: float
    #: Executed instructions per launch (Table IV, ×10^6).
    instructions_per_launch: float
    #: Memory-bandwidth utilisation (0..1, Table IV's "memory" column).
    memory_utilization: float
    #: Registers per thread (Table IV).
    registers: int
    #: SM occupancy (0..1, Table IV).
    occupancy: float
    #: Which bound dominated: "compute", "bandwidth" or "latency".
    bound: str
    #: Achieved DRAM throughput in GB/s.
    dram_gbps: float


def simulate_kernel(
    kernel: CompiledKernel,
    gpu: GPUConfig,
    launch: LaunchConfig,
) -> KernelPerformance:
    """Estimate the execution time of *kernel* on *gpu* under *launch*."""

    compiler = kernel.compiler

    # ------------------------------------------------------------------
    # Occupancy
    # ------------------------------------------------------------------
    regs_per_warp = kernel.registers * gpu.warp_size
    warps_by_registers = gpu.registers_per_sm / max(regs_per_warp, 1.0)
    warps_by_threads = gpu.max_warps_per_sm
    resident_warps = min(warps_by_registers, warps_by_threads)
    resident_warps *= kernel.parallel_efficiency * launch.parallel_fraction
    resident_warps = max(1.0, min(resident_warps, float(gpu.max_warps_per_sm)))
    occupancy = resident_warps / gpu.max_warps_per_sm

    # ------------------------------------------------------------------
    # Per-warp, per-iteration cycle components
    # ------------------------------------------------------------------
    # compute: FP64 pipe issues one warp-wide FP op per cycle per SM quadrant
    fp_instr = kernel.fp_ops + kernel.fmas
    div_cycles = kernel.divs * 12.0 + kernel.calls * 24.0
    int_cycles = kernel.int_ops * 0.5
    compute_cycles_per_warp = fp_instr + int_cycles + div_cycles

    # Total iterations mapped to this GPU.
    total_iterations = launch.iterations_per_launch
    warp_iterations_per_sm = total_iterations / (gpu.num_sms * gpu.warp_size)

    # compute bound (per SM): all resident warps share the FP64 pipes
    compute_cycles = warp_iterations_per_sm * compute_cycles_per_warp * (
        gpu.warp_size / gpu.fp64_flops_per_cycle_per_sm
    )

    # memory bound (per SM), via Little's law: the DRAM throughput an SM can
    # sustain is limited both by its share of the peak bandwidth and by the
    # bytes it can keep in flight (resident warps x per-thread MLP x warp
    # width x 8 B) divided by the access latency.  Bulk load raises the MLP
    # term; register pressure lowers the resident-warp term — this is the
    # occupancy/latency trade-off of the paper's Table IV.
    outstanding_bytes = resident_warps * kernel.mlp * gpu.warp_size * 8.0
    latency_limited_bw = outstanding_bytes / gpu.mem_latency_cycles
    achieved_bw = min(gpu.bytes_per_cycle_per_sm, latency_limited_bw)
    bytes_per_warp_iter = kernel.dram_bytes * gpu.warp_size
    if bytes_per_warp_iter > 0:
        memory_cycles = warp_iterations_per_sm * bytes_per_warp_iter / max(achieved_bw, 1e-9)
    else:
        memory_cycles = 0.0

    cycles_per_sm = max(compute_cycles, memory_cycles)
    if cycles_per_sm == compute_cycles and compute_cycles >= memory_cycles:
        bound = "compute"
    elif achieved_bw >= gpu.bytes_per_cycle_per_sm * 0.95:
        bound = "bandwidth"
    else:
        bound = "latency"

    # spill traffic adds on top of whichever bound dominates (spills mostly
    # hit L1/L2 but still cost issue slots and some latency)
    spill_cycles = (
        warp_iterations_per_sm
        * kernel.spills
        * gpu.l2_latency_cycles
        * (1.0 - gpu.l1_hit_ratio)
        / max(resident_warps, 1.0)
    )
    cycles_per_sm += spill_cycles

    seconds_per_launch = cycles_per_sm / (gpu.clock_ghz * 1e9)
    seconds_per_launch += compiler.launch_overhead_us * 1e-6
    total_seconds = seconds_per_launch * launch.launches

    # ------------------------------------------------------------------
    # Derived metrics (Table IV columns)
    # ------------------------------------------------------------------
    dram_bytes_total = kernel.dram_bytes * total_iterations
    dram_gbps = dram_bytes_total / max(seconds_per_launch, 1e-12) / 1e9
    memory_utilization = min(1.0, dram_gbps / gpu.mem_bandwidth_gbps)
    instructions_per_launch = kernel.instructions * total_iterations

    return KernelPerformance(
        name=kernel.name,
        gpu=gpu.name,
        compiler=f"{compiler.name}/{compiler.programming_model}",
        time_s=total_seconds,
        time_per_launch_ms=seconds_per_launch * 1e3,
        instructions_per_launch=instructions_per_launch,
        memory_utilization=memory_utilization,
        registers=int(round(kernel.registers)),
        occupancy=occupancy,
        bound=bound,
        dram_gbps=dram_gbps,
    )
