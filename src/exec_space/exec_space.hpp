#pragma once
/// \file exec_space.hpp
/// \brief dgr::exec_space — the unified execution-space layer.
///
/// One kernel body per sweep, instantiated per backend. An ExecSpace is a
/// cheap value describing *where* a data-parallel sweep runs; the sweep
/// itself is written once against range_for / team_for / reduce and never
/// names a backend. Three backends exist:
///
///   backend   | execution engine            | instrumentation
///   ----------+-----------------------------+---------------------------
///   kSerial   | caller thread, chunk order  | OpCounts slots only
///   kPool     | src/exec work-stealing pool | OpCounts slots + worker
///             | (exec::for_each_chunk)      | trace spans (spec.label)
///   kSimGpu   | simgpu GpuRuntime::         | OpCounts slots + kernel
///             | launch_range                | records, modeled time,
///             |                             | ScopedSpan, gpu.* metrics
///
/// Determinism is enforced here, in exactly one place: every backend
/// partitions [0, n) into the same fixed grain-based chunks (a function of
/// the problem only — see exec/parallel.hpp), per-chunk OpCounts land in
/// slots indexed by chunk, and slots are merged in chunk order. reduce()
/// combines per-chunk values in the same fixed pairwise tree as
/// exec::parallel_reduce. Consequently every sweep is bitwise identical
/// across backends, thread counts, and scheduling — the contract pinned by
/// tests/test_exec_space.cpp's backend-equivalence matrix.
///
/// Per-chunk OpCounts slots for the host backends come from a ScratchArena
/// (zero steady-state heap allocations, like launch_range's); the simgpu
/// backend delegates to GpuRuntime::launch_range, which owns its arena,
/// kernel records, and ScopedSpan/flight-recorder instrumentation.
///
/// The DGR_EXEC_SPACE environment knob (strict: serial|pool|simgpu)
/// overrides the backend returned by ExecSpace::host(), which every host
/// solver path uses by default — the lever the CI determinism matrix pulls
/// to prove backend equivalence end to end.

#include <cstdint>
#include <vector>

#include "common/counters.hpp"
#include "exec/parallel.hpp"
#include "exec/pool.hpp"
#include "simgpu/runtime.hpp"

namespace dgr::exec_space {

enum class Backend { kSerial = 0, kPool = 1, kSimGpu = 2 };

const char* backend_name(Backend b);

/// Strict backend keyword parse (serial|pool|simgpu); anything else throws
/// dgr::Error naming `what`.
Backend parse_backend(const char* s, const char* what);

/// The DGR_EXEC_SPACE override, read strictly on every call (unset =
/// kPool). Garbage throws instead of silently running on the default.
Backend backend_from_env();

/// backend_from_env(), read once and cached — the backend ExecSpace::host()
/// binds for the rest of the process.
Backend default_backend();

/// Patch-block element offset of (octant-in-chunk o, variable v) with nvar
/// variables of npts points each: [o][v][p], x fastest — the layout
/// mesh::unzip/zip produce and consume. Shared by every current backend
/// (the simulated device executes on the host).
constexpr std::size_t patch_offset(std::int64_t o, int v, std::size_t nvar,
                                   std::size_t npts) {
  return (static_cast<std::size_t>(o) * nvar + static_cast<std::size_t>(v)) *
         npts;
}

/// Identity of one launch: the simgpu kernel-record name plus the host
/// trace label (worker spans), with the block/stream accounting the device
/// model prices. Host backends ignore blocks/stream.
struct LaunchSpec {
  const char* name = "kernel";  ///< simgpu kernel-record name
  const char* label = nullptr;  ///< host worker-span label (null = no span)
  std::uint64_t blocks = 0;     ///< simgpu accounting only
  int stream = 0;               ///< simgpu stream (0 = sync pipeline)
};

/// Handle a team_for body receives: the executing lane (index for per-lane
/// scratch such as derivative workspaces).
class TeamMember {
 public:
  explicit TeamMember(int lane) : lane_(lane) {}
  /// Executing lane in [0, ExecSpace::max_lanes()): stable for the whole
  /// team (chunk), distinct across concurrently running teams.
  int lane() const { return lane_; }

 private:
  int lane_;
};

namespace detail {

/// Per-chunk OpCounts slots for the host backends, served from a
/// thread-local ScratchArena so a steady-state sweep loop performs zero
/// heap allocations; falls back to the heap when a kernel body (illegally
/// but survivably) nests another sweep on the same thread.
class HostSlots {
 public:
  explicit HostSlots(std::size_t n);
  ~HostSlots();
  HostSlots(const HostSlots&) = delete;
  HostSlots& operator=(const HostSlots&) = delete;
  OpCounts* data() { return data_; }

 private:
  OpCounts* data_;
  bool from_arena_;
  std::vector<OpCounts> fallback_;
};

}  // namespace detail

/// A backend handle: copyable, trivially cheap, safe to hold by value. The
/// simgpu flavor borrows its GpuRuntime (the runtime must outlive the
/// space).
class ExecSpace {
 public:
  /// Default: the work-stealing pool (the common host backend).
  ExecSpace() : ExecSpace(Backend::kPool, nullptr) {}

  static ExecSpace serial() { return ExecSpace(Backend::kSerial, nullptr); }
  static ExecSpace pool() { return ExecSpace(Backend::kPool, nullptr); }
  static ExecSpace simgpu(dgr::simgpu::GpuRuntime& rt) {
    return ExecSpace(Backend::kSimGpu, &rt);
  }
  /// The process-default host space, honoring the DGR_EXEC_SPACE override.
  /// Under DGR_EXEC_SPACE=simgpu each driver thread gets its own
  /// accounting GpuRuntime (launch bookkeeping is single-driver, and
  /// concurrent drivers — ensemble runners, dist ranks — must not share
  /// kernel records).
  static ExecSpace host();

  Backend backend() const { return backend_; }
  /// The backing runtime (non-null iff backend() == kSimGpu).
  dgr::simgpu::GpuRuntime* runtime() const { return rt_; }

  /// Sizing bound for per-lane scratch arrays indexed by TeamMember::lane.
  int max_lanes() const { return exec::lanes(); }

  /// Run body(chunk_begin, chunk_end, OpCounts&) over the fixed grain-based
  /// chunks of [0, n). Per-chunk counts land in slots indexed by chunk and
  /// are merged in chunk order into *counts (when non-null) — and, on the
  /// simgpu backend, into the named kernel's record and modeled time.
  /// Chunks must write disjoint outputs.
  template <class Body>
  void range_for(const LaunchSpec& spec, std::int64_t n, std::int64_t grain,
                 OpCounts* counts, Body&& body) const {
    if (backend_ == Backend::kSimGpu) {
      rt_->launch_range(spec.name, spec.blocks, spec.stream, n, grain, body,
                        counts);
      return;
    }
    if (grain < 1) grain = 1;
    const std::int64_t nc = exec::num_chunks(0, n, grain);
    if (nc == 0) return;
    detail::HostSlots slots(static_cast<std::size_t>(nc));
    OpCounts* sp = slots.data();
    if (backend_ == Backend::kSerial) {
      for (std::int64_t c = 0; c < nc; ++c)
        body(c * grain, std::min<std::int64_t>(n, (c + 1) * grain), sp[c]);
    } else {
      exec::for_each_chunk(
          0, n, grain,
          [&](std::int64_t c, std::int64_t b, std::int64_t e) {
            body(b, e, sp[c]);
          },
          spec.label);
    }
    if (counts)
      for (std::int64_t c = 0; c < nc; ++c) *counts += sp[c];
  }

  /// Hierarchical flavor: body(TeamMember&, chunk_begin, chunk_end,
  /// OpCounts&) — one team per chunk, with the executing lane delivered
  /// through the member handle.
  template <class Body>
  void team_for(const LaunchSpec& spec, std::int64_t n, std::int64_t grain,
                OpCounts* counts, Body&& body) const {
    range_for(spec, n, grain, counts,
              [&body](std::int64_t b, std::int64_t e, OpCounts& c) {
                TeamMember member(exec::this_lane());
                body(member, b, e, c);
              });
  }

  /// Deterministic reduction: body(chunk_begin, chunk_end) -> T per fixed
  /// chunk, combined by join in a fixed pairwise tree over the chunk slots
  /// — bitwise independent of backend and thread count. `identity` seeds
  /// empty ranges. On the simgpu backend the sweep is recorded as a kernel
  /// launch (bodies may charge no counts; pass a spec with blocks for the
  /// model).
  template <class T, class Body, class Join>
  T reduce(const LaunchSpec& spec, std::int64_t n, std::int64_t grain,
           T identity, Body&& body, Join&& join) const {
    if (grain < 1) grain = 1;
    const std::int64_t nc = exec::num_chunks(0, n, grain);
    if (nc == 0) return identity;
    std::vector<T> slot(static_cast<std::size_t>(nc), identity);
    switch (backend_) {
      case Backend::kSerial:
        for (std::int64_t c = 0; c < nc; ++c)
          slot[static_cast<std::size_t>(c)] =
              body(c * grain, std::min<std::int64_t>(n, (c + 1) * grain));
        break;
      case Backend::kPool:
        exec::for_each_chunk(
            0, n, grain,
            [&](std::int64_t c, std::int64_t b, std::int64_t e) {
              slot[static_cast<std::size_t>(c)] = body(b, e);
            },
            spec.label);
        break;
      case Backend::kSimGpu:
        rt_->launch_range(spec.name, spec.blocks, spec.stream, n, grain,
                          [&](std::int64_t b, std::int64_t e, OpCounts&) {
                            slot[static_cast<std::size_t>(b / grain)] =
                                body(b, e);
                          });
        break;
    }
    // Fixed pairwise tree over chunk order — identical to
    // exec::parallel_reduce: (s0+s1)+(s2+s3)+...
    for (std::int64_t width = nc; width > 1; width = (width + 1) / 2) {
      for (std::int64_t i = 0; 2 * i < width; ++i)
        slot[static_cast<std::size_t>(i)] =
            (2 * i + 1 < width)
                ? join(slot[static_cast<std::size_t>(2 * i)],
                       slot[static_cast<std::size_t>(2 * i + 1)])
                : slot[static_cast<std::size_t>(2 * i)];
    }
    return slot[0];
  }

 private:
  ExecSpace(Backend b, dgr::simgpu::GpuRuntime* rt) : backend_(b), rt_(rt) {}

  Backend backend_;
  dgr::simgpu::GpuRuntime* rt_;
};

}  // namespace dgr::exec_space
